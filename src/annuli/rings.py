"""Coefficient rings with dynamic evaluation (D5-style splitting).

Conjugate algebraic points are handled without factorization: computations run
in ``base[s]/(m)`` for a squarefree modulus ``m``; whenever a zero divisor must
be decided or inverted, a :class:`SplitEvent` carrying a nontrivial
factorization of the modulus is raised and the caller re-runs the computation
on each branch (:func:`explore_branches`).

Rings form towers: a :class:`Quotient` may sit over another Quotient (used by
the tangency automaton to adjoin roots of the places' leading coefficients).
Splits at any level propagate out with the key of the level that must be
refined.  A linear modulus gives a :class:`LinearQuotient`, which is its base
ring itself.

This module also holds the one dense polynomial kernel of the package:
coefficient lists (low -> high) over any of these rings, with the ring as the
first argument of every function (:func:`trim`, :func:`dense_mul`,
:func:`dense_sub`, :func:`dense_divmod`, :func:`dense_divexact` and the
Euclidean :func:`quotient_gcd`), and the one power :func:`ring_pow` of a ring
element.  Over :data:`SCALARS` it is the field kernel of
:mod:`annuli.laurent`; :meth:`Quotient.mul` is :func:`dense_mul` over the
base, reduced modulo the modulus.

Q[s]/(m) with a rational m computes on integers instead.  m is kept as a
primitive integer list M; an element over Q is cleared to integers over one
common denominator.  A product is one :func:`int_convolve` and one
fraction-free reduction by M (:func:`int_prem`).  An inverse or a zero
decision is a primitive remainder sequence of M and the element over Z
(Brown & Traub, J. ACM 1971) that carries the cofactor as one integer list
over one integer denominator.  The monic gcd and the inverse are unique, so
every value and every split equals the Euclidean one over Q.  Q(sqrt d)
moduli and towers keep the generic code.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Callable

from ._ratio import QQ
from .scalars import DivisionByZero, FieldMismatch, Scalar, ONE, ZERO, rational_scalar


class NotDivisible(ArithmeticError):
    """Exact division requested but a remainder was left."""


class SplitEvent(Exception):
    """The modulus at tower level `key` factors as f1 * f2 (both nontrivial)."""

    def __init__(self, key: str, f1: tuple, f2: tuple):
        super().__init__(f"modulus split at level {key!r}")
        self.key = key
        self.f1 = f1
        self.f2 = f2


class BranchBudgetExceeded(RuntimeError):
    """Dynamic evaluation ran more than MAX_BRANCHES branches of one tree."""

    def __init__(self, key: str | None, branches: int):
        super().__init__(f"dynamic evaluation split explosion: {branches} branches, last split at level {key!r}")
        self.key = key
        self.branches = branches


class ScalarField:
    """The base field Q(sqrt d); elements are plain Scalars."""

    level_key = None

    def zero(self):
        return ZERO

    def one(self):
        return ONE

    def from_scalar(self, c: Scalar):
        return c

    def from_base(self, x):
        return x

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        return x.inv()

    def is_zero(self, x) -> bool:
        return x.is_zero()

    def decide_zero(self, x) -> bool:
        return x.is_zero()

    def eq(self, x, y) -> bool:
        return self.is_zero(self.sub(x, y))

    def as_scalar(self, x) -> Scalar | None:
        return x

    def to_repr(self, x) -> str:
        return repr(x)

    def convolve(self, f: list, g: list, n: int) -> list:
        """The first n coefficients of the product of coefficient lists f and g.

        Each list is cleared to integers over one common denominator, shared
        by its rational and surd parts; the integers are convolved and each
        output coefficient is one rational.  A surd product takes three
        integer convolutions (Karatsuba).
        """
        if n <= 0:
            return []
        f, g = f[:n], g[:n]
        d = 1
        for x in chain(f, g):
            if x.d != 1 and x.d != d:
                if d != 1:
                    raise FieldMismatch(f"cannot mix sqrt({d}) with sqrt({x.d})")
                d = x.d
        fa, fb, fden = _cleared(f, d != 1)
        ga, gb, gden = _cleared(g, d != 1)
        den = fden * gden
        ac = int_convolve(fa, ga, n)
        # a zero coefficient is the shared ZERO, not a fresh object: series are
        # sparse and many products are kept
        if d == 1:
            return [rational_scalar(QQ(c, den)) if c else ZERO for c in ac]
        bd = int_convolve(fb, gb, n)
        mid = int_convolve([x + y for x, y in zip(fa, fb)], [x + y for x, y in zip(ga, gb)], n)
        out = []
        for p, q, m in zip(ac, bd, mid):
            a, b = p + d * q, m - p - q
            out.append(Scalar(QQ(a, den), QQ(b, den), d) if a or b else ZERO)
        return out


def _cleared(xs: list, surd: bool) -> tuple:
    """(rational numerators, surd numerators or None, common denominator) of xs."""
    parts = [x.a for x in xs] + ([x.b for x in xs] if surd else [])
    den = lcm(*{q.denominator for q in parts})
    nums = [q.numerator * (den // q.denominator) for q in parts]
    return nums[: len(xs)], nums[len(xs):] if surd else None, den


def int_convolve(f: list, g: list, n: int) -> list:
    """The first n coefficients of the product of integer lists f and g."""
    lf, lg = len(f), len(g)
    gr = g[::-1]
    out = []
    for k in range(min(n, lf + lg - 1)):
        lo, hi = max(0, k - lg + 1), min(k, lf - 1) + 1
        off = lg - 1 - k
        out.append(sum(map(mul, f[lo:hi], gr[off + lo : off + hi])))
    out.extend([0] * (n - len(out)))
    return out


def int_trim(f: list) -> list:
    """Drop trailing zeros of the integer list f in place; returns f."""
    while f and not f[-1]:
        f.pop()
    return f


def int_prem(f: list, g: list, quotient: bool = False) -> tuple[int, list, list]:
    """Fraction-free division of integer lists: (k, q, r) with k f = q g + r.

    r has length at most deg g and is not trimmed.  Each step clears the top
    coefficient c by the factor lc(g) / gcd(c, lc(g)), and k is the product
    of those factors.  q is [] unless `quotient` is set.
    """
    f = list(f)
    n, L = len(g) - 1, g[-1]
    q = [0] * (len(f) - n) if quotient else []
    k = 1
    for top in range(len(f) - 1, n - 1, -1):
        c = f[top]
        if not c:
            continue
        h = gcd(c, L)
        a, c = L // h, c // h
        if a != 1:
            k *= a
            f[:top] = [v * a for v in f[:top]]
            if quotient:
                q = [v * a for v in q]
        d = top - n
        if quotient:
            q[d] = c
        for i in range(n):
            f[d + i] -= c * g[i]
    return k, q, f[:n]


def int_divexact(f: list, g: list) -> list:
    """The quotient f / g of integer lists in Z[t]; NotDivisible when it is not exact there."""
    f = list(f)
    dg, lc = len(g) - 1, g[-1]
    q = [0] * max(0, len(f) - dg)
    for k in range(len(f) - 1, dg - 1, -1):
        c, rem = divmod(f[k], lc)
        if rem:
            raise NotDivisible("inexact division in Z[t]")
        q[k - dg] = c
        if c:
            for i in range(dg):
                f[k - dg + i] -= c * g[i]
    if any(f[:dg]):
        raise NotDivisible("inexact division in Z[t]")
    return q


SCALARS = ScalarField()


class Quotient:
    """base[s] / (modulus), modulus monic squarefree, elements = dense tuples."""

    def __init__(self, base, modulus: list, key: str):
        modulus = trim(base, list(modulus))
        if len(modulus) < 2:
            raise ValueError("modulus must have positive degree")
        lc = modulus[-1]
        if not base.is_zero(base.sub(lc, base.one())):
            inv = base.inv(lc)
            modulus = [base.mul(c, inv) for c in modulus]
        self.base = base
        self.mod = modulus
        self.deg = len(modulus) - 1
        self.key = key
        # Q[s]/(m) over Q computes on integers: m as the primitive integer
        # list M, with a positive leading coefficient (None over any other base)
        self.imod = None
        if base is SCALARS and all(c.d == 1 for c in modulus):
            nums = _cleared(modulus, False)[0]
            g = gcd(*nums)
            self.imod = [c // g for c in nums]

    # -- representation ---------------------------------------------------------

    def from_dense(self, cs: list) -> tuple:
        """The class of the base polynomial cs (low -> high) modulo the modulus."""
        cs = list(cs)
        if len(cs) > self.deg:
            cs = self._reduce(cs)
        while len(cs) < self.deg:
            cs.append(self.base.zero())
        return tuple(cs)

    def _ints(self, xs) -> tuple | None:
        """(numerators, common denominator) of xs on the integer path, else None."""
        if self.imod is None or any(c.d != 1 for c in xs):
            return None
        nums, _, den = _cleared(xs, False)
        return nums, den

    def _from_ints(self, nums: list, den) -> tuple:
        """The element sum_i (nums[i] / den) s^i of an integer list of length <= deg."""
        out = [rational_scalar(QQ(c, den)) if c else ZERO for c in nums]
        out.extend([ZERO] * (self.deg - len(out)))
        return tuple(out)

    def _int_reduce(self, P: list) -> tuple[list, int]:
        """(R, k) with k P = R modulo M, len(R) <= deg: one fraction-free reduction."""
        k, _, R = int_prem(P, self.imod)
        return R, k

    def _reduce(self, cs: list) -> list:
        ints = self._ints(cs)
        if ints is not None:
            R, k = self._int_reduce(ints[0])
            return list(self._from_ints(R, ints[1] * k))
        b = self.base
        cs = list(cs)
        while len(cs) > self.deg:
            c = cs.pop()
            if b.is_zero(c):
                continue
            d = len(cs) - self.deg
            for i in range(self.deg):
                cs[d + i] = b.sub(cs[d + i], b.mul(c, self.mod[i]))
        return cs

    def zero(self):
        return self.from_dense([])

    def one(self):
        return self.from_dense([self.base.one()])

    def gen(self):
        """The adjoined root s."""
        return self.from_dense([self.base.zero(), self.base.one()])

    def from_scalar(self, c: Scalar):
        return self.from_dense([self.base.from_scalar(c)])

    def from_base(self, x):
        return self.from_dense([x])

    # -- arithmetic ----------------------------------------------------------------

    def add(self, x, y):
        b = self.base
        return tuple(b.add(u, v) for u, v in zip(x, y))

    def neg(self, x):
        b = self.base
        return tuple(b.neg(u) for u in x)

    def sub(self, x, y):
        b = self.base
        return tuple(b.sub(u, v) for u, v in zip(x, y))

    def mul(self, x, y):
        a = self._ints(x)
        b = self._ints(y) if a is not None else None
        if b is not None:
            (xs, xd), (ys, yd) = a, b
            R, k = self._int_reduce(int_convolve(xs, ys, len(xs) + len(ys) - 1))
            return self._from_ints(R, xd * yd * k)
        return self.from_dense(dense_mul(self.base, x, y))

    def convolve(self, f: list, g: list, n: int) -> list:
        """The first n coefficients of the product of coefficient lists f and g.

        Each element's deg base coefficients are laid out in a zero-padded
        block of width 2*deg - 1, the length of an unreduced product, so one
        convolution over the base yields every output coefficient unreduced;
        each is then reduced once modulo the monic modulus.  Nothing is
        inverted, so nothing splits.
        """
        if n <= 0:
            return []
        w = 2 * self.deg - 1
        pad = [self.base.zero()] * (self.deg - 1)

        def rows(xs):
            return [c for x in xs[:n] for c in chain(x, pad)]

        flat = self.base.convolve(rows(f), rows(g), n * w)
        return [self.from_dense(flat[k * w : (k + 1) * w]) for k in range(n)]

    def is_zero(self, x) -> bool:
        """Structural zero test (exact for reduced elements; never splits)."""
        b = self.base
        return all(b.is_zero(c) for c in x)

    def decide_zero(self, x) -> bool:
        """Branchwise zero decision; raises SplitEvent on proper zero divisors."""
        b = self.base
        if all(b.is_zero(c) for c in x):
            return True
        # nonzero representative: certify it is a unit on every branch, else split
        ints = self._ints(x)
        if ints is not None:
            self._int_euclid(ints[0], cofactor=False)
            return False
        g = quotient_gcd(b, self.mod, x)
        if len(g) == 1:
            return False
        raise SplitEvent(self.key, tuple(g), tuple(dense_divexact(b, self.mod, g)))

    def eq(self, x, y) -> bool:
        return self.is_zero(self.sub(x, y))

    def as_scalar(self, x) -> Scalar | None:
        """The scalar this element equals, when it is a baseline constant."""
        b = self.base
        if any(not b.is_zero(c) for c in x[1:]):
            return None
        return b.as_scalar(x[0])

    def inv(self, x):
        b = self.base
        if all(b.is_zero(c) for c in x):
            raise DivisionByZero("inverse of zero in quotient ring")
        ints = self._ints(x)
        if ints is not None:
            T, e = self._int_euclid(ints[0], cofactor=True)
            return self._from_ints([ints[1] * c for c in T], e)
        g, s = self._half_xgcd(list(self.mod), list(x))
        if len(g) == 1:
            ginv = b.inv(g[0])
            return self.from_dense([b.mul(c, ginv) for c in s])
        if len(g) == len(self.mod):
            raise DivisionByZero("inverse of zero in quotient ring")
        raise SplitEvent(self.key, tuple(g), tuple(dense_divexact(b, self.mod, g)))

    # -- polynomial helpers over the base ------------------------------------------

    def _int_euclid(self, X: list, cofactor: bool) -> tuple[list, int] | None:
        """Decide the integer list X (not zero modulo M) by a primitive
        remainder sequence of M and X over Z.

        A nonconstant gcd splits the modulus on its monic form g:
        SplitEvent(key, g, m / g), as the Euclidean gcd over Q splits, since
        the monic gcd is unique.  Otherwise X is a unit; with `cofactor` the
        result is (T, e), an integer list of length at most deg M (the
        Euclidean cofactor's degree bound) and a nonzero integer with
        T X = e modulo M, and None without.  Each remainder r_i keeps such a
        pair for e_i r_i = T_i X, and (T_i, e_i) is kept in lowest terms.
        """
        r0, r1 = self.imod, int_trim(list(X))
        c = gcd(*r1)
        r1 = [v // c for v in r1]
        T0, e0, T1, e1 = [], 1, [1], c
        while len(r1) > 1:
            k, q, r = int_prem(r0, r1, quotient=cofactor)
            int_trim(r)
            if not r:
                g = [rational_scalar(QQ(v, r1[-1])) for v in r1]
                f = int_divexact(self.imod, r1)
                raise SplitEvent(self.key, tuple(g), tuple(rational_scalar(QQ(v, f[-1])) for v in f))
            c = gcd(*r)
            r0, r1 = r1, [v // c for v in r]
            if cofactor:
                # e r = k (E / e0) T0 X - (E / e1) q T1 X  with E = lcm(e0, e1)
                E = lcm(e0, e1)
                a, b = k * (E // e0), E // e1
                qT = int_convolve(q, T1, len(q) + len(T1) - 1)
                T = [a * u for u in T0] + [0] * (len(qT) - len(T0))
                for i, v in enumerate(qT):
                    T[i] -= b * v
                int_trim(T)
                h = gcd(E * c, *T)
                T0, e0, T1, e1 = T1, e1, [v // h for v in T], E * c // h
        if cofactor:
            return T1, e1 * r1[0]
        return None

    def _half_xgcd(self, a: list, bb: list) -> tuple[list, list]:
        """Monic gcd of a, bb over base plus Bezout coefficient for bb.

        Returns (g, s) with g = gcd and s such that s*bb = g  (mod a).
        """
        b = self.base
        r0, r1 = trim(b, list(a)), trim(b, list(bb))
        s0, s1 = [], [b.one()]
        while r1:
            q, r = dense_divmod(b, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, dense_sub(b, s0, dense_mul(b, q, s1))
        if r0:
            lc_inv = b.inv(r0[-1])
            r0 = [b.mul(c, lc_inv) for c in r0]
            s0 = [b.mul(c, lc_inv) for c in s0]
        return r0, s0

    def to_repr(self, x) -> str:
        b = self.base
        parts = []
        for i, c in enumerate(x):
            if b.is_zero(c):
                continue
            cs = b.to_repr(c)
            parts.append(cs if i == 0 else f"({cs})*s^{i}" if i > 1 else f"({cs})*s")
        return " + ".join(parts) if parts else "0"


class LinearQuotient:
    """base[s] / (s - root): canonically the base ring itself.

    Elements are the base's own elements and every operation is the base's
    method, so a rational point computes in Q with no 1-tuples around each
    value.  A linear modulus is irreducible and never splits.
    """

    _BASE_OPS = (
        "zero", "one", "from_scalar", "add", "neg", "sub", "mul", "inv",
        "is_zero", "decide_zero", "eq", "as_scalar", "to_repr", "convolve",
    )

    def __init__(self, base, root, key: str):
        self.base = base
        self.key = key
        self.root = root
        for name in self._BASE_OPS:
            setattr(self, name, getattr(base, name))

    def gen(self):
        """The adjoined root s, an element of the base."""
        return self.root

    def from_base(self, x):
        return x


# ---------------------------------------------------------------------------
# the dense polynomial kernel over any coefficient ring (lists low -> high)
# ---------------------------------------------------------------------------


def trim(ring, cs: list) -> list:
    """Drop trailing zeros of cs in place; returns cs."""
    while cs and ring.is_zero(cs[-1]):
        cs.pop()
    return cs


def dense_mul(ring, f: list, g: list) -> list:
    """The product of f and g; zero coefficients are skipped."""
    if not f or not g:
        return []
    out = [ring.zero()] * (len(f) + len(g) - 1)
    for i, u in enumerate(f):
        if ring.is_zero(u):
            continue
        for j, v in enumerate(g):
            if ring.is_zero(v):
                continue
            out[i + j] = ring.add(out[i + j], ring.mul(u, v))
    return trim(ring, out)


def ring_pow(ring, x, k: int):
    """x^k in `ring` by square and multiply; a negative k inverts x first.

    The inverse is the only call that can split.
    """
    if k < 0:
        x, k = ring.inv(x), -k
    out = ring.one()
    while k:
        if k & 1:
            out = ring.mul(out, x)
        k >>= 1
        if k:
            x = ring.mul(x, x)
    return out


def dense_sub(ring, f: list, g: list) -> list:
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        u = f[i] if i < len(f) else ring.zero()
        v = g[i] if i < len(g) else ring.zero()
        out.append(ring.sub(u, v))
    return trim(ring, out)


def dense_divmod(ring, f: list, g: list) -> tuple[list, list]:
    """Division with invertible-leading-coefficient divisor (may raise SplitEvent)."""
    f = trim(ring, list(f))
    g = trim(ring, list(g))
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lc = ring.inv(g[-1])
    dg = len(g) - 1
    q = [ring.zero()] * max(0, len(f) - dg)
    while len(f) - 1 >= dg and f:
        d = len(f) - 1 - dg
        c = ring.mul(f[-1], inv_lc)
        q[d] = c
        for i in range(len(g)):
            f[d + i] = ring.sub(f[d + i], ring.mul(c, g[i]))
        f = trim(ring, f)
    return q, f


def dense_divexact(ring, f: list, g: list) -> list:
    """The quotient f / g; NotDivisible when a remainder is left."""
    q, r = dense_divmod(ring, f, g)
    if r:
        raise NotDivisible("exact division left a remainder")
    return q


def quotient_gcd(ring, f: list, g: list) -> list:
    """Monic Euclidean gcd of polynomials over `ring`; splits on zero divisors.

    gcd(f, 0) = monic f.  The SplitEvent is part of the contract: callers use
    :func:`explore_branches` to resume on each factor of the modulus.
    """
    a, b = trim(ring, list(f)), trim(ring, list(g))
    while b:
        _, r = dense_divmod(ring, a, b)
        a, b = b, r
    if a:
        inv = ring.inv(a[-1])
        a = [ring.mul(c, inv) for c in a]
    return a


# ---------------------------------------------------------------------------
# branch exploration driver
# ---------------------------------------------------------------------------


class BranchState:
    """Per-branch modulus overrides, keyed by tower level.

    Overrides are stored as raw dense tuples; a refined tower reinterprets them
    by reduction, which is exactly the canonical projection between branches.
    """

    def __init__(self, overrides: dict | None = None):
        self.overrides = dict(overrides or {})

    def modulus(self, key: str, default: list) -> list:
        return list(self.overrides.get(key, default))

    def with_override(self, key: str, mod) -> "BranchState":
        d = dict(self.overrides)
        d[key] = list(mod)
        return BranchState(d)

    def quotient(self, base, key: str, default_modulus: list):
        """base[s]/(m) for this branch's modulus m at level `key`.

        A linear m = m1 s + m0 gives the base ring itself with s = -m0/m1
        (:class:`LinearQuotient`); any other degree gives a :class:`Quotient`.
        """
        mod = trim(base, self.modulus(key, default_modulus))
        if len(mod) == 2:
            root = base.neg(base.mul(mod[0], base.inv(mod[1])))
            return LinearQuotient(base, root, key)
        return Quotient(base, mod, key)


MAX_BRANCHES = 10_000


def explore_branches(fn: Callable[[BranchState], object], seed: BranchState | None = None) -> list:
    """Run fn on every branch of the dynamic-evaluation tree; returns results.

    fn receives a BranchState and must build its quotient rings through it.
    On SplitEvent the state forks and fn re-runs from scratch on both factors;
    results are returned in a deterministic (depth-first, f1-before-f2) order.
    A tree that needs more than MAX_BRANCHES runs of fn raises
    :class:`BranchBudgetExceeded`, naming the level of its last split.
    """
    out = []
    stack = [seed or BranchState()]
    runs = 0
    key = None
    while stack:
        st = stack.pop()
        if runs == MAX_BRANCHES:
            raise BranchBudgetExceeded(key, runs)
        runs += 1
        try:
            out.append(fn(st))
        except SplitEvent as ev:
            key = ev.key
            stack.append(st.with_override(ev.key, ev.f2))
            stack.append(st.with_override(ev.key, ev.f1))
    return out
