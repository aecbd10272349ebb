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

Q(sqrt d)[s]/(m) computes on integers instead.  A Z[sqrt d] list is a pair
(A, B) of integer lists for A + B sqrt(d), B None over Q.  m is kept as a
primitive pair M, with a rational leading coefficient as m is monic; an
element is cleared to a pair over one common denominator.  A product is one
:func:`_zz_mul` and one fraction-free reduction by M (:func:`int_prem`).  An
inverse and a zero decision are one primitive remainder sequence over Z and
Z[sqrt d] (:func:`_zz_euclid`; Brown & Traub, J. ACM 1971), with the
cofactor for the inverse only, after GCDHEU (:func:`_heuristic_gcd`) for a
decision over Q; :func:`annuli.laurent.poly_gcd` runs the same.  The monic
gcd and the inverse are unique, so every value and every split (each built
by :meth:`Quotient._split`) equals Euclid's over Q(sqrt d).  Horner's rule
in an element x (`horner`, the value of sum_k [rows_k] x^k for base
polynomials rows_k) is one product and one such reduction per step, with
one conversion at the end.  Towers keep the generic code.

Every ring also carries the truncated-series kernels of :mod:`annuli.series`
on coefficient lists: `convolve`, `unit_power` (Miller's recurrence),
`reversion` (Lagrange inversion), `compose` and `taylor_shift` (a Laurent
polynomial at c + tau, by Horner's rule in c + tau).  :class:`ScalarField`
runs them on integers, Z[sqrt d] pairs over one common denominator per input
(`_zz_*` helpers), with one rational per output coefficient;
:class:`Quotient` runs them element by element; :class:`LinearQuotient`
delegates to its base.
"""

from __future__ import annotations

from itertools import chain
from math import comb, gcd, isqrt, lcm, perm
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

    def scale(self, x, c: Scalar):
        return x * c

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
        d = _field_tag(chain(f, g))
        F, fden = _cleared(f, d)
        G, gden = _cleared(g, d)
        return _zz_scalars(_zz_mul(F, G, n, d), fden * gden, d)

    def unit_power(self, h: list, alpha) -> list:
        """(h / h_0)^alpha to len(h) terms, for a unit h_0 and a rational alpha.

        Miller's recurrence (Knuth, TAOCP vol. 2, 4.7) on integers.  With
        h / h_0 = F / L for an integer list F, F_0 = L, and alpha = p / q, set
        C_0 = 1 and C_k = sum_{j=1..k} ((p + q) j - q k) F_j C_{k-j}
        (q L)^(j-1) (k-1)! / (k-j)!, over the nonzero F_j only; then
        w_k = C_k / (q^k k! L^k).  Over Q(sqrt d) the F_j and C_k are pairs
        over Z[sqrt d], and F is h cleared times the conjugate of its first
        coefficient.  h is cleared once and each w_k is one rational.
        """
        n = len(h)
        if not n:
            return [ONE]
        d = _field_tag(h)
        (A, B), _ = _zz_rational_lead(_cleared(h, d)[0], d, 0)
        L, A, B = A[0], A[1:], B and B[1:]
        p, q = alpha.numerator, alpha.denominator
        ql = q * L
        # (j, F_j, its surd part, (q L)^(j-1)) over the nonzero F_j
        nz = [(j, a, b, ql ** (j - 1)) for j, (a, b) in enumerate(zip(A, B or [0] * len(A)), 1) if a or b]
        ca, cb = [1], [0]
        for k in range(1, n):
            sa = sb = 0
            for j, fa, fb, wt in nz:
                if j > k:
                    break
                m = ((p + q) * j - q * k) * perm(k - 1, j - 1) * wt
                if not m:
                    continue
                x, y = ca[k - j], cb[k - j]
                if B is None:
                    sa += m * fa * x
                    continue
                ax, by = fa * x, fb * y
                sa += m * (ax + d * by)
                sb += m * ((fa + fb) * (x + y) - ax - by)
            ca.append(sa)
            cb.append(sb)
        dens = [1]
        for k in range(1, n):
            dens.append(dens[-1] * ql * k)
        return _zz_scalars((ca, None if B is None else cb), dens, d)

    def reversion(self, u: list) -> list:
        """[t_1, ..., t_n] with t_j = [tau^(j-1)] u^j / j, n = len(u).

        Lagrange inversion on integers: with u = U / D for an integer list U,
        t_j = [tau^(j-1)] U^j / (j D^j), with no rational in between.  The
        powers are integer lists truncated to n, by baby steps and giant
        steps: for m = isqrt(n - 1) + 1 and j = i m + r, 0 <= r < m, the
        coefficient of U^j is a dot product of U^(i m) and U^r, so about
        2 sqrt(n) convolutions give all n of them.
        """
        n = len(u)
        d = _field_tag(u)
        U, D = _cleared(u, d)
        m = isqrt(max(n - 1, 0)) + 1
        one = ([1] + [0] * (n - 1), None if U[1] is None else [0] * n)
        baby = [one, U]  # baby[r] = U^r for r < m
        for _ in range(2, m):
            baby.append(_zz_mul(baby[-1], U, n, d))
        step = _zz_mul(baby[m - 1], U, n, d)  # U^m
        giant = one  # U^(i m)
        ta, tb, dens = [], [], []
        for j in range(1, n + 1):
            i, r = divmod(j, m)
            if not r:
                giant = step if i == 1 else _zz_mul(giant, step, n, d)
            (ga, gb), (ba, bb) = giant, baby[r]
            if gb is None:
                ta.append(_zz_coeff(ga, ba, j - 1))
            else:
                ta.append(_zz_coeff(ga, ba, j - 1) + d * _zz_coeff(gb, bb, j - 1))
                tb.append(_zz_coeff(ga, bb, j - 1) + _zz_coeff(gb, ba, j - 1))
            dens.append(j * D**j)
        return _zz_scalars((ta, tb if U[1] is not None else None), dens, d)

    def compose(self, terms: list, unit: list, lo: int, prec: int) -> list:
        """Coefficients lo .. prec - 1 of sum_e c_e sigma^e unit^e over (e, c_e) in terms.

        Each power of unit is kept to len(unit) terms, which must cover
        prec - e for every e != 0.  The powers of unit (of its inverse for
        e < 0) are integer lists over one denominator each, from
        :func:`_power_table`; the sum is taken over one common denominator
        and each output coefficient is one rational.
        """
        n = len(unit)
        cs = [c for _, c in terms]
        d = _field_tag(chain(unit, cs))
        (ca, cb), cden = _cleared(cs, d)
        U, D = _cleared(unit, d)
        table, den = {}, 1
        for sign in (1, -1):
            ks = {sign * e for e, _ in terms if sign * e > 0}
            if not ks:
                continue
            Z, D = (U, D) if sign > 0 else _zz_inverse(U, D, n, d)
            for k, zk in _power_table(ks, Z, lambda x, y: _zz_mul(x, y, n, d)).items():
                table[sign * k] = zk, D**k
            den = lcm(den, D ** max(ks))
        out_a = [0] * (prec - lo)
        out_b = None if cb is None else [0] * (prec - lo)
        for i, (e, _) in enumerate(terms):
            if e == 0:
                if prec > 0:
                    out_a[-lo] += ca[i] * den
                    if out_b is not None:
                        out_b[-lo] += cb[i] * den
                continue
            (za, zb), De = table[e]
            f = den // De
            a = ca[i] * f
            if out_b is None:
                for s in range(prec - e):
                    out_a[e + s - lo] += a * za[s]
                continue
            b = cb[i] * f
            for s in range(prec - e):
                out_a[e + s - lo] += a * za[s] + d * b * zb[s]
                out_b[e + s - lo] += a * zb[s] + b * za[s]
        return _zz_scalars((out_a, out_b), cden * den, d)

    def taylor_shift(self, f: list, pole: int, c, n: int) -> list:
        """The first n coefficients of g(c + tau) for g = t^(-pole) f, f a
        coefficient list, and c a unit when pole > 0.

        It runs on integers.  Write c = C / q with C in Z[sqrt d], and
        1 / C = G / M for an integer M: G = 1 and M = C when C is rational,
        else G is the conjugate of C and M its norm.  With f = F / D cleared
        once and e = len(f) - 1, Horner's rule in C + q tau gives
        f(c + tau) = P(tau) / (D q^e) for P = sum_k F_k q^(e-k) (C + q tau)^k,
        and (c + tau)^(-pole) = W(tau) / M^(pole + n - 1) to n terms, for
        W_k = binom(-pole, k) q^(pole + k) G^(pole + k) M^(n - 1 - k).  That
        is one product P W, and each output coefficient is one rational.
        """
        if n <= 0:
            return []
        d = _field_tag(chain(f, [c]))
        (fa, fb), den = _cleared(f, d)
        (ca, cb), q = _cleared([c], d)
        ca, cb = ca[0], cb[0] if cb else 0
        a, b = [], None if fb is None else []
        qk = 1  # q^(e-k)
        for k in range(len(f) - 1, -1, -1):
            # (a, b) <- (a, b) (C + q tau) + F_k q^(e-k), cut to n terms
            if b is None:
                a = [x * ca + q * y for x, y in zip(a + [0], [0] + a)][:n]
            else:
                a, b = (
                    [x * ca + d * u * cb + q * y for x, u, y in zip(a + [0], b + [0], [0] + a)][:n],
                    [x * cb + u * ca + q * v for x, u, v in zip(a + [0], b + [0], [0] + b)][:n],
                )
                b[0] += fb[k] * qk
            a[0] += fa[k] * qk
            qk *= q
        pad = [0] * (n - len(a))
        P, den = (a + pad, None if b is None else b + pad), den * q ** max(len(f) - 1, 0)
        if pole:
            if not (ca or cb):
                raise DivisionByZero("inverse of zero")
            (ga, gb), m = ((ca, -cb), ca * ca - d * cb * cb) if cb else ((1, 0), ca)
            wa, wb, xa, xb, s = [], [], 1, 0, 1  # (xa, xb) = G^(pole + k), s = q^(pole + k)
            for k in range(-pole, n):
                if k >= 0:
                    w = (-1) ** k * comb(pole + k - 1, k) * s * m ** (n - 1 - k)
                    wa.append(w * xa)
                    wb.append(w * xb)
                xa, xb, s = xa * ga + d * xb * gb, xa * gb + xb * ga, s * q
            P = _zz_mul(P, (wa, None if P[1] is None else wb), n, d)
            den *= m ** (pole + n - 1)
        return _zz_scalars(P, den, d)


def _field_tag(xs) -> int:
    """The field tag d shared by the scalars xs (1 when all are rational)."""
    d = 1
    for x in xs:
        if x.d != 1 and x.d != d:
            if d != 1:
                raise FieldMismatch(f"cannot mix sqrt({d}) with sqrt({x.d})")
            d = x.d
    return d


def _cleared(xs: list, d: int) -> tuple:
    """((A, B), den) with xs = (A + B sqrt(d)) / den over one common
    denominator den; the surd numerators B are None over Q (d = 1)."""
    surd = d != 1
    parts = [x.a for x in xs] + ([x.b for x in xs] if surd else [])
    den = lcm(*{q.denominator for q in parts})
    nums = [q.numerator * (den // q.denominator) for q in parts]
    return (nums[: len(xs)], nums[len(xs):] if surd else None), den


def _zz_mul(x: tuple, y: tuple, n: int, d: int) -> tuple:
    """The first n coefficients of the product of Z[sqrt d] lists x = (A, B)
    and y, A + B sqrt(d) with B None over Q: one integer convolution over Q,
    three (Karatsuba) over Z[sqrt d]."""
    (a, b), (c, e) = x, y
    ac = int_convolve(a, c, n)
    if b is None:
        return ac, None
    be = int_convolve(b, e, n)
    mid = int_convolve([s + t for s, t in zip(a, b)], [s + t for s, t in zip(c, e)], n)
    return [p + d * q for p, q in zip(ac, be)], [m - p - q for m, p, q in zip(mid, ac, be)]


def _zz_add_scaled(x: tuple, y: tuple, s: int) -> tuple:
    """x + s y for Z[sqrt d] lists x and y (parts of one length each), padded to the longer."""

    def add(f, g):
        out = f + [0] * (len(g) - len(f))
        for i, v in enumerate(g):
            out[i] += s * v
        return out

    return add(x[0], y[0]), x[1] if x[1] is None else add(x[1], y[1])


def _zz_coeff(f: list, g: list, k: int) -> int:
    """The coefficient of tau^k in the product of integer lists f and g (both longer than k)."""
    return sum(map(mul, f[: k + 1], g[k::-1]))


def _zz_rational_lead(x: tuple, d: int, i: int) -> tuple:
    """(x c, c) for the conjugate c = (c_a, c_b) of x_i, so that (x c)_i is
    rational; c = (1, 0) when it already is."""
    a, b = x
    if b is None or not b[i]:
        return x, (1, 0)
    return _zz_scale(x, (a[i], -b[i]), d), (a[i], -b[i])


def _zz_scale(x: tuple, c: tuple, d: int) -> tuple:
    """c x for a constant c = (c_a, c_b) of Z[sqrt d] and a Z[sqrt d] list x (parts of one length)."""
    (a, b), (ca, cb) = x, c
    if b is None:
        return [ca * u for u in a], None
    return [u * ca + d * v * cb for u, v in zip(a, b)], [u * cb + v * ca for u, v in zip(a, b)]


def _zz_inverse(x: tuple, den: int, n: int, d: int) -> tuple:
    """(V, E) with V / E = den / x to n terms, for a Z[sqrt d] list x with x_0 != 0.

    x times the conjugate c of x_0 has the rational leading term N = x_0 c,
    and 1 / (x c) = sum_k X_k tau^k / N^(k+1) with X_0 = 1 and X_k =
    -sum_{j=1..k} (x c)_j X_{k-j} N^(j-1): Miller's recurrence at alpha = -1,
    divided through by k!.  So V = den c sum_k X_k N^(n-1-k) tau^k and
    E = N^n.
    """
    (xa, xb), (ca, cb) = _zz_rational_lead(x, d, 0)
    xb = xb or [0] * len(xa)
    N = xa[0]
    # (j, (x c)_j, its surd part, N^(j-1)) over the nonzero (x c)_j
    nz = [(j, u, v, N ** (j - 1)) for j, (u, v) in enumerate(zip(xa[1:n], xb[1:n]), 1) if u or v]
    Xa, Xb = [1], [0]
    for k in range(1, n):
        sa = sb = 0
        for j, u, v, wt in nz:
            if j > k:
                break
            p, q = Xa[k - j], Xb[k - j]
            sa -= wt * (u * p + d * v * q)
            sb -= wt * (u * q + v * p)
        Xa.append(sa)
        Xb.append(sb)
    scale = [den * N ** (n - 1 - k) for k in range(n)]
    Va = [(ca * p + d * cb * q) * m for p, q, m in zip(Xa, Xb, scale)]
    if x[1] is None:
        return (Va, None), N**n
    return (Va, [(ca * q + cb * p) * m for p, q, m in zip(Xa, Xb, scale)]), N**n


def _zz_scalars(x: tuple, den, d: int) -> list:
    """The scalars (A_i + B_i sqrt(d)) / den_i of x = (A, B), for one integer
    den or a list of them; a zero is the shared ZERO.  A and B may differ in
    length: the shorter one is read with zeros."""
    a, b = x
    if b is not None and len(a) != len(b):
        n = max(len(a), len(b))
        a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    dens = den if isinstance(den, list) else [den] * len(a)
    # a zero coefficient is the shared ZERO, not a fresh object: series are
    # sparse and many products are kept
    if b is None:
        return [rational_scalar(QQ(p, q)) if p else ZERO for p, q in zip(a, dens)]
    return [Scalar(QQ(p, q), QQ(s, q), d) if p or s else ZERO for p, s, q in zip(a, b, dens)]


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


def int_prem(f: tuple, g: tuple, d: int, quotient: bool = False) -> tuple:
    """(k, q, r) with k f = q g + r, r of length deg g (untrimmed), for Z[sqrt d] lists
    f, g (parts of one length) and a rational lc(g).  Each step scales by
    lc(g) / gcd(c, lc(g)) over both parts of the top c; k is their product.
    q is None unless `quotient` is set."""
    (fa, fb), (ga, gb) = f, g
    fa, fb = list(fa), None if fb is None else list(fb)
    n, L = len(ga) - 1, ga[-1]
    qa = [0] * (len(fa) - n) if quotient else None
    qb = None if fb is None or not quotient else list(qa)
    k = 1
    for top in range(len(fa) - 1, n - 1, -1):
        c, e = fa[top], fb[top] if fb else 0
        if not c and not e:
            continue
        h = gcd(c, e, L)
        a, c, e = L // h, c // h, e // h
        if a != 1:
            k *= a
            fa[:top] = [v * a for v in fa[:top]]
            if fb is not None:
                fb[:top] = [v * a for v in fb[:top]]
            if quotient:
                qa, qb = [v * a for v in qa], qb and [v * a for v in qb]
        s = top - n
        if quotient:
            qa[s] = c
            if qb is not None:
                qb[s] = e
        if fb is None:
            for i in range(n):
                fa[s + i] -= c * ga[i]
            continue
        de = d * e
        for i in range(n):
            fa[s + i] -= c * ga[i] + de * gb[i]
            fb[s + i] -= c * gb[i] + e * ga[i]
    return k, quotient and (qa, qb), (fa[:n], fb and fb[:n])


def _zz_euclid(f: tuple, g: tuple, d: int, cofactor: bool) -> tuple:
    """The last remainder of a primitive remainder sequence of Z[sqrt d]
    lists f and g (Brown & Traub, J. ACM 1971), g != 0, deg g <= deg f.

    Each remainder is multiplied by the conjugate of its leading coefficient
    and divided by its rational-integer content: every pseudo-division then
    scales by a rational integer, and each remainder is a rational multiple
    of the monic Euclidean one, so no factor of Z[sqrt d] builds up.
    Returns (r, T, e), r the gcd over Q(sqrt d) times a rational; with
    `cofactor`, e r = T g modulo f for a Z[sqrt d] list T and an integer
    e != 0 (kept in lowest terms), else T = e = None.
    """

    def normal(x):  # (x c / h, c, h): x trimmed, c the conjugate of lc(x), h the content of x c
        a, b = x
        n = len(a)
        while not a[n - 1] and (b is None or not b[n - 1]):
            n -= 1
        (a, b), c = _zz_rational_lead((a[:n], b and b[:n]), d, n - 1)
        h = gcd(*a, *b) if b else gcd(*a)
        return ([v // h for v in a], b and [v // h for v in b]), c, h

    r0, (r1, c, h) = f, normal(g)
    T0, e0, T1, e1 = ([], None if d == 1 else []), 1, ([c[0]], None if d == 1 else [c[1]]), h
    while len(r1[0]) > 1:
        k, q, r = int_prem(r0, r1, d, cofactor)
        if not any(r[0]) and not any(r[1] or ()):
            break
        r0, (r1, c, h) = r1, normal(r)
        if cofactor:
            # E r = c (k (E / e0) T0 - (E / e1) q T1) X / h  with E = lcm(e0, e1)
            E = lcm(e0, e1)
            T = _zz_comb(k * (E // e0), T0, E // e1, _pmul(q, T1, d))
            if c != (1, 0):
                T = _pmul(T, ([c[0]], [c[1]]), d)
            (a, b), E = T, E * h
            w = gcd(E, *a, *b) if b else gcd(E, *a)
            T0, e0, T1, e1 = T1, e1, ([v // w for v in a], b and [v // w for v in b]), E // w
    return (r1, T1, e1) if cofactor else (r1, None, None)


def _zz_comb(a: int, x: tuple, b: int, y: tuple) -> tuple:
    """a x - b y for integers a, b and Z[sqrt d] lists x, y, trimmed."""

    def comb(f, g):
        out = [a * v for v in f] + [0] * (len(g) - len(f))
        for i, v in enumerate(g):
            out[i] -= b * v
        return int_trim(out)

    return comb(x[0], y[0]), x[1] if x[1] is None else comb(x[1], y[1])


def _zz_gcd(f: list, g: list, d: int) -> list:
    """The monic gcd over Q(sqrt d) of nonzero trimmed scalar lists f and g, by :func:`_zz_euclid`."""
    F, G = sorted((_cleared(x, d)[0] for x in (f, g)), key=lambda x: -len(x[0]))
    r = _zz_euclid(F, G, d, False)[0]
    return _zz_scalars(r, r[0][-1], d)


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


# Z[sqrt d] lists with each part trimmed on its own, for the subresultant
# chain over Z[sqrt d][v] (:func:`annuli.bipoly.uv_prs`) and cofactors.


def _zadd(f: list, g: list) -> list:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return int_trim(out)


def _zneg(f: list) -> list:
    return [-c for c in f]


def _zmul(f: list, g: list) -> list:
    if not f or not g:
        return []
    return int_convolve(f, g, len(f) + len(g) - 1)


def _psub(x: tuple, y: tuple) -> tuple:
    return _zadd(x[0], _zneg(y[0])), x[1] if y[1] is None else _zadd(x[1], _zneg(y[1]))


def _pmul(x: tuple, y: tuple, d: int) -> tuple:
    (a, b), (c, e) = x, y
    if not b and not e:  # no surd part: b and e are both None (over Q) or both []
        return _zmul(a, c), b
    return _zadd(_zmul(a, c), [d * t for t in _zmul(b, e)]), _zadd(_zmul(a, e), _zmul(b, c))


def _ppow(x: tuple, k: int, d: int) -> tuple:
    out = [1], None if d == 1 else []
    for _ in range(k):
        out = _pmul(out, x, d)
    return out


def _pdivexact(x: tuple, y: tuple, d: int) -> tuple:
    """x / y in Z[sqrt d][v], through the norm y * conj(y) when y has a surd part."""
    if y[1]:
        x = _pmul(x, (y[0], _zneg(y[1])), d)
        y = (_zadd(_zmul(y[0], y[0]), [-d * t for t in _zmul(y[1], y[1])]), [])
    return int_divexact(x[0], y[0]), x[1] and int_divexact(x[1], y[0])


def _zz_prem(a: list, b: list, d: int) -> list:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b in u, trimmed, for
    lists a and b (indexed by u-degree) of Z[sqrt d] lists in v.

    A monic b (lc(b) = 1) scales nothing, as in :func:`int_prem`.
    """
    lc = b[-1]
    monic = lc[0] == [1] and not lc[1]
    db = len(b) - 1
    r = list(a)
    steps = len(a) - len(b) + 1
    while r and len(r) - 1 >= db:
        top, k = r[-1], len(r) - 1 - db
        if not monic:
            r = [_pmul(lc, c, d) for c in r]
        for i, c in enumerate(b):
            r[k + i] = _psub(r[k + i], _pmul(top, c, d))
        while r and not r[-1][0] and not r[-1][1]:
            r.pop()
        steps -= 1
    if steps > 0 and r and not monic:
        f = _ppow(lc, steps, d)
        r = [_pmul(f, c, d) for c in r]
    return r


# Heuristic gcd (Char, Geddes & Gonnet, "GCDHEU", J. Symb. Comp. 1989): the
# gcd of two integer values at a large point xi, read back in base xi.  At
# most _HEU_TRIES points are tried, and none once bits(xi) * degree passes
# _HEU_MAX_BITS, where integer gcds get too long to beat the Euclidean loop.
_HEU_TRIES = 6
_HEU_MAX_BITS = 1 << 17


def _primitive_zz(cs: list) -> list[int]:
    """The primitive integer polynomial proportional to the rational parts of the scalars cs."""
    ints = _cleared(cs, 1)[0][0]
    g = gcd(*ints)
    return [v // g for v in ints]


def _heuristic_gcd(a: list[int], b: list[int]) -> list[int] | None:
    """Primitive gcd in Z[t] with a positive leading coefficient, or None.

    A candidate is accepted only when it divides both inputs exactly; with
    xi >= 2 min(|a|, |b|) + 2 (|.| the largest absolute coefficient) a
    candidate that divides both is the gcd.  a and b are primitive and trimmed.
    """
    if len(a) == 1 or len(b) == 1:
        return [1]
    deg = max(len(a), len(b)) - 1
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * deg > _HEU_MAX_BITS:
            return None
        h = _xi_adic(gcd(_horner(a, xi), _horner(b, xi)), xi)
        if h and len(h) <= min(len(a), len(b)):
            c = gcd(*h) if h[-1] > 0 else -gcd(*h)
            h = [v // c for v in h]
            try:
                int_divexact(a, h)
                int_divexact(b, h)
                return h
            except NotDivisible:
                pass
        # the growth used by later GCDHEU implementations: about xi^(5/4)
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _horner(cs: list[int], x: int) -> int:
    v = 0
    for c in reversed(cs):
        v = v * x + c
    return v


def _xi_adic(v: int, xi: int) -> list[int]:
    """Digits of v in base xi, each in the symmetric range (-xi/2, xi/2]."""
    half = xi // 2
    out = []
    while v:
        r = v % xi
        if r > half:
            r -= xi
        out.append(r)
        v = (v - r) // xi
    return out


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
        # M: m as a primitive Z[sqrt d] list over the scalars; _surd: a surd coefficient of m
        self.imod = None
        if base is SCALARS:
            self._surd = [c for c in modulus if c.d != 1][:1]
            (A, B), _ = _cleared(modulus, _field_tag(self._surd))
            h = gcd(*A, *(B or ()))
            self.imod = [v // h for v in A], B and [v // h for v in B]

    # -- representation ---------------------------------------------------------

    def from_dense(self, cs: list) -> tuple:
        """The class of the base polynomial cs (low -> high) modulo the modulus."""
        cs = list(cs)
        if len(cs) > self.deg:
            ints = self._ints(cs)
            if ints is not None:
                d, ((X, den),) = ints
                return self._from_ints(X, den, d)
            b = self.base
            while len(cs) > self.deg:
                c, k = cs.pop(), len(cs) - self.deg
                if not b.is_zero(c):
                    for i in range(self.deg):
                        cs[k + i] = b.sub(cs[k + i], b.mul(c, self.mod[i]))
        while len(cs) < self.deg:
            cs.append(self.base.zero())
        return tuple(cs)

    def _ints(self, *xss) -> tuple | None:
        """(d, [(X, den) for xs in xss]): the scalar lists xss cleared to
        Z[sqrt d] lists, d the modulus's field tag or theirs; None over any
        base but the scalars."""
        if self.imod is None:
            return None
        d = _field_tag(chain(self._surd, *xss))
        return d, [_cleared(xs, d) for xs in xss]

    def _zz_mod(self, d: int) -> tuple:  # M, with zero surd parts for a rational m and d != 1
        A, B = self.imod
        return (A, [0] * len(A)) if B is None and d != 1 else self.imod

    def _from_ints(self, P: tuple, den, d: int) -> tuple:
        """The element P / den for a Z[sqrt d] list P: one fraction-free
        reduction by M when P is longer than deg."""
        k = 1
        if len(P[0]) > self.deg:
            k, _, P = int_prem(P, self._zz_mod(d), d)
        out = _zz_scalars(P, den * k, d)
        out.extend([ZERO] * (self.deg - len(out)))
        return tuple(out)

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
        ints = self._ints(x, y)
        if ints is None:
            return self.from_dense(dense_mul(self.base, x, y))
        d, ((X, xd), (Y, yd)) = ints
        return self._from_ints(_zz_mul(X, Y, 2 * self.deg - 1, d), xd * yd, d)

    def scale(self, x, c: Scalar):
        return tuple(self.base.scale(y, c) for y in x)

    def mul_gen(self, x, key: str):
        """x times the generator of level `key`: this ring's s, or that of a level below."""
        if key != self.key:
            return tuple(self.base.mul_gen(y, key) for y in x)
        return self.from_dense((self.base.zero(), *x))

    def div_gen(self, x, key: str):
        """x over the generator of level `key` (s, a unit, or that of a level below):
        (x - c m) / s for the c that clears x(0), fraction-free on integers,
        with m as M times the conjugate of M(0) and N its rational constant term."""
        if key != self.key:
            return tuple(self.base.div_gen(y, key) for y in x)
        ints = self._ints(x)
        if ints is None:
            b = self.base
            c = b.mul(x[0], b.inv(self.mod[0]))
            return tuple(b.sub(u, b.mul(c, m)) for u, m in zip(x[1:], self.mod[1:])) + (b.neg(c),)
        d, ((X, den),) = ints
        M = _zz_rational_lead(self._zz_mod(d), d, 0)[0]
        N, a, e = M[0][0], X[0][0], X[1][0] if X[1] else 0
        if not N:
            raise DivisionByZero(f"the generator of level {key!r} is a zero divisor")
        h = gcd(N, a, e)
        n = N // h
        Y = _zz_comb(n, X, 1, _zz_scale(M, (a // h, e // h), d))
        return self._from_ints((Y[0][1:], Y[1] and Y[1][1:]), den * n, d)

    def horner(self, rows: list, x):
        """sum_k [rows[k]] x^k for base polynomials rows[k] (low -> high), by
        Horner's rule in x.

        Over the scalars it runs on Z[sqrt d] lists: the rows over one common
        denominator, x over its own.  Each step is one product and one
        fraction-free reduction by M (:func:`int_prem`), whose factor joins
        the running denominator, and the value is converted once.  Over any
        other base it runs element by element.
        """
        ints = self._ints(x, list(chain(*rows))) if rows else None
        if ints is None:
            return _horner_rows(self, rows, x)
        d, ((U, uden), ((A, B), fden)) = ints
        Z, i = [], 0
        for r in rows:
            j = i + len(r)
            Z.append((A[i:j], B and B[i:j]))
            i = j
        M = self._zz_mod(d)
        P, E = Z[-1], 1
        for R in reversed(Z[:-1]):
            P = _zz_add_scaled(_zz_mul(P, U, len(P[0]) + len(U[0]) - 1, d), R, E * uden)
            k = 1
            if len(P[0]) > self.deg:
                k, _, P = int_prem(P, M, d)
            E *= k * uden
            h = gcd(E, *P[0], *(P[1] or ()))
            if h > 1:
                E, P = E // h, ([v // h for v in P[0]], P[1] and [v // h for v in P[1]])
        return self._from_ints(P, E * fden, d)

    def convolve(self, f: list, g: list, n: int) -> list:
        """The first n coefficients of the product of coefficient lists f and g.

        Each element's deg base coefficients are laid out in a zero-padded
        block of width 2*deg - 1, the length of an unreduced product, so one
        convolution over the base yields every output coefficient unreduced;
        each is then reduced once modulo the monic modulus.  Over the scalars
        the convolution and the reductions run on Z[sqrt d] lists over one
        common denominator.  Nothing is inverted, so nothing splits.
        """
        if n <= 0:
            return []
        w = 2 * self.deg - 1
        pad = [self.base.zero()] * (self.deg - 1)

        def rows(xs):
            return [c for x in xs[:n] for c in chain(x, pad)]

        F, G = rows(f), rows(g)
        ints = self._ints(F, G)
        if ints is None:
            flat = self.base.convolve(F, G, n * w)
            return [self.from_dense(flat[k * w : (k + 1) * w]) for k in range(n)]
        d, ((FI, fden), (GI, gden)) = ints
        A, B = _zz_mul(FI, GI, n * w, d)
        return [self._from_ints((A[k * w : (k + 1) * w], B and B[k * w : (k + 1) * w]), fden * gden, d) for k in range(n)]

    def unit_power(self, h: list, alpha) -> list:
        """(h / h_0)^alpha to len(h) terms, for a unit h_0 and a rational alpha.

        Miller's recurrence element by element: f w' = alpha f' w gives, with
        f_0 = 1, k w_k = sum_{j=1..k} ((alpha + 1) j - k) h_j w_{k-j}.  It is
        kept as two running sums, of j h_j w_{k-j} and of h_j w_{k-j}, over
        the nonzero h_j only; at alpha = -1 the first sum has weight 0 and is
        dropped.  Only an h_0 other than 1 is inverted, so only it can split.
        """
        if h and not self.eq(h[0], self.one()):
            a0i = self.inv(h[0])
            h = [self.one()] + [self.mul(a0i, c) for c in h[1:]]
        a1 = QQ(alpha) + 1
        nz = [j for j in range(1, len(h)) if not self.is_zero(h[j])]
        jh = {j: self.mul(self.from_scalar(Scalar(j)), h[j]) for j in nz} if a1 else {}
        w = [self.one()] + [self.zero()] * (len(h) - 1)
        for k in range(1, len(h)):
            s1 = s2 = self.zero()
            for j in nz:
                if j > k:
                    break
                s2 = self.add(s2, self.mul(h[j], w[k - j]))
                if a1:
                    s1 = self.add(s1, self.mul(jh[j], w[k - j]))
            w[k] = self.sub(self.mul(self.from_scalar(Scalar(a1 / k)), s1), s2) if a1 else self.neg(s2)
        return w

    def reversion(self, u: list) -> list:
        """[t_1, ..., t_n] with t_j = [tau^(j-1)] u^j / j, n = len(u): Lagrange
        inversion with each power u^j one :meth:`convolve` truncated to n."""
        n = len(u)
        out = []
        upow = u
        for j in range(1, n + 1):
            out.append(self.mul(upow[j - 1], self.from_scalar(Scalar(QQ(1, j)))))
            if j < n:
                upow = self.convolve(upow, u, n)
        return out

    def compose(self, terms: list, unit: list, lo: int, prec: int) -> list:
        """Coefficients lo .. prec - 1 of sum_e c_e sigma^e unit^e over (e, c_e) in terms.

        Each power of unit is kept to len(unit) terms, which must cover
        prec - e for every e != 0.  The powers of unit (of its inverse for
        e < 0, the only step that can split) come from :func:`_power_table`
        over :meth:`convolve`, and each term is added element by element.
        """
        n = len(unit)
        table = {}
        for sign in (1, -1):
            ks = {sign * e for e, _ in terms if sign * e > 0}
            if ks:
                base = unit if sign > 0 else series_inverse(self, unit)
                for k, zk in _power_table(ks, base, lambda x, y: self.convolve(x, y, n)).items():
                    table[sign * k] = zk
        out = [self.zero()] * (prec - lo)
        for e, c in terms:
            if e == 0:
                if prec > 0:
                    out[-lo] = self.add(out[-lo], c)
                continue
            pw = table[e]
            for s in range(prec - e):
                out[e + s - lo] = self.add(out[e + s - lo], self.mul(c, pw[s]))
        return out

    def taylor_shift(self, f: list, pole: int, c, n: int) -> list:
        """The first n coefficients of g(c + tau) for g = t^(-pole) f, f a
        coefficient list, and c a unit when pole > 0.

        Horner's rule in c + tau element by element gives f(c + tau), and
        Miller's recurrence (:meth:`unit_power`) the factor (c + tau)^(-pole)
        = c^(-pole) (1 + tau / c)^(-pole); only c is inverted.
        """
        if n <= 0:
            return []
        acc = [self.zero()] * n
        for fk in reversed(f):
            new = [self.zero()] * n
            for i, a in enumerate(acc):
                if self.is_zero(a):
                    continue
                new[i] = self.add(new[i], self.mul(a, c))
                if i + 1 < n:
                    new[i + 1] = self.add(new[i + 1], a)
            if not self.is_zero(fk):
                new[0] = self.add(new[0], fk)
            acc = new
        if not pole:
            return acc
        ci = self.inv(c)
        cp = ring_pow(self, ci, pole)
        w = self.unit_power(([self.one(), ci] + [self.zero()] * (n - 2))[:n], -pole)
        return self.convolve(acc, [self.mul(cp, x) for x in w], n)

    def is_zero(self, x) -> bool:
        """Structural zero test (exact for reduced elements; never splits)."""
        b = self.base
        return all(b.is_zero(c) for c in x)

    def decide_zero(self, x) -> bool:
        """Branchwise zero decision; raises SplitEvent on proper zero divisors.

        A nonzero x splits the modulus on its gcd with x when that is not
        constant.  Over the scalars the gcd is :func:`_zz_euclid`'s, after
        GCDHEU's over Q; over any other base it is Euclid's.
        """
        if self.is_zero(x):
            return True
        ints = self._ints(x)
        if ints is None:
            g = quotient_gcd(self.base, self.mod, x)
        else:
            d, ((X, _),) = ints
            G = _heuristic_gcd(self.imod[0], int_trim(_primitive_zz(x))) if d == 1 else None
            r = (G, None) if G else _zz_euclid(self._zz_mod(d), X, d, False)[0]
            g = _zz_scalars(r, r[0][-1], d)
        if len(g) > 1:
            raise self._split(g)
        return False

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
        if self.is_zero(x):
            raise DivisionByZero("inverse of zero in quotient ring")
        ints = self._ints(x)
        if ints is not None:
            d, ((X, den),) = ints
            r, T, e = _zz_euclid(self._zz_mod(d), X, d, True)
            if len(r[0]) > 1:
                raise self._split(_zz_scalars(r, r[0][-1], d))
            # X T = e r(0) modulo M, and x = X / den
            return self._from_ints(([den * v for v in T[0]], T[1] and [den * v for v in T[1]]), e * r[0][0], d)
        g, s = self._half_xgcd(list(self.mod), list(x))
        if len(g) == 1:
            ginv = b.inv(g[0])
            return self.from_dense([b.mul(c, ginv) for c in s])
        if len(g) == len(self.mod):
            raise DivisionByZero("inverse of zero in quotient ring")
        raise self._split(g)

    def _split(self, g: list) -> SplitEvent:
        """SplitEvent(key, g, m / g) for a proper monic factor g of the modulus m."""
        return SplitEvent(self.key, tuple(g), tuple(dense_divexact(self.base, self.mod, g)))

    # -- polynomial helpers over the base ------------------------------------------

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
        "unit_power", "reversion", "compose", "taylor_shift", "scale",
    )

    def __init__(self, base, root, key: str):
        self.base = base
        self.key = key
        self.root = root
        self._root_inv = None
        for name in self._BASE_OPS:
            setattr(self, name, getattr(base, name))

    def gen(self):
        """The adjoined root s, an element of the base."""
        return self.root

    def from_base(self, x):
        return x

    def from_dense(self, cs: list):
        """The class of the base polynomial cs (low -> high): its value at the root, by Horner's rule."""
        b = self.base
        acc = b.zero()
        for c in reversed(cs):
            acc = b.add(b.mul(acc, self.root), c)
        return acc

    def mul_gen(self, x, key: str):
        """x times the generator of level `key`: the root, or the generator of a level below."""
        return self.base.mul(x, self.root) if key == self.key else self.base.mul_gen(x, key)

    def horner(self, rows: list, x):
        """sum_k [rows[k]] x^k for base polynomials rows[k], element by element."""
        return _horner_rows(self, rows, x)

    def div_gen(self, x, key: str):
        """x over the generator of level `key`: the root, inverted once, or the generator of a level below."""
        if key != self.key:
            return self.base.div_gen(x, key)
        if self._root_inv is None:
            self._root_inv = self.base.inv(self.root)
        return self.base.mul(x, self._root_inv)


# ---------------------------------------------------------------------------
# the dense polynomial kernel over any coefficient ring (lists low -> high)
# ---------------------------------------------------------------------------


def _horner_rows(ring, rows: list, x):
    """sum_k [rows[k]] x^k in `ring` by Horner's rule, element by element."""
    acc = ring.zero()
    for r in reversed(rows):
        acc = ring.add(ring.mul(acc, x), ring.from_dense(r))
    return acc


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


def series_inverse(ring, cs: list) -> list:
    """The first len(cs) coefficients of 1 / sum_i cs[i] tau^i, cs[0] a unit.

    cs = a0 (1 + h) has inverse a0^(-1) (1 + h)^(-1), and the ring's
    `unit_power(-1)` gives the last factor; inverting a0 is the only step
    that can split.
    """
    a0i = ring.inv(cs[0])
    w = ring.unit_power([ring.one()] + [ring.mul(a0i, c) for c in cs[1:]], -1)
    return [ring.mul(a0i, c) for c in w]


def _power_table(ks, base, mul) -> dict:
    """{k: base^k} for every k >= 1 in ks, and the powers met on the way.

    base^k is base^(k-1) times base when that power is known, else the
    square of base^(k // 2), times base for odd k: one product per k over a
    run of exponents, about 2 log k for an isolated one.
    """
    table = {1: base}
    for k in sorted(ks):
        steps = [k]
        while steps[-1] not in table and steps[-1] - 1 not in table:
            steps.append(steps[-1] // 2)
        for j in reversed(steps):
            if j in table:
                continue
            if j - 1 in table:
                table[j] = mul(table[j - 1], base)
            else:
                half = table[j // 2]
                sq = mul(half, half)
                table[j] = mul(sq, base) if j % 2 else sq
    return table


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
