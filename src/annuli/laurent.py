"""Sparse Laurent polynomials over Q(sqrt(d)) and their gcd / resultant.

A :class:`LaurentPoly` maps integer exponents to nonzero :class:`Scalar`
coefficients; the zero polynomial is the empty map.  Plain polynomials
(nonnegative support) reuse the same type.  :func:`to_dense` and
:func:`from_dense` convert to and from coefficient lists.  Powers and exact
division run on integers, on Z[sqrt d] lists over one common denominator
with the list kernel of :mod:`annuli.rings`; the resultant's remainders run
in its one dense kernel over :data:`~annuli.rings.SCALARS`.  The gcd is the
one that also decides zero divisors in Q(sqrt d)[s]/(m): over Q the
heuristic integer gcd (GCDHEU) of :mod:`annuli.rings`, and otherwise, or
when it gives up, the primitive remainder sequence over Z[sqrt d] there,
with no Euclid on rationals.
"""

from __future__ import annotations

from itertools import chain
from math import gcd

from ._ratio import QQ, int_gcd
# NotDivisible is re-exported: LaurentPoly.divexact raises it
from .rings import NotDivisible, SCALARS, _cleared, _field_tag, _heuristic_gcd, _pmul, _primitive_zz, _zadd, _zmul, _zneg, _zz_gcd, _zz_mul, _zz_scalars, dense_divmod, int_divexact  # noqa: F401
from .scalars import Scalar, ZERO, ONE


class EvalAtPole(ZeroDivisionError):
    """Evaluation at t = 0 of a Laurent polynomial with negative exponents."""


class ConstantComponent(ValueError):
    """A curve component is constant where a genuine exponent is required."""


class LaurentPoly:
    """Finite map exponent -> nonzero Scalar, immutable in spirit."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, Scalar] | None = None):
        cc = {}
        if coeffs:
            for e, c in coeffs.items():
                c = c if isinstance(c, Scalar) else Scalar.of(c)
                if not c.is_zero():
                    cc[int(e)] = c
        self.coeffs = cc

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({0: Scalar.of(c)})

    @staticmethod
    def term(c, e: int) -> "LaurentPoly":
        return LaurentPoly({e: Scalar.of(c)})

    @staticmethod
    def t(e: int = 1) -> "LaurentPoly":
        return LaurentPoly({e: ONE})

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return not self.coeffs or set(self.coeffs) == {0}

    def top(self) -> int:
        if not self.coeffs:
            raise ConstantComponent("zero polynomial has no top exponent")
        return max(self.coeffs)

    def bot(self) -> int:
        if not self.coeffs:
            raise ConstantComponent("zero polynomial has no bottom exponent")
        return min(self.coeffs)

    def lc(self) -> Scalar:
        return self.coeffs[self.top()]

    def tc(self) -> Scalar:
        """Trailing (bottom) coefficient."""
        return self.coeffs[self.bot()]

    def __getitem__(self, e: int) -> Scalar:
        return self.coeffs.get(e, ZERO)

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def exponent_gcd(self) -> int:
        g = 0
        for e in self.coeffs:
            g = int_gcd(g, abs(e))
        return int(g)

    def field_tag(self) -> int:
        for c in self.coeffs.values():
            if c.d != 1:
                return c.d
        return 1

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if isinstance(other, (int, Scalar)):
            other = LaurentPoly.const(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = out
        return r

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = {e: -c for e, c in self.coeffs.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, (int, Scalar)):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Scalar)):
            c = Scalar.of(other)
            if c.is_zero():
                return LaurentPoly()
            r = LaurentPoly.__new__(LaurentPoly)
            r.coeffs = {e: v * c for e, v in self.coeffs.items()}
            return r
        out: dict[int, Scalar] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                p = c1 * c2
                s = out.get(e)
                s = p if s is None else s + p
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = out
        return r

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        """self^k for k >= 0, on integers: the coefficients are cleared to a
        Z[sqrt d] list over one denominator once, powered by squaring with
        integer products (:func:`annuli.rings._zz_mul`), and converted once."""
        if k < 0:
            raise ValueError("negative power of a Laurent polynomial")
        if k == 0 or not self.coeffs:
            return LaurentPoly.const(1) if k == 0 else LaurentPoly()
        b = self.bot()
        cs = to_dense(self.shift(-b))
        d = _field_tag(cs)
        X, den = _cleared(cs, d)
        out, n = None, k
        while n:
            if n & 1:
                out = X if out is None else _zz_mul(out, X, len(out[0]) + len(X[0]) - 1, d)
            n >>= 1
            if n:
                X = _zz_mul(X, X, 2 * len(X[0]) - 1, d)
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = {e + b * k: c for e, c in enumerate(_zz_scalars(out, den**k, d)) if not c.is_zero()}
        return r

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return r

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly({e - 1: c * Scalar.of(e) for e, c in self.coeffs.items() if e != 0})

    def compose_inv_t(self) -> "LaurentPoly":
        """The substitution t -> 1/t (exponent negation)."""
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = {-e: c for e, c in self.coeffs.items()}
        return r

    def rescale_t(self, lam: Scalar) -> "LaurentPoly":
        """The substitution t -> lam * t."""
        return LaurentPoly({e: c * lam**e for e, c in self.coeffs.items()})

    def eval(self, x: Scalar) -> Scalar:
        x = Scalar.of(x)
        if x.is_zero():
            if self.coeffs and self.bot() < 0:
                raise EvalAtPole("evaluation at 0 with negative exponents present")
            return self[0]
        out = ZERO
        xinv = None
        for e, c in self.coeffs.items():
            if e >= 0:
                out = out + c * x**e
            else:
                if xinv is None:
                    xinv = x.inv()
                out = out + c * xinv ** (-e)
        return out

    # -- exact division ----------------------------------------------------------

    def divexact(self, g: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / g in the Laurent ring; NotDivisible otherwise.

        It runs on integers.  Both are cleared to Z[sqrt d] lists F and G;
        over Q(sqrt d) F and G are first multiplied by the conjugate of G, so
        that G becomes its norm, a list in Z[t].  G made primitive divides F
        in Z[t] exactly when g divides self over the field (Gauss's lemma),
        so one :func:`annuli.rings.int_divexact` per part gives the quotient
        or raises.
        """
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly()
        sf, sg = self.bot(), g.bot()
        a, b = to_dense(self.shift(-sf)), to_dense(g.shift(-sg))
        d = _field_tag(chain(a, b))
        (F, fden), ((G, GB), gden) = _cleared(a, d), _cleared(b, d)
        if GB and any(GB):
            F = _pmul(F, (G, _zneg(GB)), d)
            G = _zadd(_zmul(G, G), [-d * v for v in _zmul(GB, GB)])
        h = gcd(*G)
        G = [v // h for v in G]
        Q = [gden * v for v in int_divexact(F[0], G)], F[1] and [gden * v for v in int_divexact(F[1], G)]
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = {e + sf - sg: c for e, c in enumerate(_zz_scalars(Q, fden * h, d)) if not c.is_zero()}
        return r

    # -- misc ---------------------------------------------------------------------

    def monic(self) -> "LaurentPoly":
        if self.is_zero():
            return self
        return self * self.lc().inv()

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            cs = repr(c)
            if "+" in cs[1:] or "-" in cs[1:] or "*" in cs:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            else:
                te = "t" if e == 1 else f"t^{e}"
                parts.append(te if cs == "1" else f"-{te}" if cs == "-1" else f"{cs}*{te}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# plain polynomials as coefficient lists (low -> high)
# ---------------------------------------------------------------------------


def to_dense(f: LaurentPoly) -> list[Scalar]:
    """The coefficient list of a plain polynomial; [] for zero."""
    if f.is_zero():
        return []
    if f.bot() < 0:
        raise ValueError("dense form requires nonnegative exponents")
    out = [ZERO] * (f.top() + 1)
    for e, c in f.coeffs.items():
        out[e] = c
    return out


def from_dense(cs: list[Scalar]) -> LaurentPoly:
    return LaurentPoly({e: c for e, c in enumerate(cs)})


def poly_gcd(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Monic gcd of plain polynomials; gcd(f, 0) = monic(f).

    Over Q (field tag 1) the heuristic integer gcd answers; the primitive
    remainder sequence over Z or Z[sqrt d] of :func:`annuli.rings._zz_gcd`
    runs over Q(sqrt d) and when the heuristic gives up.
    """
    a, b = to_dense(f), to_dense(g)
    if not a or not b:
        return (f + g).monic()
    d = _field_tag(chain(a, b))
    if d == 1:
        h = _heuristic_gcd(_primitive_zz(a), _primitive_zz(b))
        if h is not None:
            return LaurentPoly({e: Scalar(QQ(c, h[-1])) for e, c in enumerate(h)})
    return from_dense(_zz_gcd(a, b, d))


def squarefree_part(f: LaurentPoly) -> LaurentPoly:
    """f / gcd(f, f') made monic; input a nonzero plain polynomial."""
    if f.is_zero():
        raise ZeroDivisionError("squarefree part of zero")
    g = poly_gcd(f, f.derivative())
    return f.divexact(g).monic()


def resultant(f: LaurentPoly, g: LaurentPoly) -> Scalar:
    """Res_t(f, g) over the scalar field via a subresultant-style PRS.

    Fraction-free in spirit: the remainder sequence is the plain Euclidean one
    over the field (scalars are already exact rationals), with the classical
    degree/leading-coefficient bookkeeping for the resultant value.
    """
    a, b = to_dense(f), to_dense(g)
    if not a or not b:
        return ZERO
    res = ONE
    sign_flips = 0
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            res = res * b[0] ** da
            break
        _, r = dense_divmod(SCALARS, a, b)
        if not r:
            return ZERO
        dr = len(r) - 1
        res = res * b[-1] ** (da - dr)
        sign_flips += da * db
        a, b = b, r
    if sign_flips % 2:
        res = -res
    return res


def make_poly(*coeffs) -> LaurentPoly:
    """Convenience: make_poly(c0, c1, ...) = c0 + c1 t + ..."""
    return LaurentPoly({i: Scalar.of(c) for i, c in enumerate(coeffs)})
