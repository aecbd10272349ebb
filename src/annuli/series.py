"""Truncated Laurent series over an arbitrary coefficient ring.

The Puiseux machinery only ever needs a finite exponent window, so a series
is a value ``sum cs[i] * sigma^(val+i)`` known up to O(sigma^prec) with
``prec = val + len(cs)``.  All coefficient decisions go through the carrier
ring, so dynamic-evaluation splits propagate out of every operation.

The costly operations are methods of the coefficient ring, called on
coefficient lists: the product (`convolve`, from :meth:`TS.mul`), the power
of a unit series 1 + h (`unit_power`, Miller's recurrence, from
:meth:`TS.unit_power`; the series inverse is its exponent -1), Lagrange
reversion (`reversion`, from :meth:`TS.reversion`), the composition
f(inner) (`compose`, from ``local._compose_laurent_series``) and the Taylor
shift f(c + tau) of a Laurent polynomial f (`taylor_shift`, from
:func:`laurent_at_shifted_point`).  Over Q and Q(sqrt d)
(:class:`rings.ScalarField`, and a :class:`rings.LinearQuotient` over it,
which delegates) they run on integers: each input list is cleared
once to integers, pairs over Z[sqrt d], over one common denominator, and
each output coefficient is one rational.  A :class:`rings.Quotient` runs
them element by element on its own arithmetic.
"""

from __future__ import annotations

from ._ratio import QQ
from .laurent import LaurentPoly, to_dense
from .rings import series_inverse


class TruncationCap(ArithmeticError):
    """A series window was exhausted before the required data resolved."""


class TS:
    __slots__ = ("ring", "val", "cs")

    def __init__(self, ring, val: int, cs: list):
        self.ring = ring
        self.val = val
        self.cs = list(cs)

    # -- basics -----------------------------------------------------------------

    @property
    def prec(self) -> int:
        return self.val + len(self.cs)

    @staticmethod
    def zero(ring, prec: int) -> "TS":
        return TS(ring, prec, [])

    def lift(self, ring) -> "TS":
        """The same series over `ring`, an extension of this series' ring."""
        if ring is self.ring:
            return self
        return TS(ring, self.val, [ring.from_base(c) for c in self.cs])

    def coeff(self, e: int):
        if e < self.val or e >= self.prec:
            if e >= self.prec:
                raise TruncationCap(f"coefficient at {e} beyond precision {self.prec}")
            return self.ring.zero()
        return self.cs[e - self.val]

    def normalized(self, decide: bool = False) -> "TS":
        """Strip leading zeros; decide=True forces branchwise decisions (splits)."""
        r = self.ring
        test = r.decide_zero if decide else r.is_zero
        i = 0
        while i < len(self.cs) and test(self.cs[i]):
            i += 1
        return TS(r, self.val + i, self.cs[i:])

    def order(self) -> int:
        """Exact order of the series; TruncationCap if it looks like zero."""
        n = self.normalized(decide=True)
        if not n.cs:
            raise TruncationCap("series is zero to working precision")
        return n.val

    def truncate(self, prec: int) -> "TS":
        if prec >= self.prec:
            return self
        keep = max(0, prec - self.val)
        return TS(self.ring, self.val if keep else prec, self.cs[:keep])

    def shift(self, k: int) -> "TS":
        return TS(self.ring, self.val + k, self.cs)

    # -- ring operations ----------------------------------------------------------

    def mul(self, other: "TS") -> "TS":
        r = self.ring
        prec = min(self.prec + other.val, other.prec + self.val)
        if not self.cs or not other.cs:
            return TS(r, prec, [])
        val = self.val + other.val
        return TS(r, val, r.convolve(self.cs, other.cs, prec - val))

    def inv(self) -> "TS":
        """Inverse of a unit-leading series (splits if leading is a zero divisor),
        from the ring's unit power (`rings.series_inverse`)."""
        f = self.normalized()
        if not f.cs:
            raise ZeroDivisionError("inverse of zero series")
        return TS(self.ring, -f.val, series_inverse(self.ring, f.cs))

    def unit_power(self, alpha) -> "TS":
        """(1 + h)^alpha for self = c (1 + h) of val 0, c a unit, and a rational alpha.

        Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), the ring's
        `unit_power`: on integers over Q and Q(sqrt d), element by element
        over a quotient ring.  Only a c other than 1 is inverted, so only it
        can split.
        """
        return TS(self.ring, 0, self.ring.unit_power(self.cs, QQ(alpha)))

    def reversion(self) -> "TS":
        """tau(sigma) with tau = sigma u(tau), for u = self of val 0 with a unit
        constant term: the compositional inverse of tau / u(tau), to len(u)
        terms past its valuation 1.

        Lagrange inversion, t_j = (1/j) [tau^(j-1)] u^j, is the ring's
        `reversion`.  The inverse of a series f of val 1 is
        `f.shift(-1).inv().reversion()`.
        """
        u = self.normalized()
        if u.val != 0:
            raise ValueError("reversion needs a Lagrange series of valuation exactly 0")
        return TS(self.ring, 1, self.ring.reversion(u.cs))

    def to_repr(self) -> str:
        r = self.ring
        parts = []
        for i, c in enumerate(self.cs):
            if r.is_zero(c):
                continue
            parts.append(f"({r.to_repr(c)})*s^{self.val + i}")
        parts.append(f"O(s^{self.prec})")
        return " + ".join(parts)


def laurent_at_shifted_point(ring, f: LaurentPoly, center, window: int) -> TS:
    """Series of f(c + tau) in tau, where c is a unit of `ring`, to O(tau^window):
    the ring's `taylor_shift` of f = t^(-a) N, a the order of the pole at t = 0."""
    pole = max(0, -f.bot()) if not f.is_zero() else 0
    num = [ring.from_scalar(c) for c in to_dense(f.shift(pole))]
    return TS(ring, 0, ring.taylor_shift(num, pole, center, window))
