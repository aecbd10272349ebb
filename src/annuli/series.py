"""Truncated Laurent series over an arbitrary coefficient ring.

The Puiseux machinery only ever needs a finite exponent window, so a series
is a value ``sum cs[i] * sigma^(val+i)`` known up to O(sigma^prec) with
``prec = val + len(cs)``.  All coefficient decisions go through the carrier
ring, so dynamic-evaluation splits propagate out of every operation.
"""

from __future__ import annotations

from ._ratio import QQ
from .laurent import LaurentPoly
from .rings import ring_pow
from .scalars import Scalar


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

    @staticmethod
    def one_term(ring, c, e: int, prec: int) -> "TS":
        if prec <= e:
            return TS(ring, prec, [])
        cs = [c] + [ring.zero()] * (prec - e - 1)
        return TS(ring, e, cs)

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

    def add(self, other: "TS") -> "TS":
        r = self.ring
        prec = min(self.prec, other.prec)
        val = min(self.val, other.val, prec)
        cs = [r.zero()] * (prec - val)
        for src in (self, other):
            for i, c in enumerate(src.cs):
                e = src.val + i
                if e < prec:
                    cs[e - val] = r.add(cs[e - val], c)
        return TS(r, val, cs)

    def neg(self) -> "TS":
        r = self.ring
        return TS(r, self.val, [r.neg(c) for c in self.cs])

    def sub(self, other: "TS") -> "TS":
        return self.add(other.neg())

    def mul(self, other: "TS") -> "TS":
        r = self.ring
        prec = min(self.prec + other.val, other.prec + self.val)
        if not self.cs or not other.cs:
            return TS(r, prec, [])
        val = self.val + other.val
        return TS(r, val, r.convolve(self.cs, other.cs, prec - val))

    def scale(self, c) -> "TS":
        r = self.ring
        return TS(r, self.val, [r.mul(c, x) for x in self.cs])

    def inv(self) -> "TS":
        """Inverse of a unit-leading series (splits if leading is a zero divisor).

        f = a0 tau^v (1 + h) has inverse a0^(-1) tau^(-v) (1 + h)^(-1), and
        `unit_power(-1)` gives the last factor.
        """
        f = self.normalized()
        r = self.ring
        if not f.cs:
            raise ZeroDivisionError("inverse of zero series")
        a0i = r.inv(f.cs[0])
        unit = TS(r, 0, [r.one()] + [r.mul(a0i, c) for c in f.cs[1:]])
        return unit.unit_power(-1).shift(-f.val).scale(a0i)

    def pow_int(self, k: int) -> "TS":
        """self^k by square and multiply (a negative k inverts first): the
        independent reference that `unit_power` is tested against."""
        if k < 0:
            return self.inv().pow_int(-k)
        r = self.ring
        if k == 0:
            width = len(self.cs) or 1
            return TS(r, 0, [r.one()] + [r.zero()] * (width - 1))
        out = None
        sq = self
        while True:
            if k & 1:
                out = sq if out is None else out.mul(sq)
            k >>= 1
            if not k:
                return out
            sq = sq.mul(sq)

    def unit_power(self, alpha) -> "TS":
        """(1 + h)^alpha for a series 1 + h of val 0 and a rational alpha.

        J. C. P. Miller's recurrence for a power w = f^alpha of a unit series
        (Knuth, TAOCP vol. 2, 4.7): f w' = alpha f' w gives, with f_0 = 1,
        k w_k = sum_{j=1..k} ((alpha + 1) j - k) h_j w_{k-j}.  It is kept as
        two running sums, of j h_j w_{k-j} and of h_j w_{k-j}, over the
        nonzero h_j only; at alpha = -1 the first sum has weight 0 and is
        dropped.  Nothing is inverted, so nothing splits.
        """
        r = self.ring
        h = self.cs
        a1 = QQ(alpha) + 1
        nz = [j for j in range(1, len(h)) if not r.is_zero(h[j])]
        jh = {j: r.mul(r.from_scalar(Scalar(j)), h[j]) for j in nz} if a1 else {}
        w = [r.one()] + [r.zero()] * (len(h) - 1)
        for k in range(1, len(h)):
            s1 = s2 = r.zero()
            for j in nz:
                if j > k:
                    break
                s2 = r.add(s2, r.mul(h[j], w[k - j]))
                if a1:
                    s1 = r.add(s1, r.mul(jh[j], w[k - j]))
            w[k] = r.sub(r.mul(r.from_scalar(Scalar(a1 / k)), s1), s2) if a1 else r.neg(s2)
        return TS(r, 0, w)

    def reversion(self) -> "TS":
        """Compositional inverse of a series with val 1 and unit linear coefficient.

        Lagrange inversion: t_j = (1/j) [tau^(j-1)] (tau / f)^j.
        """
        r = self.ring
        f = self.normalized()
        if f.val != 1:
            raise ValueError("reversion needs valuation exactly 1")
        n = len(f.cs)
        u = f.shift(-1).inv().truncate(n)  # tau/f(tau), val 0, unit
        out = [r.zero()] * n  # out[j-1] = t_j
        upow = u
        for j in range(1, n + 1):
            cj = upow.coeff(j - 1) if j - 1 < upow.prec else None
            if cj is None:
                break
            out[j - 1] = r.mul(cj, r.from_scalar(Scalar(QQ(1, j))))
            if j < n:
                upow = upow.mul(u).truncate(n)
        return TS(r, 1, out)

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
    """Series of f(c + tau) in tau, where c is a unit of `ring`, to O(tau^window).

    Uses exact Taylor shift for the numerator and Miller's recurrence
    (`TS.unit_power`) for the t^-a denominator part.
    """
    pole = max(0, -f.bot()) if not f.is_zero() else 0
    num = f.shift(pole)
    # numerator Taylor shift: N(c + tau) = sum N^(k)(c)/k! tau^k
    deg = num.top() if not num.is_zero() else 0
    width = window
    # Horner in (c + tau): iterate coefficients high -> low
    acc = [ring.zero()] * width  # acc(tau) polynomial, low->high
    for e in range(deg, -1, -1):
        # acc = acc * (c + tau) + num[e]
        new = [ring.zero()] * width
        for i, a in enumerate(acc):
            if ring.is_zero(a):
                continue
            new[i] = ring.add(new[i], ring.mul(a, center))
            if i + 1 < width:
                new[i + 1] = ring.add(new[i + 1], a)
        ce = num[e]
        if not ce.is_zero():
            new[0] = ring.add(new[0], ring.from_scalar(ce))
        acc = new
    numer = TS(ring, 0, acc)
    if pole == 0:
        return numer
    # (c + tau)^(-pole) = c^(-pole) (1 + tau/c)^(-pole); only c is inverted
    ci = ring.inv(center)
    unit = TS(ring, 0, [ring.one(), ci] + [ring.zero()] * (width - 2))
    return numer.mul(unit.unit_power(-pole).scale(ring_pow(ring, ci, pole)))
