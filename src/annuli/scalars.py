"""Exact scalars in Q or a quadratic field Q(sqrt(d)).

A :class:`Scalar` is ``a + b*sqrt(d)`` with rational ``a, b`` and a squarefree
integer tag ``d``.  The degenerate tag ``d = 1`` is plain Q and forces
``b = 0``.  Scalars with tag 1 coerce freely into any other field; mixing two
distinct non-trivial tags raises :class:`FieldMismatch`.

Every catalog curve needs at most one of d = 2, 5, -3, which is why the
coefficient layer stops at quadratic extensions.
"""

from __future__ import annotations

from math import isqrt

from ._ratio import QQ, is_squarefree, rat, rat_str


class FieldMismatch(ValueError):
    """Arithmetic attempted between scalars of incompatible quadratic fields."""


class DivisionByZero(ZeroDivisionError):
    """Exact inverse of zero requested."""


_ZERO = QQ(0)


_SQFREE_SEEN: set = {1}


class Scalar:
    """Immutable element a + b*sqrt(d) of Q(sqrt(d))."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d: int = 1):
        a = a if type(a) is type(_ZERO) else rat(a)
        b = b if type(b) is type(_ZERO) else rat(b)
        if b == 0:
            d = 1
        else:
            if d == 1:
                raise ValueError("d=1 scalar cannot carry a surd part")
            if d not in _SQFREE_SEEN:
                if not is_squarefree(d):
                    raise ValueError(f"field tag {d} is not squarefree")
                _SQFREE_SEEN.add(d)
        self.a = a
        self.b = b
        self.d = d

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def of(x, d: int = 1) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(rat(x), 0, 1)

    @staticmethod
    def sqrt_of(d: int) -> "Scalar":
        """The surd sqrt(d) itself."""
        return Scalar(0, 1, d)

    # -- field plumbing --------------------------------------------------------

    def _join(self, other: "Scalar") -> int:
        da, db = self.d, other.d
        if da == 1:
            return db
        if db == 1 or da == db:
            return da
        raise FieldMismatch(f"cannot mix sqrt({da}) with sqrt({db})")

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if self.d == 1 and other.d == 1:
            return rational_scalar(self.a + other.a)
        d = self._join(other)
        return Scalar(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if self.d == 1 and other.d == 1:
            return rational_scalar(self.a * other.a)
        d = self._join(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return Scalar(a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2, d)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        # (a + b sqrt d)(a - b sqrt d) = a^2 - d b^2, nonzero since d squarefree
        n = self.a * self.a - self.b * self.b * self.d
        return Scalar(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        return self * _coerce(other).inv()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = Scalar(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, str)) or type(other) is type(_ZERO):
            other = _coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.a != other.a or self.b != other.b:
            return False
        return self.b == 0 or self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.b == 0:
            return rat_str(self.a)
        surd = f"sqrt({self.d})"
        if self.a == 0:
            return f"{rat_str(self.b)}*{surd}"
        bs = rat_str(self.b)
        sign = "+" if not bs.startswith("-") else ""
        return f"{rat_str(self.a)}{sign}{bs}*{surd}"


def _coerce(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    return Scalar(rat(x), 0, 1)


def rational_scalar(a) -> Scalar:
    """The scalar a + 0*sqrt(1) for a rational `a` of the backend type."""
    s = object.__new__(Scalar)
    s.a = a
    s.b = _ZERO
    s.d = 1
    return s


ZERO = Scalar(0)
ONE = Scalar(1)


def nth_root_exact(x: Scalar, n: int) -> Scalar | None:
    """Exact rational n-th root of a rational scalar, or None."""
    if not x.is_rational() or x.is_zero():
        return None
    num, den = x.a.numerator, x.a.denominator
    sign = 1
    if num < 0:
        if n % 2 == 0:
            return None
        sign, num = -1, -num
    rn = _int_nth_root(int(num), n)
    if rn is None:
        return None
    rd = _int_nth_root(int(den), n)
    if rd is None:
        return None
    return Scalar(QQ(sign * rn, rd))


def _int_nth_root(v: int, n: int) -> int | None:
    """The exact integer n-th root of v >= 0, or None when v is no n-th power."""
    if v < 0:
        raise ValueError("integer root of a negative number")
    if n == 1 or v < 2:
        return v
    if n == 2:
        r = isqrt(v)
    else:
        # integer Newton iteration from an upper bound; decreases to floor(v^(1/n))
        r = 1 << -(-v.bit_length() // n)
        while True:
            s = ((n - 1) * r + v // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r if r**n == v else None
