import random

import pytest

from annuli._ratio import QQ
from annuli.laurent import LaurentPoly
from annuli.local import _compose_laurent_series
from annuli.rings import SCALARS, LinearQuotient, Quotient, ring_pow
from annuli.scalars import Scalar
from annuli.series import TS, laurent_at_shifted_point


def ts(*coeffs):
    return TS(SCALARS, 0, [Scalar.of(c) for c in coeffs])


def test_inverse():
    f = ts(1, 2, 1, 0, 0)
    g = f.mul(f.inv())
    assert g.coeff(0) == Scalar(1)
    assert g.coeff(1).is_zero() and g.coeff(2).is_zero()


def test_nth_root_monic():
    f = ts(1, 2, 1, 0, 0)  # (1 + t)^2
    r = f.unit_power(QQ(1, 2))
    assert r.coeff(0) == Scalar(1) and r.coeff(1) == Scalar(1) and r.coeff(2).is_zero()
    c = ts(1, 3, 3, 1, 0, 0, 0).unit_power(QQ(1, 3))  # (1 + t)^3
    assert c.coeff(1) == Scalar(1) and c.coeff(2).is_zero()


def test_nth_root_monic_negative_index():
    f = ts(1, 3, 3, 1, 0, 0, 0, 0)  # (1 + t)^3
    r = f.unit_power(QQ(1, -3))  # (1 + t)^-1
    assert r.prec == f.prec
    assert [r.coeff(k) for k in range(f.prec)] == [Scalar((-1) ** k) for k in range(f.prec)]


def test_nth_root_monic_inverse_pair_over_a_quotient_ring():
    R = Quotient(SCALARS, [Scalar(1), Scalar(1), Scalar(1)], "q")  # s^2 + s + 1
    rnd = random.Random(3)

    def elt():
        a, b = (Scalar(QQ(rnd.randint(-9, 9), rnd.randint(1, 4))) for _ in range(2))
        return R.add(R.from_scalar(a), R.mul(R.from_scalar(b), R.gen()))

    f = TS(R, 0, [R.one()] + [elt() for _ in range(9)])
    for k in (2, 3):
        one = f.unit_power(QQ(1, k)).mul(f.unit_power(QQ(1, -k)))
        assert one.prec == f.prec
        assert R.eq(one.coeff(0), R.one())
        assert all(R.is_zero(one.coeff(e)) for e in range(1, f.prec))
        back = f.unit_power(QQ(1, k)).pow_int(k)
        assert all(R.eq(back.coeff(e), f.coeff(e)) for e in range(f.prec))


def test_reversion_of_t_plus_t2():
    f = TS(SCALARS, 1, [Scalar(1), Scalar(1), Scalar(0), Scalar(0), Scalar(0)])
    g = f.reversion()
    # t = s - s^2 + 2 s^3 - 5 s^4 + ...
    assert [g.coeff(i) for i in (1, 2, 3, 4)] == [Scalar(1), Scalar(-1), Scalar(2), Scalar(-5)]


def test_laurent_at_shifted_point_with_pole():
    phi = LaurentPoly({2: 1, 0: -3, -1: 2})
    s = laurent_at_shifted_point(SCALARS, phi, Scalar(1), 6)
    # phi(1 + tau) = 3 tau^2 - 2 tau^3 + 2 tau^4 - ...
    assert s.coeff(0).is_zero() and s.coeff(1).is_zero()
    assert s.coeff(2) == Scalar(3) and s.coeff(3) == Scalar(-2) and s.coeff(4) == Scalar(2)


def test_laurent_at_shifted_point_positive_bot():
    phi = LaurentPoly({3: 1, 2: -1})  # t^2 (t - 1)
    s = laurent_at_shifted_point(SCALARS, phi, Scalar("2/3"), 5)
    assert s.coeff(0) == Scalar("-4/27")
    assert s.coeff(1).is_zero()  # critical point of t^3 - t^2
    assert s.coeff(2) == Scalar(1)


def test_compose_laurent_negative_powers():
    inner = TS(SCALARS, 1, [Scalar(1), Scalar(1)] + [Scalar(0)] * 6)  # t + t^2
    f = LaurentPoly({-1: 1})  # 1/t
    out = _compose_laurent_series(f, SCALARS, inner, 7)  # to O(t^6)
    # 1/(t + t^2) = t^-1 - 1 + t - t^2 + ...
    assert out.coeff(-1) == Scalar(1) and out.coeff(0) == Scalar(-1) and out.coeff(1) == Scalar(1)


def _horner_compose(f, inner, window):
    """f(inner) by Horner's rule, each step cut to `window` terms."""
    r = f.ring
    fn = f.normalized()
    top = fn.prec - 1
    acc = TS(r, 0, [fn.coeff(top)] + [r.zero()] * (window - 1))
    for e in range(top - 1, fn.val - 1, -1):
        acc = acc.mul(inner).truncate(window)
        acc = acc.add(TS(r, 0, [fn.coeff(e)] + [r.zero()] * (window - 1)))
    if fn.val > 0:
        acc = acc.mul(inner.pow_int(fn.val)).truncate(window)
    return acc


def test_compose_truncated_series_keeps_its_precision():
    """A truncated f is known only below f.prec: f(inner) may claim no more."""
    R = Quotient(SCALARS, [Scalar(1), Scalar(1), Scalar(1)], "q")  # s^2 + s + 1
    rnd = random.Random(7)

    def elt():
        a, b = (Scalar(QQ(rnd.randint(-9, 9) or 1, rnd.randint(1, 4))) for _ in range(2))
        return R.add(R.from_scalar(a), R.mul(R.from_scalar(b), R.gen()))

    window = 8
    for val in (1, 2, 3):
        f = TS(R, val, [elt() for _ in range(window - val)])  # dense, to O(tau^8)
        inner = TS(R, 1, [elt() for _ in range(window)])  # to O(sigma^9)
        out = _compose_laurent_series(f, R, inner, window)
        ref = _horner_compose(f, inner, window)
        assert out.prec <= f.prec and out.prec == ref.prec
        assert all(R.eq(out.coeff(e), ref.coeff(e)) for e in range(min(out.val, ref.val), out.prec))


def _taylor(f, c, window):
    """f^(k)(c)/k! for k < window, from repeated derivatives of f."""
    out, fact = [], 1
    for k in range(window):
        if k:
            f, fact = f.derivative(), fact * k
        out.append(f.eval(c) * Scalar(QQ(1, fact)))
    return out


def _random_laurent(rnd, pole):
    """A Laurent polynomial over Q with a pole of order `pole` at t = 0."""
    coeffs = {e: Scalar(QQ(rnd.randint(-5, 5), rnd.randint(1, 3))) for e in range(-pole, rnd.randint(0, 4) + 1)}
    coeffs[-pole] = Scalar(QQ(rnd.choice((-3, -1, 1, 2)), rnd.randint(1, 3)))
    return LaurentPoly({e: c for e, c in coeffs.items() if not c.is_zero()})


def test_shifted_series_are_the_taylor_coefficients():
    """f(c + tau) to O(tau^w) is sum f^(k)(c)/k! tau^k, at rational and Q(sqrt 2) centers."""
    rnd = random.Random(11)
    for i in range(40):
        f = _random_laurent(rnd, i % 7)
        c = Scalar(QQ(rnd.choice((-3, -1, 1, 2, 5)), rnd.randint(1, 3)), QQ(rnd.randint(1, 2)) if i % 2 else 0, 2)
        window = rnd.randint(1, 12)
        got = laurent_at_shifted_point(SCALARS, f, c, window)
        assert (got.val, got.prec) == (0, window)
        assert got.cs == _taylor(f, c, window)


def test_shifted_series_over_a_quotient_ring_match_the_series_inverse():
    """At the root s of s^2 + s + 1, (s + tau)^(-pole) from Miller's recurrence
    equals the series inverse of s + tau raised to the pole order."""
    R = Quotient(SCALARS, [Scalar(1), Scalar(1), Scalar(1)], "q")
    c = R.gen()
    rnd = random.Random(12)
    for i in range(24):
        f = _random_laurent(rnd, 1 + i % 6)
        pole = -f.bot()
        window = rnd.randint(2, 12)
        numer = laurent_at_shifted_point(R, f.shift(pole), c, window)
        base = TS(R, 0, [c, R.one()] + [R.zero()] * max(0, window - 2))
        want = numer.mul(base.inv().truncate(window).pow_int(pole)).truncate(window)
        assert laurent_at_shifted_point(R, f, c, window).to_repr() == want.to_repr()


def _ring_and_elements(name):
    """(ring, a random element maker) for one of the four kinds of coefficient ring."""
    rnd = random.Random(name)

    def rational():
        return Scalar(QQ(rnd.randint(-9, 9), rnd.randint(1, 4)))

    if name == "Q":
        return SCALARS, rational
    if name == "Q(sqrt 2)":
        return SCALARS, lambda: Scalar(QQ(rnd.randint(-9, 9), rnd.randint(1, 4)), QQ(rnd.randint(-3, 3), rnd.randint(1, 3)), 2)
    R = Quotient(SCALARS, [Scalar(1), Scalar(1), Scalar(1)], "q")  # s^2 + s + 1

    def elt():
        return R.add(R.from_scalar(rational()), R.mul(R.from_scalar(rational()), R.gen()))

    if name == "Quotient":
        return R, elt
    return LinearQuotient(R, elt(), "pt"), elt


RING_KINDS = ["Q", "Q(sqrt 2)", "Quotient", "LinearQuotient"]


def _unit(R, elt):
    while True:
        x = elt()
        if not R.is_zero(x):
            return x


def _same(R, f, g):
    return (f.val, f.prec) == (g.val, g.prec) and all(R.eq(a, b) for a, b in zip(f.cs, g.cs))


@pytest.mark.parametrize("kind", RING_KINDS)
def test_unit_power_identities(kind):
    R, elt = _ring_and_elements(kind)
    for length in (1, 2, 5, 9):
        f = TS(R, -2, [_unit(R, elt)] + [elt() for _ in range(length - 1)])
        one = f.mul(f.inv())
        assert (one.val, one.prec) == (0, length)
        assert R.eq(one.cs[0], R.one()) and all(R.is_zero(c) for c in one.cs[1:])
        u = TS(R, 0, [R.one()] + [elt() for _ in range(length - 1)])  # 1 + h
        for n in (2, 3, -2):
            assert _same(R, u.unit_power(QQ(1, n)).pow_int(n), u)
        assert _same(R, u.unit_power(QQ(2, 3)).pow_int(3), u.pow_int(2))
        for k in (1, 2, 3):
            assert _same(R, u.unit_power(-k), u.unit_power(-1).pow_int(k))


@pytest.mark.parametrize("kind", RING_KINDS)
def test_ring_pow_with_a_negative_exponent_inverts_first(kind):
    R, elt = _ring_and_elements(kind)
    for _ in range(6):
        x = _unit(R, elt)
        assert R.eq(ring_pow(R, x, 0), R.one())
        for k in (1, 2, 5):
            assert R.eq(ring_pow(R, x, -k), ring_pow(R, R.inv(x), k))
            assert R.eq(R.mul(ring_pow(R, x, -k), ring_pow(R, x, k)), R.one())
