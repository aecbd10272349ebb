import random

from annuli._ratio import QQ
from annuli.laurent import LaurentPoly
from annuli.local import _compose_laurent_series
from annuli.rings import SCALARS, Quotient
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
    r = f.nth_root_monic(2)
    assert r.coeff(0) == Scalar(1) and r.coeff(1) == Scalar(1) and r.coeff(2).is_zero()
    c = ts(1, 3, 3, 1, 0, 0, 0).nth_root_monic(3)  # (1 + t)^3
    assert c.coeff(1) == Scalar(1) and c.coeff(2).is_zero()


def test_nth_root_monic_negative_index():
    f = ts(1, 3, 3, 1, 0, 0, 0, 0)  # (1 + t)^3
    r = f.nth_root_monic(-3)  # (1 + t)^-1
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
        one = f.nth_root_monic(k).mul(f.nth_root_monic(-k))
        assert one.prec == f.prec
        assert R.eq(one.coeff(0), R.one())
        assert all(R.is_zero(one.coeff(e)) for e in range(1, f.prec))
        back = f.nth_root_monic(k).pow_int(k)
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
