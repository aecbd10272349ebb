import random

import pytest
from hypothesis import given, settings, strategies as st

from annuli._ratio import QQ
from annuli.laurent import LaurentPoly
from annuli.local import _compose_laurent_series
from annuli.rings import SCALARS, LinearQuotient, Quotient, ring_pow
from annuli.scalars import Scalar
from annuli.series import TS, laurent_at_shifted_point


# ---------------------------------------------------------------------------
# series sums, negation, scaling, one-term series and integer powers: no
# package code calls them any more, so they live here, as the references the
# kernels are tested against
# ---------------------------------------------------------------------------


def one_term(ring, c, e: int, prec: int) -> TS:
    """c sigma^e to O(sigma^prec)."""
    if prec <= e:
        return TS(ring, prec, [])
    return TS(ring, e, [c] + [ring.zero()] * (prec - e - 1))


def ts_add(f: TS, g: TS) -> TS:
    """f + g to the lesser of their precisions, element by element."""
    r = f.ring
    prec = min(f.prec, g.prec)
    val = min(f.val, g.val, prec)
    cs = [r.zero()] * (prec - val)
    for src in (f, g):
        for i, c in enumerate(src.cs):
            e = src.val + i
            if e < prec:
                cs[e - val] = r.add(cs[e - val], c)
    return TS(r, val, cs)


def ts_neg(f: TS) -> TS:
    return TS(f.ring, f.val, [f.ring.neg(c) for c in f.cs])


def ts_sub(f: TS, g: TS) -> TS:
    return ts_add(f, ts_neg(g))


def ts_scale(f: TS, c) -> TS:
    """c f, element by element."""
    return TS(f.ring, f.val, [f.ring.mul(c, x) for x in f.cs])


def pow_int(f: TS, k: int) -> TS:
    """f^k by square and multiply (a negative k inverts first): the
    independent reference that `unit_power` is tested against."""
    if k < 0:
        return pow_int(f.inv(), -k)
    r = f.ring
    if k == 0:
        width = len(f.cs) or 1
        return TS(r, 0, [r.one()] + [r.zero()] * (width - 1))
    out = None
    sq = f
    while True:
        if k & 1:
            out = sq if out is None else out.mul(sq)
        k >>= 1
        if not k:
            return out
        sq = sq.mul(sq)


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
        back = pow_int(f.unit_power(QQ(1, k)), k)
        assert all(R.eq(back.coeff(e), f.coeff(e)) for e in range(f.prec))


def test_reversion_of_t_plus_t2():
    f = TS(SCALARS, 1, [Scalar(1), Scalar(1), Scalar(0), Scalar(0), Scalar(0)])
    g = f.shift(-1).inv().reversion()  # the Lagrange series tau / f
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
        acc = ts_add(acc, TS(r, 0, [fn.coeff(e)] + [r.zero()] * (window - 1)))
    if fn.val > 0:
        acc = acc.mul(pow_int(inner, fn.val)).truncate(window)
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
        want = numer.mul(pow_int(base.inv().truncate(window), pole)).truncate(window)
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
            assert _same(R, pow_int(u.unit_power(QQ(1, n)), n), u)
        assert _same(R, pow_int(u.unit_power(QQ(2, 3)), 3), pow_int(u, 2))
        for k in (1, 2, 3):
            assert _same(R, u.unit_power(-k), pow_int(u.unit_power(-1), k))


@pytest.mark.parametrize("kind", RING_KINDS)
def test_ring_pow_with_a_negative_exponent_inverts_first(kind):
    R, elt = _ring_and_elements(kind)
    for _ in range(6):
        x = _unit(R, elt)
        assert R.eq(ring_pow(R, x, 0), R.one())
        for k in (1, 2, 5):
            assert R.eq(ring_pow(R, x, -k), ring_pow(R, R.inv(x), k))
            assert R.eq(R.mul(ring_pow(R, x, -k), ring_pow(R, x, k)), R.one())


# ---------------------------------------------------------------------------
# the ring kernels against the element-wise loops they replaced
# ---------------------------------------------------------------------------
#
# ref_unit_power, ref_reversion and ref_compose are the series loops as they
# ran before each coefficient ring had its own kernels: Miller's recurrence
# and Lagrange inversion element by element, and the composition by powers
# of the inner series.  The series inverse they need is ref_inv, so nothing
# in the reference goes through a ring's unit_power, reversion or compose.


def ref_unit_power(u, alpha):
    """(1 + h)^alpha for u = 1 + h: k w_k = sum_j ((alpha + 1) j - k) h_j w_{k-j}."""
    r, h = u.ring, u.cs
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


def ref_inv(f):
    f = f.normalized()
    r = f.ring
    a0i = r.inv(f.cs[0])
    unit = TS(r, 0, [r.one()] + [r.mul(a0i, c) for c in f.cs[1:]])
    return ts_scale(ref_unit_power(unit, -1).shift(-f.val), a0i)


def ref_reversion(f):
    """The compositional inverse of f, of val 1: t_j = (1/j) [tau^(j-1)] (tau / f)^j."""
    r = f.ring
    f = f.normalized()
    n = len(f.cs)
    u = ref_inv(f.shift(-1)).truncate(n)
    out = [r.zero()] * n
    upow = u
    for j in range(1, n + 1):
        out[j - 1] = r.mul(upow.coeff(j - 1), r.from_scalar(Scalar(QQ(1, j))))
        if j < n:
            upow = upow.mul(u).truncate(n)
    return TS(r, 1, out)


def ref_compose(f, ring, inner, window):
    """f(inner): inner^k the square of inner^(k/2 rounded towards 0), times
    inner or its inverse for odd k, each kept to `window` terms past its
    valuation; a truncated f cuts its image back to O(sigma^f.prec)."""
    if isinstance(f, TS):
        terms = [(f.val + i, c) for i, c in enumerate(f.cs) if not ring.is_zero(c)]
        cut = f.prec
    else:
        terms = [(e, ring.from_scalar(f.coeffs[e])) for e in f.support()]
        cut = None
    powers = {0: one_term(ring, ring.one(), 0, window)}
    inv = None
    out = None
    for e, c in terms:
        if e < 0 and inv is None:
            inv = ref_inv(inner)
        chain = [e]
        while chain[-1] not in powers:
            k = chain[-1]
            chain.append(k // 2 if k > 0 else -(-k // 2))
        for i in range(len(chain) - 2, -1, -1):
            k, half = chain[i], powers[chain[i + 1]]
            ts = half.mul(half)
            if k % 2:
                ts = ts.mul(inner if k > 0 else inv)
            powers[k] = ts.truncate(ts.val + window)
        term = ts_scale(powers[e], c)
        out = term if out is None else ts_add(out, term)
    if out is None:
        return TS.zero(ring, window if cut is None else cut)
    return out if cut is None else out.truncate(cut)


def _identical(f, g):
    return (f.val, f.prec, f.cs) == (g.val, g.prec, g.cs)


KERNEL_RINGS = ["Q", "Q(sqrt 2)", "Q(sqrt 5)", "Q(sqrt -3)", "LinearQuotient", "Quotient"]
ALPHAS = [QQ(-1), QQ(2, 3)] + [QQ(sign, k) for k in range(1, 7) for sign in (1, -1)]
_QUOTIENT = Quotient(SCALARS, [Scalar(1), Scalar(1), Scalar(1)], "q")  # s^2 + s + 1


@st.composite
def kernel_rings(draw):
    """(ring, field tag, largest length): the quotient ring, whose loops are
    element-wise, only at short lengths."""
    kind = draw(st.sampled_from(KERNEL_RINGS))
    if kind == "Quotient":
        return _QUOTIENT, 1, 8
    if kind == "LinearQuotient":
        d = draw(st.sampled_from([1, 2, 5, -3]))
        return LinearQuotient(SCALARS, Scalar(QQ(2, 3)), "pt"), d, 48
    return SCALARS, {"Q": 1, "Q(sqrt 2)": 2, "Q(sqrt 5)": 5, "Q(sqrt -3)": -3}[kind], 48


@st.composite
def coefficients(draw, ring, d, length, unit_lead=False):
    """`length` elements of `ring`, sparse in half the draws; a nonzero first one with unit_lead."""
    nums = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7]) if draw(st.booleans()) else st.integers(-9, 9)
    out = []
    for i in range(length):
        a = QQ(draw(nums), draw(st.integers(1, 6)))
        b = QQ(draw(st.integers(-3, 3)), draw(st.integers(1, 4))) if d != 1 else 0
        if i == 0 and unit_lead and not (a or b):
            a = QQ(draw(st.sampled_from([1, -2, 3])), draw(st.integers(1, 6)))
        c = Scalar(a, b, d)
        if ring is _QUOTIENT:  # c + c' s
            c = ring.add(ring.from_scalar(c), ring.mul(ring.from_scalar(Scalar(QQ(draw(nums), 2))), ring.gen()))
        out.append(c)
    return out


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_unit_power_kernel_matches_the_elementwise_loop(data):
    ring, d, top = data.draw(kernel_rings())
    length = data.draw(st.integers(1, top))
    if data.draw(st.booleans()):
        u = TS(ring, 0, [ring.one()] + data.draw(coefficients(ring, d, length - 1)))
    else:  # c (1 + h) for a unit c: the power of 1 + h
        u = TS(ring, 0, data.draw(coefficients(ring, d, length, unit_lead=True)))
    alpha = data.draw(st.sampled_from(ALPHAS))
    assert _identical(u.unit_power(alpha), ref_unit_power(ts_scale(u, ring.inv(u.cs[0])), alpha))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_reversion_kernel_matches_the_lagrange_loop(data):
    ring, d, top = data.draw(kernel_rings())
    u = TS(ring, 0, data.draw(coefficients(ring, d, data.draw(st.integers(1, top)), unit_lead=True)))
    f = ref_inv(u).shift(1)  # tau / u(tau), whose Lagrange series is u
    want = ref_reversion(f)
    assert _identical(u.reversion(), want)
    assert _identical(f.shift(-1).inv().reversion(), want)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_compose_kernel_matches_the_reference(data):
    ring, d, top = data.draw(kernel_rings())
    inner = TS(ring, 1, data.draw(coefficients(ring, d, data.draw(st.integers(1, top)), unit_lead=True)))
    window = data.draw(st.integers(1, top))
    if data.draw(st.booleans()):
        # a Laurent polynomial over the scalars, with negative exponents
        bot = data.draw(st.integers(-6, 0))
        cs = data.draw(coefficients(SCALARS, d, data.draw(st.integers(1, 14))))
        f = LaurentPoly({bot + i: c for i, c in enumerate(cs) if not c.is_zero()})
    else:
        # a truncated series over the ring, known below f.prec only
        val = data.draw(st.integers(-4, 4))
        f = TS(ring, val, data.draw(coefficients(ring, d, data.draw(st.integers(0, min(top, 20))))))
    assert _identical(_compose_laurent_series(f, ring, inner, window), ref_compose(f, ring, inner, window))


def ref_laurent_at_shifted_point(ring, f, center, window):
    """f(c + tau) to O(tau^window), as it ran before the rings had a
    `taylor_shift`: Horner's rule in c + tau element by element on t^a f,
    times (c + tau)^(-a) = c^(-a) (1 + tau / c)^(-a) from `ref_unit_power`."""
    pole = max(0, -f.bot()) if not f.is_zero() else 0
    num = f.shift(pole)
    deg = num.top() if not num.is_zero() else 0
    acc = [ring.zero()] * window
    for e in range(deg, -1, -1):
        new = [ring.zero()] * window
        for i, a in enumerate(acc):
            if ring.is_zero(a):
                continue
            new[i] = ring.add(new[i], ring.mul(a, center))
            if i + 1 < window:
                new[i + 1] = ring.add(new[i + 1], a)
        if not num[e].is_zero():
            new[0] = ring.add(new[0], ring.from_scalar(num[e]))
        acc = new
    numer = TS(ring, 0, acc)
    if pole == 0:
        return numer
    ci = ring.inv(center)
    unit = TS(ring, 0, [ring.one(), ci] + [ring.zero()] * (window - 2))
    return numer.mul(ts_scale(ref_unit_power(unit, -pole), ring_pow(ring, ci, pole)))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_taylor_shift_kernel_matches_the_elementwise_horner_loop(data):
    """At centers with denominators, with poles, with degrees above the window
    and for the zero polynomial, every ring's `taylor_shift` gives the
    element-wise loop's coefficients."""
    ring, d, top = data.draw(kernel_rings())
    window = data.draw(st.integers(1, 64 if top > 8 else 10))
    pole = data.draw(st.integers(0, 5))
    size = data.draw(st.integers(0, window + 8))  # 0: the zero polynomial
    cs = data.draw(coefficients(SCALARS, d, size))
    f = LaurentPoly({e - pole: c for e, c in enumerate(cs) if not c.is_zero()})
    if ring is _QUOTIENT:
        center = data.draw(coefficients(ring, d, 1, unit_lead=True))[0]
    else:
        num = data.draw(st.sampled_from([1, -1, 2, -3, 5, 7]))
        surd = QQ(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 5))) if d != 1 else 0
        center = Scalar(QQ(num, data.draw(st.integers(1, 9))), surd, d)
    got = laurent_at_shifted_point(ring, f, center, window)
    assert _identical(got, ref_laurent_at_shifted_point(ring, f, center, window))


def test_taylor_shift_kernel_at_the_rings_own_points():
    """At the generator of a linear point and of s^2 + s + 1, the kernels
    equal the element-wise loop on the grid's kind of input."""
    f = LaurentPoly({-3: Scalar(2), -1: Scalar(-1), 0: Scalar("1/3"), 4: Scalar(5), 9: Scalar("-7/2")})
    for ring in (LinearQuotient(SCALARS, Scalar(QQ(-5, 4)), "pt"), _QUOTIENT):
        for window in (1, 2, 7, 30):
            want = ref_laurent_at_shifted_point(ring, f, ring.gen(), window)
            assert _identical(laurent_at_shifted_point(ring, f, ring.gen(), window), want)
