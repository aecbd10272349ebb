from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from annuli import laurent, rings
from annuli.laurent import (
    EvalAtPole,
    LaurentPoly,
    NotDivisible,
    from_dense,
    make_poly,
    poly_gcd,
    resultant,
    squarefree_part,
    to_dense,
)
from annuli.rings import SCALARS, dense_divexact, dense_divmod, quotient_gcd
from annuli.scalars import Scalar

t = LaurentPoly.t


# -- references: division and powers element by element over the field -------


def poly_divmod(f: LaurentPoly, g: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Euclidean division of plain polynomials over the field."""
    q, r = dense_divmod(SCALARS, to_dense(f), to_dense(g))
    return from_dense(q), from_dense(r)


def ref_divexact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """f / g in the Laurent ring by the dense field kernel; NotDivisible otherwise."""
    if f.is_zero():
        return LaurentPoly()
    sf, sg = f.bot(), g.bot()
    q = dense_divexact(SCALARS, to_dense(f.shift(-sf)), to_dense(g.shift(-sg)))
    return from_dense(q).shift(sf - sg)


def ref_pow(f: LaurentPoly, k: int) -> LaurentPoly:
    """f^k as k - 1 products of Scalars."""
    out = LaurentPoly.const(1)
    for _ in range(k):
        out = out * f
    return out


def test_product():
    assert (t(1) - 1) * (t(1) + 1) == make_poly(-1, 0, 1)


def test_derivative_of_laurent():
    f = LaurentPoly({2: 1, 0: -3, -1: 2})
    assert f.derivative() == LaurentPoly({1: 2, -2: -2})


def test_compose_inv_t():
    assert LaurentPoly({3: 1, 1: -3}).compose_inv_t() == LaurentPoly({-3: 1, -1: -3})


def test_eval_at_pole():
    with pytest.raises(EvalAtPole):
        LaurentPoly({-1: 1}).eval(Scalar(0))


def test_exact_division_examples():
    u = t(1)
    assert (u * u - 1).divexact(u - 1) == make_poly(1, 1)
    # the catalog recursion step on R_{0,0}: [(1/u - 1/2) - 1/2] u^2 / (u - 1) = -u
    P = LaurentPoly({-1: 1, 0: Scalar("-1/2")})
    step = (P - LaurentPoly.const(Scalar("1/2"))).shift(2).divexact(u - 1)
    assert step == LaurentPoly({1: -1})
    with pytest.raises(NotDivisible):
        (u * u + 1).divexact(u - 1)


def test_gcd_examples():
    assert poly_gcd(make_poly(-1, 0, 0, 1), make_poly(-1, 0, 1)) == make_poly(-1, 1)
    f = make_poly(-1, 0, 0, 1)
    assert poly_gcd(f * 2, f) == f
    assert poly_gcd(t(1), t(1) + 1) == make_poly(1)


def test_resultant_examples():
    a, b = Scalar(3), Scalar(7)
    assert resultant(t(1) - a, t(1) - b) == a - b
    assert resultant(make_poly(-2, 0, 1), make_poly(-3, 0, 1)) == Scalar(1)
    f = make_poly(1, 2, 3)
    assert resultant(f, f) == Scalar(0)


def test_squarefree_examples():
    assert squarefree_part(make_poly(1, -2, 1)) == make_poly(-1, 1)
    cubic = make_poly(-1, 0, 0, 1)
    assert squarefree_part(cubic) == cubic
    assert squarefree_part(make_poly(1, -2, 1) * make_poly(1, 1, 1)) == cubic


def test_named_laurent_ops():
    f = LaurentPoly({2: 1})
    assert f * f == LaurentPoly({4: 1})
    assert f.derivative() == LaurentPoly({1: 2})
    assert f.eval(Scalar(3)) == Scalar(9)


coeffs = st.integers(min_value=-6, max_value=6)


def polys(max_deg=6):
    return st.lists(coeffs, min_size=1, max_size=max_deg + 1).map(
        lambda cs: LaurentPoly({i: c for i, c in enumerate(cs)})
    )


@given(polys(5), polys(5))
@settings(max_examples=60, deadline=None)
def test_divexact_roundtrip(f, g):
    if g.is_zero():
        return
    assert (f * g).divexact(g) == f


# -- division over Q(sqrt d) in the shared dense kernel --------------------------

surd_part = st.one_of(
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
)


def surd_polys(d, max_deg):
    def poly(pairs):
        return LaurentPoly(
            {i: Scalar(f"{a.numerator}/{a.denominator}", f"{b.numerator}/{b.denominator}", d)
             for i, (a, b) in enumerate(pairs)}
        )

    return st.lists(st.tuples(surd_part, surd_part), min_size=1, max_size=max_deg + 1).map(poly)


def laurent_polys(d, max_deg):
    """Polynomials over Q(sqrt d) (over Q for d = 1) times t^s, s in -4..2."""

    def poly(pairs, s):
        return LaurentPoly(
            {i + s: Scalar(f"{a.numerator}/{a.denominator}", f"{b.numerator}/{b.denominator}" if d != 1 else 0, d)
             for i, (a, b) in enumerate(pairs)}
        )

    pairs = st.lists(st.tuples(surd_part, surd_part), min_size=1, max_size=max_deg + 1)
    return st.builds(poly, pairs, st.integers(min_value=-4, max_value=2))


@given(st.sampled_from([1, 2, 5, -3]).flatmap(lambda d: st.tuples(laurent_polys(d, 5), st.integers(min_value=0, max_value=8))))
@settings(max_examples=150, deadline=None)
def test_integer_power_equals_repeated_products(fk):
    f, k = fk
    assert f**k == ref_pow(f, k)


@given(st.sampled_from([1, 2, 5, -3]).flatmap(lambda d: st.tuples(laurent_polys(d, 5), laurent_polys(d, 3), st.booleans())))
@settings(max_examples=150, deadline=None)
def test_integer_divexact_equals_the_field_division(fgp):
    """On products (exact) and on random pairs (mostly not): the same
    quotient, or NotDivisible from both."""
    f, g, product = fgp
    assume(not g.is_zero())
    if product:
        f = f * g
    try:
        want = ref_divexact(f, g)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            f.divexact(g)
    else:
        assert f.divexact(g) == want


def test_integer_divexact_through_the_norm():
    """A divisor with a surd part over Q(sqrt 2), its conjugate, and a
    rational divisor of a surd dividend."""
    s2 = Scalar(0, 1, 2)
    g = t(1) - LaurentPoly.const(s2)
    gbar = t(1) + LaurentPoly.const(s2)
    f = (g * gbar * (t(2) + 3)).shift(-3)
    assert f.divexact(g) == (gbar * (t(2) + 3)).shift(-3)
    assert f.divexact(t(2) - 2) == LaurentPoly({-1: 1, -3: 3})
    with pytest.raises(NotDivisible):
        (g * (t(2) + 3)).divexact(gbar)
    with pytest.raises(NotDivisible):
        (t(2) * s2 + 1).divexact(t(1) * 2 + 1)


@given(st.sampled_from([2, 5, -3]).flatmap(lambda d: st.tuples(surd_polys(d, 6), surd_polys(d, 4))))
@settings(max_examples=100, deadline=None)
def test_poly_divmod_over_quadratic_fields(fg):
    f, g = fg
    assume(not g.is_zero())
    q, r = poly_divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or r.top() < g.top()
    assert (f * g).divexact(g) == f


@given(polys(5), polys(5))
@settings(max_examples=60, deadline=None)
def test_resultant_vanishes_iff_common_root(f, g):
    if f.is_zero() or g.is_zero() or f.is_constant() or g.is_constant():
        return
    r = resultant(f, g)
    common = poly_gcd(f, g)
    assert (r == Scalar(0)) == (not common.is_constant())


@given(polys(5))
@settings(max_examples=60, deadline=None)
def test_squarefree_divides_and_coprime_with_derivative(f):
    if f.is_zero() or f.is_constant():
        return
    sf = squarefree_part(f)
    assert f.divexact(sf) is not None  # exact by construction
    assert poly_gcd(sf, sf.derivative()).is_constant()


# -- the heuristic integer gcd over Q against the Euclidean loop ---------------

big_or_rational = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
)


def rational_polys(max_deg):
    return st.lists(big_or_rational, min_size=1, max_size=max_deg + 1).map(
        lambda cs: LaurentPoly({i: Scalar(f"{c.numerator}/{c.denominator}") for i, c in enumerate(cs)})
    )


def euclid(f, g):
    return from_dense(quotient_gcd(SCALARS, to_dense(f), to_dense(g)))


@given(
    rational_polys(5),
    rational_polys(5),
    rational_polys(3),
    st.sampled_from(["plain", "planted", "divides", "constant"]),
)
@settings(max_examples=150, deadline=None)
def test_poly_gcd_matches_euclidean_loop(f, g, c, shape):
    if shape == "planted":
        f, g = f * c, g * c
    elif shape == "divides":
        g = f * c
    elif shape == "constant":
        g = LaurentPoly.const(c[0]) if not c[0].is_zero() else LaurentPoly.const(1)
    assert poly_gcd(f, g) == euclid(f, g)
    assert poly_gcd(g, f) == euclid(g, f)


@given(
    st.sampled_from([2, 5, -3]).flatmap(lambda d: st.tuples(surd_polys(d, 5), surd_polys(d, 5), surd_polys(d, 3))),
    st.sampled_from(["plain", "planted", "divides", "constant"]),
)
@settings(max_examples=150, deadline=None)
def test_poly_gcd_over_quadratic_fields_matches_euclidean_loop(fgc, shape):
    """Over Q(sqrt d) the primitive remainder sequence over Z[sqrt d] gives Euclid's monic gcd."""
    f, g, c = fgc
    if shape == "planted":
        f, g = f * c, g * c
    elif shape == "divides":
        g = f * c
    elif shape == "constant":
        g = LaurentPoly.const(c[0]) if not c[0].is_zero() else LaurentPoly.const(1)
    assert poly_gcd(f, g) == euclid(f, g)
    assert poly_gcd(g, f) == euclid(g, f)


def test_heuristic_gcd_finds_planted_factor_with_64_bit_coefficients():
    common = make_poly(2**64 - 59, -(2**63) + 25, 3)
    f = common * make_poly(2**61 + 1, 7, -(2**64))
    g = common * make_poly(-5, 2**64 - 1) * common
    h = laurent._heuristic_gcd(laurent._primitive_zz(to_dense(f)), laurent._primitive_zz(to_dense(g)))
    assert h is not None
    assert poly_gcd(f, g) == common.monic() == euclid(f, g)


def test_quadratic_field_inputs_take_the_euclidean_loop():
    r2 = Scalar.sqrt_of(2)
    f = (t(1) - r2) * (t(1) + 1)
    g = (t(1) - r2) * (t(1) - 3)
    with mock.patch.object(laurent, "_heuristic_gcd", side_effect=AssertionError("heuristic over Q(sqrt 2)")):
        assert poly_gcd(f, g) == t(1) - r2
        assert poly_gcd(f, (t(1) + 1) * (t(1) - 5)) == t(1) + 1
        assert poly_gcd(f, g) == euclid(f, g)


@pytest.mark.parametrize("limit", ["_HEU_TRIES", "_HEU_MAX_BITS"])
def test_heuristic_give_up_falls_back_to_the_same_result(monkeypatch, limit):
    pairs = [
        (make_poly(-1, 0, 0, 1), make_poly(-1, 0, 1)),
        (make_poly(1, -2, 1) * make_poly(3, 0, 2**64), make_poly(-1, 1) * make_poly(Scalar("5/7"), 1)),
        (make_poly(4, 4, 1), make_poly(2)),
    ]
    sqfree = [make_poly(1, -2, 1) * make_poly(1, 1, 1), make_poly(-1, 0, 0, 1) ** 3 * make_poly(2**64, 3)]
    before = [poly_gcd(f, g) for f, g in pairs], [squarefree_part(f) for f in sqfree]
    monkeypatch.setattr(rings, limit, 0)
    for f, g in pairs[:2]:
        assert laurent._heuristic_gcd(laurent._primitive_zz(to_dense(f)), laurent._primitive_zz(to_dense(g))) is None
    after = [poly_gcd(f, g) for f, g in pairs], [squarefree_part(f) for f in sqfree]
    assert after == before
    assert before[0][0] == make_poly(-1, 1)
    assert before[1][0] == make_poly(-1, 0, 0, 1)


def test_poly_gcd_rejects_negative_exponents():
    laurent_f = LaurentPoly({-1: 1, 1: 1})
    with pytest.raises(ValueError):
        poly_gcd(laurent_f, make_poly(1, 1))
    with pytest.raises(ValueError):
        poly_gcd(make_poly(1, 1), laurent_f)
