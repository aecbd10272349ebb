import gc
import random
from math import lcm

from hypothesis import assume, example, given, settings, strategies as st

from annuli import local
from annuli._ratio import QQ
from annuli.catalog import default_grid, gen_series, series_id
from annuli.curves import ParametricCurve, detect_nonprimitive, exponent_profile
from annuli.laurent import LaurentPoly, from_dense, poly_gcd, to_dense
from annuli.local import (
    ImproperParametrization,
    PlaceNotAtInfinity,
    analyze_place,
    analyze_point,
    ext_codim_point,
    field_linear_split,
    largest_window,
    leading_invariants,
    milnor_from_exponents,
    milnor_from_pairs,
    place_base_data,
    place_delta,
    place_index,
    place_subordinate_series,
    scan_chain,
    singular_factors,
    singular_parameters,
    tangency_delta,
    TangentCase,
    _compose_laurent_series,
    _coset_automaton,
    _laurent_to_ts,
    _place_orientation,
    _shifted_series,
    _with_window,
)
from annuli.certify import DegenerateCurve, delta_max, ph_ledger
from annuli.rings import SCALARS, NotDivisible, Quotient, explore_branches
from annuli.scalars import ONE, Scalar, nth_root_exact
from annuli.series import TS, TruncationCap

import pytest
from test_series import ref_compose, ref_reversion, ref_unit_power, ts_scale

t = LaurentPoly.t


def locus_summary(sid):
    return [
        (repr(e.factor), e.orbit, e.n, e.pairs, e.mu, e.nu, e.extnu)
        for e in singular_parameters(gen_series(sid))
    ]


def test_singular_locus_item_w():
    assert locus_summary(series_id("w")) == [
        ("t - 1", 1, 2, [(3, 2)], 2, 1, 1),
        ("t^2 + t + 1", 2, 2, [(3, 2)], 2, 1, 1),
    ]


def test_singular_locus_item_u():
    assert locus_summary(series_id("u")) == [("t - 1", 1, 2, [(9, 2)], 8, 4, 4)]


def test_singular_locus_item_s_smooth():
    assert locus_summary(series_id("s", n=1)) == []


def _point_invariants(curve) -> list:
    return sorted(
        (e.mu, e.mult, e.pairs, e.nu, e.extnu) for e in singular_parameters(curve) for _ in range(e.orbit)
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_point_invariants_survive_automorphisms_of_the_plane(seed):
    """An automorphism of C^2 keeps every singularity: each image of a grid
    member under a random swap, then y -> y + a x^l + b, has its source's
    multiset of (mu, mult, pairs, nu, extnu), whichever coordinate has the
    smaller order at each point."""
    rng = random.Random(f"automorphism images {seed}")
    for sid in rng.sample(default_grid(), 40):
        c = gen_series(sid)
        x, y = (c.psi, c.phi) if rng.random() < 0.5 else (c.phi, c.psi)
        a, l, b = rng.choice((-2, -1, 1, 2)), rng.randint(1, 3), rng.randint(-2, 2)
        image = ParametricCurve(x, y + x**l * a + LaurentPoly.const(b))
        assert _point_invariants(image) == _point_invariants(c), (str(sid), a, l, b)


def test_locus_item_b_a4_at_half():
    entries = locus_summary(series_id("b", k=1, m=2))
    assert entries == [("t - 1/2", 1, 2, [(5, 2)], 4, 2, 2)]


def test_milnor_from_pairs_examples():
    assert milnor_from_pairs([(3, 2)]) == 2
    assert milnor_from_pairs([(9, 2)]) == 8
    assert milnor_from_pairs([(3, 2), (7, 2)]) == 16


def test_milnor_two_forms_agree_on_catalog():
    for sid in (series_id("u"), series_id("w"), series_id("k", k=2), series_id("q", m=2, n=1)):
        for e in singular_parameters(gen_series(sid)):
            assert e.mu == e.mu_form1


def codimension_nu(chain) -> int:
    """nu of a resolved characteristic chain: no package code reads it this way any more."""
    if chain.dchain[-1] != 1:
        raise ArithmeticError("characteristic chain not resolved")
    return chain.nu


def test_codimension_examples():
    # A_2: nu = 1; A_8: nu = 4; A_4: nu = 2   (operational essential-position rule)
    for sid, want in ((series_id("w"), [1, 1]), (series_id("u"), [4]), (series_id("b", k=1, m=2), [2])):
        got = [codimension_nu(e.chain) for e in singular_parameters(gen_series(sid))]
        assert got == want


def test_ext_codim():
    assert ext_codim_point(2, 1) == 1
    assert ext_codim_point(2, 4) == 4
    assert ext_codim_point(5, 0) == 3


def test_place_pairs():
    u = gen_series(series_id("u"))
    assert analyze_place(u, "inf").pairs_signed == [(3, 2)]
    assert analyze_place(u, "0").pairs_signed == []
    w = gen_series(series_id("w"))
    assert analyze_place(w, "inf").pairs_signed == [(1, 2)]
    s1 = gen_series(series_id("s", n=1))
    assert analyze_place(s1, "inf").pairs_signed == [(-9, 4)]
    assert analyze_place(s1, "0").pairs_signed == [(-1, 3), (-3, 2)]


def test_place_indices_and_deltas():
    u = gen_series(series_id("u"))
    assert place_index(u, "inf") == -4
    assert place_index(u, "0") == -2
    assert place_delta(u, "inf") == 0 and place_delta(u, "0") == 0
    w = gen_series(series_id("w"))
    assert place_index(w, "inf") == -2 and place_index(w, "0") == -2
    s1 = gen_series(series_id("s", n=1))
    assert place_delta(s1, "inf") == 12  # all hidden double points at infinity
    assert place_delta(s1, "0") == 0
    assert analyze_place(s1, "inf").nu == 3


def test_euler_poincare_on_catalog_samples():
    for sid in (series_id("u"), series_id("w"), series_id("s", n=2), series_id("k", k=1), series_id("b", k=3, m=0)):
        c = gen_series(sid)
        fin = sum(e.mu * e.orbit for e in singular_parameters(c))
        assert place_index(c, "inf") + place_index(c, "0") + fin == 2, str(sid)


def test_place_delta_nonnegative_and_zero_for_trivial_gcd():
    for sid in (series_id("u"), series_id("w"), series_id("b", k=2, m=1), series_id("c", k=1, m=1, n=2)):
        c = gen_series(sid)
        pr = exponent_profile(c)
        for place, g in (("inf", pr.p1), ("0", pr.r1)):
            d2 = place_delta(c, place)
            assert d2 >= 0
            if g == 1:
                assert d2 == 0


def test_tangent_case_redirect():
    r0 = gen_series(series_id("r", n=0))
    with pytest.raises(TangentCase):
        place_index(r0, "inf")


def test_tangency_item_r():
    r0 = gen_series(series_id("r", n=0))
    data = tangency_delta(r0, delta_max(exponent_profile(r0)))
    assert data.u == 1
    assert data.nu_tan == 1
    assert data.delta2_inf == 2
    assert data.lead_match is True
    E, F = leading_invariants(r0)
    assert E == F  # the single-valued leading invariants of the two places agree


def test_tangency_item_q_leads_differ():
    q0 = gen_series(series_id("q", m=2, n=0))
    E, F = leading_invariants(q0)
    assert E != F
    data = tangency_delta(q0, delta_max(exponent_profile(q0)))
    assert data.u == 0 and data.nu_tan == 0 and data.delta2_inf == 0


def test_root_choice_invariance():
    # scaling x by 2 forces a genuine quadratic root adjunction at t = 1;
    # the exponent pattern and all invariants must be unchanged
    u = gen_series(series_id("u"))
    u2 = ParametricCurve(u.phi * 2, u.psi)
    a, b = singular_parameters(u), singular_parameters(u2)
    assert [(e.pairs, e.mu, e.nu) for e in a] == [(e.pairs, e.mu, e.nu) for e in b]


def test_scan_chain_on_synthetic_series():
    # y = sigma^6 + sigma^9 over ram 4: pairs (3,2), (9, 2); nu counts the
    # vanishing essential positions 1,2,3,5,7
    cs = [Scalar(0)] * 12
    cs[6] = Scalar(1)
    cs[9] = Scalar(1)
    ch = scan_chain(SCALARS, TS(SCALARS, 0, cs), 4, 1)
    assert ch.pairs == [(3, 2), (9, 2)]
    assert ch.nu == 5
    assert milnor_from_pairs(ch.pairs) == milnor_from_exponents(ch.char_exponents, ch.dchain)


def test_random_branch_forms_agree():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 6)
        support = {n}
        exps = sorted(rng.sample(range(n + 1, n + 18), 4))
        cs = [Scalar(0)] * 40
        cs[n] = Scalar(1)
        import math

        g = n
        for e in exps:
            cs[e] = Scalar(rng.randint(1, 5))
            g = math.gcd(g, e)
        if g != 1:
            cs[n + 1] = Scalar(1)
        ch = scan_chain(SCALARS, TS(SCALARS, 0, cs), n, 1)
        assert milnor_from_pairs(ch.pairs) == milnor_from_exponents(ch.char_exponents, ch.dchain)


def test_window_search_keeps_the_largest_window():
    """The search starts small, doubles, and ends at `largest`, raising the
    typed ImproperParametrization there."""
    seen = []

    def never(window):
        seen.append(window)
        raise TruncationCap("unresolved")

    with pytest.raises(ImproperParametrization, match="stage x unresolved at window 449"):
        _with_window(never, 16 * 28 + 1, "stage x")
    assert seen[-1] == 449 and seen == sorted(set(seen)) and seen[0] < 20
    seen.clear()
    with pytest.raises(ImproperParametrization):
        _with_window(never, 32, "stage y")
    assert seen[-1] == 32

    def needs_13(window):
        seen.append(window)
        if window < 13:
            raise TruncationCap("unresolved")
        return window

    seen.clear()
    found = _with_window(needs_13, 16 * 28 + 1, "stage z")
    assert found == seen[-1] and 13 <= found < 26  # within one doubling of the need


def test_compose_laurent_series_leaves_no_reference_cycle():
    inner = TS(SCALARS, 1, [Scalar(1), Scalar(1)] + [Scalar(0)] * 6)  # t + t^2
    f = LaurentPoly({-1: 1, 3: 1})  # 1/t + t^3
    gc.collect()
    gc.disable()
    try:
        out = _compose_laurent_series(f, SCALARS, inner, 6)
        assert gc.collect() == 0
    finally:
        gc.enable()
    # 1/(t + t^2) + (t + t^2)^3 = t^-1 - 1 + t - t^2 + 2 t^3 + 2 t^4 + O(t^5)
    assert [out.coeff(e) for e in range(-1, 5)] == [Scalar(c) for c in (1, -1, 1, -1, 2, 2)]


def _reference_place_series(curve, place, window):
    """place_subordinate_series through the element-wise reference loops of
    test_series: the root (1 + h)^(1/v0), its reversion and the composition."""
    base_is_x, ram, _ = place_base_data(exponent_profile(curve), place)
    dom, sub = (curve.phi, curve.psi) if base_is_x else (curve.psi, curve.phi)
    if place == "inf":
        dom, sub = dom.compose_inv_t(), sub.compose_inv_t()
    dom_ts = _laurent_to_ts(SCALARS, dom, window)
    unit = ts_scale(dom_ts.shift(ram), dom_ts.coeff(-ram).inv())
    tau = ref_reversion(ref_unit_power(unit, QQ(-1, ram)).shift(1))
    return ram, dom_ts.coeff(-ram), ref_compose(sub, SCALARS, tau, window)


def _series_outcome(expand):
    """(ram, lead, val, prec, coefficients) of an expansion, or its exception."""
    try:
        ram, lead, s = expand()
    except Exception as exc:
        return type(exc), str(exc)
    return ram, lead, s.val, s.prec, s.cs


def test_place_series_on_the_catalog_match_the_elementwise_reference():
    grid = default_grid()
    assert len(grid) == 146
    for sid in grid:
        curve = gen_series(sid)
        for place in ("inf", "0"):
            for window in (6, 12):
                got = _series_outcome(lambda: place_subordinate_series(curve, place, window))
                assert got == _series_outcome(lambda: _reference_place_series(curve, place, window)), (sid, place, window)


def test_field_linear_split_divides_out_rational_roots():
    """A double rational root, a simple one and an irreducible quadratic block."""
    one, c = LaurentPoly.const(1), LaurentPoly.const
    f = c(3) * (t(1) - one) ** 2 * (c(2) * t(1) + c(3)) * (t(2) + t(1) + one)
    pieces = field_linear_split(f)
    assert pieces == [t(1) - one, t(1) - one, t(1) + c("3/2"), t(2) + t(1) + one]
    prod = one
    for p in pieces:
        prod = prod * p
    assert prod == f.monic()


def test_field_linear_split_takes_candidates_from_the_factor_itself():
    """Over Q the candidates divide f's own constant, not its norm's (f^2)."""
    c = LaurentPoly.const
    f = (t(1) - c(2)) * (t(2) - c(100000000003))
    assert field_linear_split(f) == [t(1) - c(2), t(2) - c(100000000003)]


def test_field_linear_split_over_a_surd_field_takes_candidates_from_the_rational_part():
    """Over Q(sqrt 2) the candidates divide the rational part's constant, not
    the norm's, and a rational root is found when that constant is zero."""
    c, r2 = LaurentPoly.const, Scalar(0, 1, 2)
    f = (t(1) - c(2)) * (t(2) + LaurentPoly({1: r2}) - c(100000000003))
    assert field_linear_split(f) == [t(1) - c(2), t(2) + LaurentPoly({1: r2}) - c(100000000003)]
    # (t - 2)(t + sqrt 2) has rational part t^2 - 2t, whose constant is zero
    g = (t(1) - c(2)) * (t(1) + LaurentPoly({0: r2}))
    assert field_linear_split(g) == [t(1) - c(2), t(1) + LaurentPoly({0: r2})]


# ---------------------------------------------------------------------------
# root-free standard form against the rooted reference
# ---------------------------------------------------------------------------


def _rooted_standard_form(st_, ring, key, dom, v0):
    """The standard form dom = sigma^v0, adjoining g with g^|v0| = lead at level `key`."""
    n = abs(v0)
    lead = dom.coeff(v0)
    lead_sc = ring.as_scalar(lead)
    root = nth_root_exact(lead_sc, n) if lead_sc is not None else None
    if root is not None:
        R2, g = ring, ring.from_scalar(root)
    else:
        R2 = st_.quotient(ring, key, [ring.neg(lead)] + [ring.zero()] * (n - 1) + [ring.one()])
        g = R2.gen()
        dom = dom.lift(R2)
    unit = ts_scale(dom.shift(-v0), R2.inv(dom.coeff(v0)))
    sigma_of_tau = ts_scale(unit.unit_power(QQ(1, v0)).shift(1), g if v0 > 0 else R2.inv(g))
    return R2, sigma_of_tau.shift(-1).inv().reversion()


def _rooted_place_series(curve, place, window, st_, base_ring, key, force_x=False):
    prof = exponent_profile(curve)
    if force_x:
        base_is_x, ram = True, _place_orientation(prof, place)[0]
    else:
        base_is_x, ram, _ = place_base_data(prof, place)
    dom, sub = (curve.phi, curve.psi) if base_is_x else (curve.psi, curve.phi)
    if place == "inf":
        dom, sub = dom.compose_inv_t(), sub.compose_inv_t()
    R2, tau = _rooted_standard_form(st_, base_ring, key, _laurent_to_ts(base_ring, dom, window), -ram)
    return R2, ram, _compose_laurent_series(sub, R2, tau, window)


def _rooted_point_chains(curve, factor):
    def run(window):
        def fn(st_):
            R = st_.quotient(SCALARS, "pt", to_dense(factor))
            # the coordinate of smaller order at the point, x on a tie, as analyze_point documents
            xs, ys = (_shifted_series(R, f, window) for f in (curve.phi, curve.psi))
            if ys.order() < xs.order():
                xs, ys = ys, xs
            xs = xs.normalized()
            n = xs.order()
            R2, tau = _rooted_standard_form(st_, R, "rt", xs, n)
            ys = ys.lift(R2)
            chain = scan_chain(R2, _compose_laurent_series(ys, R2, tau, window), n, 1)
            return repr(from_dense(st_.modulus("pt", to_dense(factor)))), chain

        return explore_branches(fn)

    return _with_window(run, largest_window(exponent_profile(curve), "point"), "reference point")


def _rooted_place_chain(curve, place):
    prof = exponent_profile(curve)
    kappa = place_base_data(prof, place)[2]

    def attempt(window):
        def fn(st_):
            R2, ram_, sub = _rooted_place_series(curve, place, window, st_, SCALARS, "rt")
            return scan_chain(R2, sub, ram_, 1 - kappa)

        return explore_branches(fn)[0]

    return _with_window(attempt, largest_window(prof, place), f"reference place {place}")


def _is_proper(curve) -> bool:
    """gcd of the numerators of x(s) - x(t0), y(s) - y(t0) is s - t0: C(x, y) = C(t)."""
    t0 = Scalar(QQ(3, 7))
    nums = []
    for f in (curve.phi, curve.psi):
        g = f - LaurentPoly.const(f.eval(t0))
        nums.append(g.shift(-g.bot()))
    g = poly_gcd(*nums)
    return g.top() - g.bot() == 1


FIELDS = [1, 2, -3]


@st.composite
def _scalars(draw, d, nonzero=False):
    a = draw(st.integers(-3, 3))
    b = draw(st.integers(-2, 2)) if d != 1 else 0
    assume(not nonzero or a or b)
    return Scalar(a, b, d)


@st.composite
def _laurent(draw, d, bot, top):
    coeffs = {e: draw(_scalars(d)) for e in range(bot, top + 1)}
    coeffs[bot] = draw(_scalars(d, nonzero=True))
    coeffs[top] = draw(_scalars(d, nonzero=True))
    return LaurentPoly({e: c for e, c in coeffs.items() if not c.is_zero()})


@st.composite
def point_cases(draw):
    """x = B Q^a + 1/t, y = C Q^b + t^-2 + t: every root of Q is a singular parameter.

    The second factor Q (t - c) adds a smooth parameter c, so the leading
    coefficient x'(s) of x(s + tau) - x(s) is a zero divisor in the "pt" ring.
    """
    d = draw(st.sampled_from(FIELDS))
    Q = LaurentPoly({0: draw(_scalars(d, nonzero=True)), 1: draw(_scalars(d)), 2: Scalar(1)})
    a, b = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    B = draw(_laurent(d, draw(st.integers(-2, 0)), draw(st.integers(0, 1))))
    C = draw(_laurent(d, draw(st.integers(-2, 0)), draw(st.integers(0, 1))))
    curve = ParametricCurve(B * Q**a + t(-1), C * Q**b + t(-2) + t())
    c = Scalar(draw(st.sampled_from([-2, -1, 2, 3])))
    assume(not Q.eval(c).is_zero())
    return curve, [Q, Q * (t() - LaurentPoly.const(c))]


_U2 = gen_series(series_id("u"))
_U2 = ParametricCurve(_U2.phi * 2, _U2.psi)  # lead with no rational root at t = 1


@given(point_cases())
@example((_U2, [t() - LaurentPoly.const(ONE), (t() - LaurentPoly.const(ONE)) * (t() + LaurentPoly.const(ONE))]))
@settings(max_examples=40, deadline=None)
def test_root_free_points_match_the_rooted_standard_form(case):
    curve, factors = case
    for factor in factors:
        got = [(repr(e.factor), e.chain) for e in analyze_point(curve, factor)]
        assert got == _rooted_point_chains(curve, factor)


def _singular_point_curves(count: int) -> list:
    """Proper curves x = B Q^a + k/t, y = C Q^b with k in {0, 1}, over Q and
    Q(sqrt 2).  With k = 0 each root of the quadratic Q is a singular
    parameter of order a in x; with k = 1 the singular parameters lie elsewhere."""
    rng = random.Random("singular points")

    def scalar(d, nonzero=False):
        while True:
            c = Scalar(rng.randint(-2, 2), rng.randint(-1, 1) if d != 1 else 0, d)
            if not (nonzero and c.is_zero()):
                return c

    def laurent(d, bot, top):
        cs = {e: scalar(d, e in (bot, top)) for e in range(bot, top + 1)}
        return LaurentPoly({e: c for e, c in cs.items() if not c.is_zero()})

    out = []
    while len(out) < count:
        d, k = (1, 2)[len(out) % 2], len(out) // 2 % 2
        Q = LaurentPoly({0: scalar(d, True), 1: scalar(d), 2: Scalar(1)})
        B, C = (laurent(d, rng.randint(-2, 0), rng.randint(0, 1)) for _ in range(2))
        curve = ParametricCurve(B * Q ** rng.randint(2, 3) + t(-1) * k, C * Q ** rng.randint(2, 4))
        if not curve.phi.is_constant() and not curve.psi.is_constant() and _is_proper(curve):
            out.append(curve)
    return out


def test_root_free_singular_points_match_the_rooted_standard_form():
    """The comparison above on curves whose points are singular: every piece of
    the singular locus, and some with base order n >= 2 among them."""
    orders = []
    for curve in _singular_point_curves(16):
        g = singular_factors(curve)
        for factor in [] if g.is_constant() else field_linear_split(g):
            got = analyze_point(curve, factor)
            assert [(repr(e.factor), e.chain) for e in got] == _rooted_point_chains(curve, factor)
            orders += [e.n for e in got]
    assert sum(n >= 2 for n in orders) >= 6


@st.composite
def place_curves(draw):
    d = draw(st.sampled_from(FIELDS))
    x = draw(_laurent(d, -draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    y = draw(_laurent(d, -draw(st.integers(1, 4)), draw(st.integers(1, 4))))
    curve = ParametricCurve(x, y)
    assume(_is_proper(curve))
    return curve


@given(place_curves())
@settings(max_examples=40, deadline=None)
def test_root_free_places_match_the_rooted_standard_form(curve):
    for place in ("inf", "0"):
        assert analyze_place(curve, place).chain == _rooted_place_chain(curve, place)
    # the base forced to x at t = 0, as the catalog's place notes read it
    _, _, sub = place_subordinate_series(curve, "0", 24, force_base="x")

    def fn(st_):
        R2, _, ref = _rooted_place_series(curve, "0", 24, st_, SCALARS, "rt", force_x=True)
        return ref.val, [R2.decide_zero(c) for c in ref.cs]

    assert explore_branches(fn) == [(sub.val, [c.is_zero() for c in sub.cs])]


def _rooted_automata(curve):
    """Both coset automaton runs of the tangent case over the rooted place series."""
    prof = exponent_profile(curve)
    p, r = prof.p, prof.r
    L = lcm(p, r)

    def attempt(window):
        def fn(st_):
            Ri, _, yA = _rooted_place_series(curve, "inf", window, st_, SCALARS, "ri")
            Rf, _, yB = _rooted_place_series(curve, "0", window, st_, Ri, "r0")
            yA = yA.lift(Rf)
            return _coset_automaton(Rf, yA, yB, p, r, L), _coset_automaton(Rf, yB, yA, r, p, L)

        return explore_branches(fn)[0]

    return _with_window(attempt, largest_window(prof, "tangency"), "reference tangency")


@st.composite
def tangent_cases(draw):
    """ps = rq with p, r >= 2, and leads of x at both places with no rational root.

    In half the cases the leading invariants E_1^{p_1}, F_1^{p_1} agree, so
    that the automaton compares coefficients past the leading one: with
    p_1 = dd and q_1 = c, tc(x) = lc(x) m^dd and tc(y) = lc(y) m^c give E = F.
    """
    c, dd = draw(st.sampled_from([(1, 1), (2, 1), (3, 1), (1, 2), (3, 2)]))
    i, j = (2, 2) if dd == 1 else (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    p, q, r, s = dd * i, c * i, dd * j, c * j
    a, lc_y = draw(st.sampled_from([3, 5, -3, -5])), draw(st.sampled_from([1, 2, -1]))
    m = draw(st.sampled_from([1, -1, 2]))
    if draw(st.booleans()):
        tc_x, tc_y = a * m**dd, lc_y * m**c
    else:
        tc_x, tc_y = draw(st.sampled_from([2, 3, -2])), draw(st.sampled_from([1, -2]))
    x = {p: a, -r: tc_x} | {e: draw(st.integers(-2, 2)) for e in range(-r + 1, p)}
    y = {q: lc_y, -s: tc_y} | {e: draw(st.integers(-2, 2)) for e in range(-s + 1, q)}
    curve = ParametricCurve(*(LaurentPoly({e: Scalar(v) for e, v in f.items() if v}) for f in (x, y)))
    assume(_is_proper(curve))
    return curve


@given(tangent_cases())
@settings(max_examples=25, deadline=None)
def test_tangency_adjoins_both_roots_and_matches_the_rooted_reference(curve):
    dmax = delta_max(exponent_profile(curve))
    pl_inf, pl_0 = analyze_place(curve, "inf"), analyze_place(curve, "0")
    rings_seen = []

    def spy(ring, *args):
        rings_seen.append(ring)
        return _coset_automaton(ring, *args)

    ref_runs = iter(_rooted_automata(curve))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local, "_coset_automaton", spy)
        got = tangency_delta(curve, dmax, pl_inf, pl_0)
        # the same tail of tangency_delta over the automaton runs of the reference
        mp.setattr(local, "_coset_automaton", lambda *args: next(ref_runs))
        want = tangency_delta(curve, dmax, pl_inf, pl_0)
    assert got == want
    assert all(isinstance(R, Quotient) and isinstance(R.base, Quotient) for R in rings_seen)


def test_off_lattice_far_collisions_raise_not_divisible(monkeypatch):
    # p = 2, r = 1, L = 2: a death at lattice position 1 gives the zero place
    # the far term 1/2
    curve = ParametricCurve(t(2) + t(-1), t(4) + t() + t(-2))
    monkeypatch.setattr(local, "_coset_automaton", lambda *args: ([(1, 1)], [], True))
    with pytest.raises(NotDivisible, match="tangency_delta.*window"):
        tangency_delta(curve, delta_max(exponent_profile(curve)))


def _embedded_tangent_curves(seed: int, count: int) -> list:
    """y = x + c t^e with e = +-1 strictly inside x's exponent range, max(p, r) >= 3.

    x and y share their extreme terms, so q = p and s = r (ps = rq), and the
    curve is embedded: t^e = (y - x)/c is read off the image, and the two
    derivatives differ by c e t^(e-1), which never vanishes on C*.
    """
    rng = random.Random(seed)
    units = [-3, -2, -1, 1, 2, 3]
    out = []
    while len(out) < count:
        p, r = rng.randint(1, 4), rng.randint(1, 4)
        if max(p, r) < 3:
            continue
        x = {e: rng.randint(-3, 3) for e in range(-r + 1, p)} | {p: rng.choice(units), -r: rng.choice(units)}
        y = dict(x)
        e = rng.choice([e for e in (1, -1) if -r < e < p])
        y[e] += rng.choice([-2, -1, 1, 2])
        out.append(ParametricCurve(*(LaurentPoly({k: v for k, v in f.items() if v}) for f in (x, y))))
    return out


def test_tangent_embedding_with_a_vanishing_coefficient_analyzes():
    # x = -t^3 + 2t - 2/t, y = -t^3 - 2/t (p = 3, r = 1).  Comparing the zero
    # place against mu_3 meets a = zeta^2 b with a = 0 and b != 0: the whole
    # coset dies there, and a = 0 is never inverted
    from annuli.reports import analyze_curve

    report, code = analyze_curve(ParametricCurve(-t(3) + 2 * t() - 2 * t(-1), -t(3) - 2 * t(-1)))
    assert code == 0 and report["verdict"]["verdict"] == "Embedding"
    assert report["balance_equation"] == "6 = 0 + 6" and report["ledger"]["euler_check"]
    tan = report["ledger"]["tangency"]
    assert (tan["u"], tan["nu_tan"], tan["two_delta_inf"]) == (1, 1, 6)
    assert tan["index_inf"] == tan["index_0"] == 1


def test_embedded_tangent_sweep_balances():
    from annuli.reports import analyze_curve

    for curve in _embedded_tangent_curves(seed=13, count=40):
        report, code = analyze_curve(curve)
        assert report["tangent_case"], curve
        assert code == 0 and report["verdict"]["verdict"] == "Embedding", curve
        assert report["ledger"]["balanced"] and report["ledger"]["euler_check"], curve


def test_a_shared_dominant_coordinate_is_always_x():
    """ps = rq with q, s > 0 forces p, r > 0 on admissible profiles, so the
    tangent case never needs y as the shared dominant coordinate."""
    rng = range(-8, 9)
    for p in rng:
        for r in rng:
            if p < -r or (p, r) == (0, 0):  # bot(x) <= top(x), x nonconstant
                continue
            for q in rng:
                for s in rng:
                    if q < -s or (q, s) == (0, 0):
                        continue
                    if p * s == r * q and q > 0 and s > 0:
                        assert p > 0 and r > 0, (p, q, r, s)


# ---------------------------------------------------------------------------
# the largest window of each site against the window it needs
# ---------------------------------------------------------------------------


def _spy_needs(monkeypatch) -> list:
    """(stage, needed window, largest window) per resolved window search.

    A chain reads up to its last characteristic exponent (the lead when the
    chain is trivial) and the automaton up to its last death, on both sides.
    Each series falls short of the window by a fixed amount per site (kappa
    at a place), read off the series at the call.
    """
    rows, cur = [], {}
    real_with_window, real_scan, real_coset = local._with_window, local.scan_chain, local._coset_automaton

    def need(window_minus_prec, last_read):
        cur["need"] = max(cur["need"], window_minus_prec + last_read + 1)

    def with_window(attempt, largest, stage):
        def spied(window):
            cur["window"], cur["need"] = window, 0
            out = attempt(window)
            rows.append((stage, cur["need"], largest))
            return out

        return real_with_window(spied, largest, stage)

    def scan(ring, series, ram, scan_from):
        chain = real_scan(ring, series, ram, scan_from)
        need(cur["window"] - series.prec, max(chain.char_exponents, default=chain.start))
        return chain

    def coset(ring, yA, yB, p, r, L):
        out = real_coset(ring, yA, yB, p, r, L)
        for y, step in ((yA, L // p), (yB, L // r)):
            need(cur["window"] - y.prec, out[0][-1][0] // step)
        return out

    monkeypatch.setattr(local, "_with_window", with_window)
    monkeypatch.setattr(local, "scan_chain", scan)
    monkeypatch.setattr(local, "_coset_automaton", coset)
    return rows


def _random_bound_curves(d: int, count: int) -> list:
    """Random proper curves over Q(sqrt d); every third one is B Q^a, C Q^b,
    singular at the roots of the quadratic Q."""
    rng = random.Random(f"window bounds {d}")

    def scalar(nonzero=False):
        while True:
            c = Scalar(rng.randint(-2, 2), rng.randint(-1, 1) if d != 1 else 0, d)
            if not (nonzero and c.is_zero()):
                return c

    def laurent(bot, top):
        cs = {e: scalar(e in (bot, top)) for e in range(bot, top + 1)}
        return LaurentPoly({e: c for e, c in cs.items() if not c.is_zero()})

    out = []
    for i in range(count):
        if i % 3:
            curve = ParametricCurve(*(laurent(rng.randint(-3, 0), rng.randint(1, 3)) for _ in range(2)))
        else:
            Q = LaurentPoly({0: scalar(True), 1: scalar(), 2: Scalar(1)})
            B, C = (laurent(rng.randint(-2, 0), rng.randint(0, 1)) for _ in range(2))
            curve = ParametricCurve(B * Q ** rng.randint(2, 3), C * Q ** rng.randint(2, 4))
        if not curve.phi.is_constant() and not curve.psi.is_constant() and _is_proper(curve):
            out.append(curve)
    return out


def test_every_site_resolves_within_its_largest_window(monkeypatch):
    """The windows that the grid, random curves over Q and Q(sqrt 2) and the
    embedded tangent sweep need never pass the bound from the profile, and
    the point bound is attained at (b)[k=1,m=2]."""
    rows = _spy_needs(monkeypatch)
    curves = [gen_series(sid) for sid in default_grid()]
    curves += _random_bound_curves(1, 90) + _random_bound_curves(2, 90)
    curves += _embedded_tangent_curves(seed=13, count=40)
    for curve in curves:
        if detect_nonprimitive(curve)["kind"] != "Primitive":
            continue
        try:
            ph_ledger(curve)
        except (PlaceNotAtInfinity, DegenerateCurve):
            continue
    assert {stage.split()[0] for stage, _, _ in rows} == {"point", "place", "tangency"}
    assert [row for row in rows if row[1] > row[2]] == []
    rows.clear()
    ph_ledger(gen_series(series_id("b", k=1, m=2)))
    assert [(need, largest) for stage, need, largest in rows if stage.startswith("point")] == [(6, 6)]


def _off_annulus_curves(count: int) -> list:
    """Random proper curves x = u^a + ..., y = u^b + ... in u = t - 1, shifted
    to vanish at t = 0: the place 0 is the finite point (0, 0)."""
    rng = random.Random("off annulus")
    u = t(1) - 1
    out = []
    while len(out) < count:
        a = rng.randint(2, 4)
        b = a + rng.randint(1, 3)
        x = u**a + u ** (a + 1) * rng.randint(-2, 2)
        y = u**b + u ** (b + 1) * rng.randint(-2, 2) + u ** (b + 2) * rng.randint(-2, 2)
        curve = ParametricCurve(x - x.eval(0), y - y.eval(0))
        if _is_proper(curve):
            out.append(curve)
    return out


def test_the_point_bound_holds_off_annuli(monkeypatch):
    """With a place at a finite point the balance bounds nothing, and the
    point bound is the genus of the bidegree: x = t^3 - 3t^2 + 3t,
    y = 2t^3 - 5t^2 + 4t has 2 delta_max = -2, but its cusp x - 1 = u^3,
    y - 1 = u^2 + 2u^3 at u = t - 1 = 0 needs window 4."""
    rows = _spy_needs(monkeypatch)
    u = t(1) - 1
    cusp = ParametricCurve(u**3 + 1, u**2 + u**3 * 2 + 1)
    assert cusp.phi == t(3) - t(2) * 3 + t(1) * 3 and delta_max(exponent_profile(cusp)) == -2
    [pa] = local.local_puiseux(cusp, u)
    assert (pa.n, pa.mu, pa.pairs) == (2, 2, [(3, 2)])
    assert [(need, largest) for _, need, largest in rows] == [(4, 10)]
    for curve in _off_annulus_curves(12):
        assert exponent_profile(curve).r < 0 and exponent_profile(curve).s < 0
        singular_parameters(curve)
    assert len(rows) > 12 and [row for row in rows if row[1] > row[2]] == []
