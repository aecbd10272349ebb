import gc
import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

from annuli.catalog import gen_series, series_id
from annuli.curves import ParametricCurve, exponent_profile
from annuli.laurent import LaurentPoly
from annuli.local import (
    analyze_place,
    codimension_nu,
    ext_codim_point,
    field_linear_split,
    leading_invariants,
    milnor_from_exponents,
    milnor_from_pairs,
    place_delta,
    place_index,
    scan_chain,
    singular_parameters,
    tangency_delta,
    TangentCase,
    _compose_laurent_series,
    _third_term_closed_form,
    _with_window,
)
from annuli.certify import delta_max
from annuli.rings import SCALARS
from annuli.scalars import Scalar
from annuli.series import TS, TruncationCap

import pytest

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
    """The search starts small but stops at the first of base, 2*base, ...
    that reaches the cap, re-raising TruncationCap there."""
    seen = []

    def never(window):
        seen.append(window)
        raise TruncationCap("unresolved")

    with pytest.raises(TruncationCap):
        _with_window(never, 20, 16 * 28 + 1)
    assert seen[-1] == 640 and seen == sorted(set(seen)) and seen[0] < 20
    seen.clear()
    with pytest.raises(TruncationCap):
        _with_window(never, 32, 32)
    assert seen[-1] == 32

    def needs_13(window):
        seen.append(window)
        if window < 13:
            raise TruncationCap("unresolved")
        return window

    seen.clear()
    found = _with_window(needs_13, 20, 16 * 28 + 1)
    assert found == seen[-1] and 13 <= found < 26  # within one doubling of the need


def test_third_term_closed_form_stays_exact():
    """A fractional closed form is kept as a fraction and printed as 'n/d'."""
    val = _third_term_closed_form(SimpleNamespace(p=1, q=1), [], [(1, 1)], 3, 1)
    assert val == Fraction(2, 3) and isinstance(val, Fraction)
    r0 = gen_series(series_id("r", n=0))
    data = tangency_delta(r0, delta_max(exponent_profile(r0)))
    assert data.as_dict()["third_term_closed_form"] == 60  # an integer stays a JSON number
    assert replace(data, third_term_closed_form=val).as_dict()["third_term_closed_form"] == "2/3"


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
