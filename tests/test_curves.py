import pytest

from annuli import curves as curves_module
from annuli.catalog import gen_series, series_id
from annuli.curves import (
    MINUS_MINUS,
    MINUS_PLUS,
    MIXED,
    PLUS_PLUS,
    NonTermination,
    ParametricCurve,
    Unclassifiable,
    apply_automorphism,
    classify_type,
    detect_nonprimitive,
    dim_curv,
    exponent_profile,
    is_handsome,
    reduce_to_handsome,
)
from annuli.laurent import LaurentPoly
from annuli.reports import analyze_curve
from annuli.scalars import Scalar

t = LaurentPoly.t


def curve(phi, psi):
    return ParametricCurve(phi, psi)


def test_profiles_of_catalog_items():
    u = gen_series(series_id("u"))
    pr = exponent_profile(u)
    assert (pr.p, pr.q, pr.r, pr.s) == (2, 3, 1, 2)
    assert (pr.p1, pr.r1) == (1, 1)
    w = gen_series(series_id("w"))
    prw = exponent_profile(w)
    assert (prw.p, prw.q, prw.r, prw.s) == (2, 1, 1, 2)
    mono = curve(t(3), t(7))
    prm = exponent_profile(mono)
    assert (prm.p, -prm.r) == (3, 3) and (prm.q, -prm.s) == (7, 7)


def test_classification_tags():
    assert classify_type(gen_series(series_id("u"))).tag == PLUS_PLUS
    assert classify_type(gen_series(series_id("w"))).tag == MIXED
    assert classify_type(gen_series(series_id("s", n=1))).tag == MINUS_MINUS
    assert classify_type(gen_series(series_id("j", m=1, n=1))).tag == MINUS_PLUS


def test_classification_idempotent():
    cl = classify_type(gen_series(series_id("u")))
    again = classify_type(cl.curve)
    assert again.tag == cl.tag
    assert again.curve.key() == cl.curve.key()


def test_classification_invariant_under_rescale():
    c = gen_series(series_id("u"))
    c2 = apply_automorphism(c, {"kind": "scale_t", "by": Scalar(3)})
    assert classify_type(c2).tag == classify_type(c).tag


def test_handsome_examples():
    assert is_handsome(gen_series(series_id("u")))
    bad = curve(t(2) + t(-1), t(4) + t(-1))  # q/p = 2 in Z and r < p
    assert not is_handsome(bad)
    cl = reduce_to_handsome(bad)
    assert any(m["kind"] == "y_plus_c_xl" for m in cl.moves)
    # minus-plus type with p/q integral and s < q is not handsome either
    bad2 = curve(t(4) + t(1), t(2) + t(-1))
    assert not is_handsome(bad2)


def test_reduce_single_elementary_move():
    # phi = t^2, psi = t^4 + t: the move y -> y - x^2 kills the quartic term
    from annuli.curves import _kill_moves

    c = curve(t(2), t(4) + t(1))
    mv = [m for m in _kill_moves(c) if m["kind"] == "y_plus_c_xl"]
    assert mv and mv[0]["l"] == 2
    reduced = apply_automorphism(c, mv[0])
    assert reduced.psi.top() == 1
    # the curve itself extends over t = 0, so no annulus normal form exists
    with pytest.raises(Unclassifiable):
        reduce_to_handsome(c)


def test_dim_curv_values():
    u = classify_type(gen_series(series_id("u")))
    assert dim_curv(u.profile, u.tag) == (4, 1)
    w = classify_type(gen_series(series_id("w")))
    assert dim_curv(w.profile, w.tag) == (3, 0)
    s1 = classify_type(gen_series(series_id("s", n=1)))
    assert dim_curv(s1.profile, s1.tag)[0] == 3


def test_dim_curv_nonnegative_on_catalog():
    from annuli.catalog import default_grid

    for sid in default_grid()[::7]:
        c = gen_series(sid)
        cl = classify_type(c)
        mono = len(cl.curve.phi.coeffs) == 1 and len(cl.curve.psi.coeffs) == 1
        sigma, _ = dim_curv(cl.profile, cl.tag, monomial_pair=mono)
        assert sigma >= 0, str(sid)


def test_detect_nonprimitive():
    assert detect_nonprimitive(curve(t(2), t(4))) == {"kind": "PowerCover", "d": 2}
    assert detect_nonprimitive(curve(t(2) + t(-2), t(6))) == {"kind": "PowerCover", "d": 2}
    assert detect_nonprimitive(gen_series(series_id("w")))["kind"] == "Primitive"


def test_classify_rejects_power_cover():
    with pytest.raises(Unclassifiable):
        classify_type(curve(t(2), t(4)))


def test_apply_automorphism_examples():
    c = curve(t(1), t(1) + t(2))
    out = apply_automorphism(c, {"kind": "y_plus_c_xl", "c": Scalar(-1), "l": 1})
    assert out.psi == t(2)
    a = gen_series(series_id("a", m=2, n=3, k=1))
    inv = apply_automorphism(a, {"kind": "inv_t"})
    assert inv.phi == t(-2)
    pr, pri = exponent_profile(a), exponent_profile(inv)
    assert (pri.p, pri.q, pri.r, pri.s) == (pr.r, pr.s, pr.p, pr.q)


def test_profile_swap_under_inv_t():
    for sid in (series_id("u"), series_id("w"), series_id("s", n=2)):
        c = gen_series(sid)
        pr = exponent_profile(c)
        pri = exponent_profile(c.inv_t())
        assert (pri.p, pri.q, pri.r, pri.s) == (pr.r, pr.s, pr.p, pr.q)


def test_symmetric_tricuspidal_form_is_family_w_frame():
    # x = t^2 + 2 t^-1, y = 2t + t^-2 differs from family (w) by translations
    # and an axis scaling only
    sym = curve(t(2) + t(-1) * 2, t(1) * 2 + t(-2))
    w = gen_series(series_id("w"))
    assert sym.phi - LaurentPoly.const(3) == w.phi
    assert (sym.psi - LaurentPoly.const(3)) * Scalar("1/2") == w.psi
    assert classify_type(sym).tag == MIXED


def test_reduction_budget_gives_a_classification_error(monkeypatch):
    """A curve that takes four kill moves to a handsome row, with no budget
    for one: the report names the stop and keeps everything else."""
    c = ParametricCurve(((t(1) - 1) ** 4).shift(-2), ((t(1) - 1) ** 2 * (t(1) + 1)).shift(-1))
    want, code = analyze_curve(c)
    assert len(classify_type(c).moves) == 4
    monkeypatch.setattr(curves_module, "_reduction_cap", lambda prof: 0)
    with pytest.raises(NonTermination, match="handsome reduction cap exceeded: 0 kill moves tried at depth 0"):
        reduce_to_handsome(c)
    report, code2 = analyze_curve(c)
    assert report["classification"] == {"error": "handsome reduction cap exceeded: 0 kill moves tried at depth 0"}
    assert code2 == code
    assert {k: v for k, v in report.items() if k not in ("classification", "regularity")} == {
        k: v for k, v in want.items() if k not in ("classification", "regularity")
    }
