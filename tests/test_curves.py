import pytest

from annuli import curves as curves_module
from annuli.catalog import gen_series, series_id
from annuli.curves import (
    ALL_TAGS,
    MINUS_MINUS,
    MINUS_PLUS,
    MIXED,
    PLUS_PLUS,
    Classification,
    NonTermination,
    ParametricCurve,
    Unclassifiable,
    apply_automorphism,
    classify_type,
    detect_nonprimitive,
    dim_curv,
    exponent_profile,
    is_handsome_profile,
    reduce_to_handsome,
    row_match,
    _kill_moves,
    _strip_constants,
)
from annuli.laurent import ConstantComponent, LaurentPoly
from annuli.reports import analyze_curve
from annuli.scalars import Scalar

t = LaurentPoly.t


# -- references: the handsome test and the level-by-level search --------------


def is_handsome(curve: ParametricCurve) -> bool:
    """True iff the curve, as positioned, matches a type row handsomely."""
    pr = exponent_profile(curve)
    for tag in ALL_TAGS:
        if row_match(pr, tag):
            return is_handsome_profile(pr, tag)
    return False


_REF_SYMS = (
    ("id", lambda c: c, []),
    ("inv_t", lambda c: c.inv_t(), [{"kind": "inv_t"}]),
    ("swap", lambda c: c.swapped(), [{"kind": "swap_xy"}]),
    ("swap_inv", lambda c: c.swapped().inv_t(), [{"kind": "swap_xy"}, {"kind": "inv_t"}]),
)


def _ref_handsome_matches(curve: ParametricCurve):
    res = []
    for name, f, mv in _REF_SYMS:
        c2 = f(curve)
        pr = exponent_profile(c2)
        for tag in ALL_TAGS:
            if row_match(pr, tag) and is_handsome_profile(pr, tag):
                res.append((name, tag, c2, mv, pr))
    return res


def ref_reduce_to_handsome(curve: ParametricCurve) -> Classification:
    """The BFS that expands a whole level before it looks at it: each curve of
    a frontier is checked for a handsome match, with every symmetric image
    built and profiled, before the kill moves of the next level are made."""
    curve.check_admissible()
    pc = detect_nonprimitive(curve)
    if pc["kind"] == "PowerCover":
        raise Unclassifiable(f"curve is multiply covered (t^{pc['d']})")
    cap = curves_module._reduction_cap(exponent_profile(curve))
    log0: list = []
    start = _strip_constants(curve, log0)
    frontier = [(start, log0)]
    seen = {start.key()}
    explored = depth = 0
    while frontier:
        nxt = []
        for cur, lg in frontier:
            matches = _ref_handsome_matches(cur)
            if matches:
                name, tag, c2, mv, pr = matches[0]
                all_tags = [(n, tg) for n, tg, *_ in matches]
                return Classification(tag, all_tags, c2, lg + mv, pr)
            for move in _kill_moves(cur):
                explored += 1
                if explored > cap * 8:
                    raise NonTermination(f"handsome reduction cap exceeded: {cap * 8} kill moves tried at depth {depth}")
                c2 = apply_automorphism(cur, move)
                lg2 = lg + [move]
                c2 = _strip_constants(c2, lg2)
                try:
                    c2.check_admissible()
                except ConstantComponent:
                    continue
                k = c2.key()
                if k in seen:
                    continue
                seen.add(k)
                nxt.append((c2, lg2))
        frontier = nxt
        depth += 1
        if len(frontier) > cap * 4:
            raise NonTermination(f"handsome reduction frontier explosion: {len(frontier)} curves at depth {depth}")
    raise Unclassifiable("no handsome representative found")


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


# ---------------------------------------------------------------------------
# the one-pass reduction against the level-by-level reference
# ---------------------------------------------------------------------------


def _outcome(reduce, c):
    """What a reduction gives on c: the whole Classification, or its error."""
    try:
        cl = reduce(c)
    except (Unclassifiable, NonTermination, ConstantComponent) as exc:
        return type(exc).__name__, str(exc)
    return cl.tag, cl.all_tags, cl.curve.key(), cl.moves, cl.profile


@pytest.mark.parametrize("workload,seed", [("refute", 1), ("refute", 2), ("fields", 1), ("fields", 2)])
def test_one_pass_reduction_equals_the_level_by_level_search_on_workloads(workload, seed):
    from annuli import io
    from test_certify import _workload_inputs

    for i, text in enumerate(_workload_inputs(workload, seed, 1.0)):
        c = io.parse_curve_file(text)
        assert _outcome(reduce_to_handsome, c) == _outcome(ref_reduce_to_handsome, c), (workload, seed, i)


def test_one_pass_reduction_equals_the_level_by_level_search_on_the_grid_and_its_images():
    """Every grid member, and its images under a swap or not, then
    y -> y + a x^l + b for each l <= 3."""
    import random

    from annuli.catalog import default_grid

    rng = random.Random("one-pass reduction images")
    for sid in default_grid():
        c = gen_series(sid)
        assert _outcome(reduce_to_handsome, c) == _outcome(ref_reduce_to_handsome, c), str(sid)
        for l in (1, 2, 3):
            x, y = (c.psi, c.phi) if rng.random() < 0.5 else (c.phi, c.psi)
            a, b = rng.choice((-2, -1, 1, 2)), rng.randint(-2, 2)
            image = ParametricCurve(x, y + x**l * a + LaurentPoly.const(b))
            assert _outcome(reduce_to_handsome, image) == _outcome(ref_reduce_to_handsome, image), (str(sid), l)


def test_one_pass_reduction_past_its_cap_raises_non_termination(monkeypatch):
    """(w) under y -> y + x, x -> x + y^2, y -> y + x^2, x -> x + y: the
    one-pass search tries 31 kill moves on the way back.  With a budget of 24
    it stops, as the level-by-level search does."""
    c = gen_series(series_id("w"))
    for side, l in (("y", 1), ("x", 2), ("y", 2), ("x", 1)):
        c = ParametricCurve(c.phi, c.psi + c.phi**l) if side == "y" else ParametricCurve(c.phi + c.psi**l, c.psi)
    tried = []
    real = curves_module.apply_automorphism
    monkeypatch.setattr(curves_module, "apply_automorphism", lambda cur, mv: tried.append(mv) or real(cur, mv))
    assert reduce_to_handsome(c).tag == MIXED
    assert len(tried) == 31
    monkeypatch.setattr(curves_module, "_reduction_cap", lambda prof: 3)
    for reduce in (reduce_to_handsome, ref_reduce_to_handsome):
        with pytest.raises(NonTermination, match="handsome reduction cap exceeded: 24 kill moves tried"):
            reduce(c)
