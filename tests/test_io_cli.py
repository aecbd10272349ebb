import json

import pytest

from annuli import cli, rings
from annuli.catalog import gen_series, series_id
from annuli.certify import LedgerMismatch
from annuli.cli import main
from annuli.curves import NonTermination, ParametricCurve
from annuli.io import (
    ParseError,
    emit_curve_file,
    parse_curve_file,
    parse_point_factor,
)
from annuli.laurent import LaurentPoly
from annuli.scalars import Scalar

t = LaurentPoly.t


def test_parse_basic_example():
    doc = '{"field":{"d":1},"x":[[0,"-1","0"],[1,"1","0"]],"y":[[-1,"1","0"]]}'
    c = parse_curve_file(doc)
    assert c.phi == t(1) - 1
    assert c.psi == t(-1)


def test_round_trip_stability():
    for sid in (series_id("w"), series_id("s", n=1), series_id("v"), series_id("r", n=0)):
        c = gen_series(sid)
        text = emit_curve_file(c)
        c2 = parse_curve_file(text)
        assert c2.phi == c.phi and c2.psi == c.psi
        assert emit_curve_file(c2) == text


def test_duplicate_exponent_rejected():
    doc = '{"field":{"d":1},"x":[[1,"1","0"],[1,"2","0"]],"y":[[-1,"1","0"]]}'
    with pytest.raises(ParseError):
        parse_curve_file(doc)


def test_unsorted_exponents_rejected():
    doc = '{"field":{"d":1},"x":[[2,"1","0"],[0,"1","0"]],"y":[[-1,"1","0"]]}'
    with pytest.raises(ParseError):
        parse_curve_file(doc)


def test_zero_coefficient_rejected():
    doc = '{"field":{"d":1},"x":[[1,"0","0"]],"y":[[-1,"1","0"]]}'
    with pytest.raises(ParseError):
        parse_curve_file(doc)


def test_surd_requires_field():
    doc = '{"field":{"d":1},"x":[[1,"1","1"]],"y":[[-1,"1","0"]]}'
    with pytest.raises(ParseError):
        parse_curve_file(doc)


def test_json_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_curve_file("{invalid")
    assert "line" in str(exc.value)


@pytest.mark.parametrize(
    "doc, where",
    [
        ('{"field":{"d":4},"x":[[1,"1","1"]],"y":[[-1,"1","0"]]}', "at field"),
        ('{"field":{"d":0},"x":[[1,"1","0"]],"y":[[-1,"1","0"]]}', "at field"),
        ('{"field":{"d":1},"x":5,"y":[[-1,"1","0"]]}', "at x$"),
        ('{"field":{"d":1},"x":[[true,"1","0"]],"y":[[-1,"1","0"]]}', r"at x\[0\]"),
    ],
    ids=["field_tag_4", "field_tag_0", "component_not_a_list", "boolean_exponent"],
)
def test_malformed_curve_file_is_a_parse_error(tmp_path, capsys, doc, where):
    with pytest.raises(ParseError, match=where):
        parse_curve_file(doc)
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("point", ["t^x", "t+1/0"], ids=["exponent_not_an_integer", "zero_denominator"])
def test_malformed_point_is_a_parse_error(tmp_path, capsys, point):
    with pytest.raises(ParseError, match="bad term"):
        parse_point_factor(point)
    u = tmp_path / "u.json"
    assert main(["catalog", "gen", "--series", "u", "--out", str(u)]) == 0
    capsys.readouterr()
    assert main(["oracle", "delta", str(u), "--point", point]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_parse_point_factor():
    assert parse_point_factor("t^2+t+1") == LaurentPoly({2: 1, 1: 1, 0: 1})
    assert parse_point_factor("t-1/2") == LaurentPoly({1: 1, 0: Scalar("-1/2")})
    f = parse_point_factor("t+(3+1*sqrt(5))/2", 5)
    assert f[0] == Scalar("3/2") + Scalar(0, "1/2", 5)


def test_cli_analyze_exit_codes(tmp_path):
    w_path = tmp_path / "w.json"
    assert main(["catalog", "gen", "--series", "w", "--out", str(w_path)]) == 0
    assert main(["analyze", str(w_path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(emit_curve_file(gen_series(series_id("w"))).replace('"1"', '"1"', 1))
    # power cover: exit 3
    pc = tmp_path / "pc.json"
    pc.write_text('{"field":{"d":1},"x":[[2,"1","0"]],"y":[[4,"1","0"]]}')
    assert main(["analyze", str(pc)]) == 3
    # parse error: exit 1
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["analyze", str(broken)]) == 1
    # excluded params: exit 2
    assert main(["catalog", "gen", "--series", "b", "--k", "1", "--m", "0"]) == 2


def test_cli_analyze_self_intersection_exit_code(tmp_path):
    fx = tmp_path / "fx.json"
    from annuli.curves import ParametricCurve
    from annuli.io import emit_curve_file as emit

    c = ParametricCurve(((t(1) - 1) ** 4).shift(-2), ((t(1) - 1) ** 2 * (t(1) + 1)).shift(-1))
    fx.write_text(emit(c))
    assert main(["analyze", str(fx)]) == 3


def test_cli_report_deterministic(tmp_path):
    w = tmp_path / "w.json"
    main(["catalog", "gen", "--series", "w", "--out", str(w)])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["analyze", str(w), "--json", str(r1)])
    main(["analyze", str(w), "--json", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "(w)" in out and "(a)" in out


def test_cli_verify_series_b_with_ranges_and_jobs(tmp_path, capsys):
    out1 = tmp_path / "v1.json"
    code = main(["catalog", "verify", "--series", "b", "--k", "1..3", "--m", "0..2", "--json", str(out1)])
    assert code == 0
    text = capsys.readouterr().out
    assert "SKIP" in text  # the excluded points are reported, not hidden
    res = json.loads(out1.read_text())
    skipped = [r for r in res if r["status"] == "excluded"]
    assert len(skipped) == 3  # (1,0), (2,0), (1,1)
    passed = [r for r in res if r["status"] == "pass"]
    assert len(passed) == 6
    out2 = tmp_path / "v2.json"
    code = main(["catalog", "verify", "--series", "b", "--k", "1..3", "--m", "0..2", "--jobs", "2", "--json", str(out2)])
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()  # jobs-invariant output


def test_cli_gen_series_j(tmp_path, capsys):
    assert main(["catalog", "gen", "--series", "j", "--m", "1", "--n", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    c = parse_curve_file(json.dumps(doc))
    assert c.phi == LaurentPoly({3: 1, 1: -3})  # Z_{1,1} = t^3 - 3t
    assert c.psi == t(1) + t(-1)


def test_cli_oracle_delta(tmp_path, capsys):
    u = tmp_path / "u.json"
    main(["catalog", "gen", "--series", "u", "--out", str(u)])
    capsys.readouterr()
    assert main(["oracle", "delta", str(u), "--point", "t-1", "--bound", "20"]) == 0
    out = capsys.readouterr().out
    assert "delta = 4" in out


def test_cli_oracle_delta_refines_a_factor_whose_roots_differ(tmp_path, capsys):
    """On (w), t = 1 is the cusp and t = 2 a smooth point: the oracle splits
    t^2 - 3t + 2 and prints one line per refined factor."""
    w = tmp_path / "w.json"
    assert main(["catalog", "gen", "--series", "w", "--out", str(w)]) == 0
    capsys.readouterr()
    assert main(["oracle", "delta", str(w), "--point", "t^2-3*t+2"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.splitlines() == ["factor t - 1: delta = 1", "factor t - 2: delta = 0"]


def test_point_surd_outside_the_curve_field_is_a_parse_error(tmp_path, capsys):
    with pytest.raises(ParseError, match=r"sqrt\(2\) is not in the curve's field"):
        parse_point_factor("t-sqrt(2)", 5)
    v = tmp_path / "v.json"
    assert main(["catalog", "gen", "--series", "v", "--out", str(v)]) == 0
    capsys.readouterr()
    assert main(["oracle", "delta", str(v), "--point", "t-sqrt(2)"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_oracle_bound_below_the_conductor_is_an_invalid_parameter(tmp_path, capsys):
    u = tmp_path / "u.json"
    assert main(["catalog", "gen", "--series", "u", "--out", str(u)]) == 0
    capsys.readouterr()
    assert main(["oracle", "delta", str(u), "--point", "t-1", "--bound", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_analyze_composite_curve_exits_3(tmp_path, capsys):
    path = tmp_path / "composite.json"
    path.write_text(emit_curve_file(ParametricCurve(t(1) + t(-1), t(3) + t(-3))))
    assert main(["analyze", str(path)]) == 3
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["ledger"]["error"].startswith("improper parametrization: point t - 1")


def test_cli_analyze_curve_with_a_finite_place_has_no_ledger(tmp_path, capsys):
    """The place 0 of x = t^3 - 3t^2 + 3t, y = 2t^3 - 5t^2 + 4t is the point
    (0, 0), so the curve is no annulus and its ledger is not computed."""
    path = tmp_path / "finite_place.json"
    path.write_text(emit_curve_file(ParametricCurve(t(3) - t(2) * 3 + t(1) * 3, t(3) * 2 - t(2) * 5 + t(1) * 4)))
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    report = json.loads(out.out)
    assert report["verdict"]["verdict"] == "Embedding" and report["verdict"]["annulus_proper"] is False
    assert report["ledger"] == {"error": "place not at infinity: not a proper annulus"}


def test_cli_analyze_reports_a_ledger_mismatch_as_an_internal_error(tmp_path, capsys, monkeypatch):
    """An injectivity certificate that disagrees with the ledger is an internal
    error: `error: internal: ...` and exit 1, not a traceback."""

    def mismatch(curve):
        raise LedgerMismatch("injective certificate but no ledger")

    monkeypatch.setattr(cli, "analyze_curve", mismatch)
    path = tmp_path / "w.json"
    path.write_text(emit_curve_file(gen_series(series_id("w"))))
    assert main(["analyze", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: internal: injective certificate but no ledger\n"


def test_budget_errors_are_error_lines(tmp_path, capsys, monkeypatch):
    """An exhausted branch or reduction budget ends `annuli analyze` in an
    `error: budget: ...` line and exit 1, not a traceback."""
    narrow = ParametricCurve(((t(1) - 1) ** 4).shift(-2), ((t(1) - 1) ** 2 * (t(1) + 1)).shift(-1))
    path = tmp_path / "narrow.json"
    path.write_text(emit_curve_file(narrow))
    assert main(["analyze", str(path)]) == 3
    capsys.readouterr()
    monkeypatch.setattr(rings, "MAX_BRANCHES", 1)
    assert main(["analyze", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: budget: dynamic evaluation split explosion: 1 branches, last split at level 'wv'\n"
    monkeypatch.undo()

    def stuck(curve):
        raise NonTermination("handsome reduction cap exceeded: 0 kill moves tried at depth 0")

    monkeypatch.setattr(cli, "analyze_curve", stuck)
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == "error: budget: handsome reduction cap exceeded: 0 kill moves tried at depth 0\n"
