"""Randomized end-to-end consistency checks.

The injectivity certificate and the double-point balance ledger are computed
along completely independent routes; on every random curve where both apply,
an injective primitive curve must balance exactly (a mismatch raises a hard
diagnostic), and every self-intersection witness must re-verify.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from annuli.certify import embedding_verdict, verify_witness
from annuli.curves import ParametricCurve, Unclassifiable, classify_type, detect_nonprimitive
from annuli.laurent import LaurentPoly
from annuli.local import PlaceNotAtInfinity
from annuli.scalars import Scalar


def random_curve(rng: random.Random) -> ParametricCurve:
    def comp():
        top = rng.randint(1, 3)
        bot = rng.randint(-3, 0)
        coeffs = {}
        coeffs[top] = Scalar(rng.randint(1, 3))
        if bot < top:
            coeffs[bot] = Scalar(rng.randint(1, 3) * rng.choice((-1, 1)))
        for e in range(bot + 1, top):
            if rng.random() < 0.4:
                c = rng.randint(-2, 2)
                if c:
                    coeffs[e] = Scalar(c)
        return LaurentPoly(coeffs)

    return ParametricCurve(comp(), comp())


def test_injective_implies_balanced_on_random_curves():
    rng = random.Random(20260810)
    checked_inj = checked_si = 0
    for _ in range(120):
        c = random_curve(rng)
        try:
            c.check_admissible()
        except Exception:
            continue
        if detect_nonprimitive(c)["kind"] != "Primitive":
            continue
        try:
            v = embedding_verdict(c)  # raises LedgerMismatch on inconsistency
        except PlaceNotAtInfinity:
            continue
        if v.kind == "Embedding":
            checked_inj += 1
            if v.ledger is not None:
                assert v.ledger.balanced
        else:
            checked_si += 1
            for w in v.certificate.witnesses:
                if w.u_poly:
                    assert verify_witness(c, w)
    assert checked_inj >= 10 and checked_si >= 10


def test_classifier_terminates_on_random_curves():
    rng = random.Random(7_011)
    outcomes = {"ok": 0, "unclassifiable": 0}
    for _ in range(80):
        c = random_curve(rng)
        try:
            c.check_admissible()
        except Exception:
            continue
        if detect_nonprimitive(c)["kind"] != "Primitive":
            continue
        try:
            classify_type(c)
            outcomes["ok"] += 1
        except Unclassifiable:
            outcomes["unclassifiable"] += 1
    assert outcomes["ok"] >= 30


def test_fallback_backend_reproduces_reports(tmp_path):
    """The pure-Python rational backend yields byte-identical analysis reports."""
    pytest.importorskip("gmpy2")
    script = (
        "import json\n"
        "from annuli.catalog import gen_series, series_id\n"
        "from annuli.reports import analyze_curve, report_json\n"
        "rep, code = analyze_curve(gen_series(series_id('w')))\n"
        "print(report_json(rep), end='')\n"
    )
    outs = {}
    for backend in ("gmpy2", "fractions"):
        env = dict(os.environ, ANNULI_SCALAR_BACKEND=backend)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outs[backend] = proc.stdout
    assert outs["gmpy2"] == outs["fractions"]
    json.loads(outs["gmpy2"])  # well-formed


def random_composite(rng: random.Random) -> ParametricCurve:
    """phi = g1(h), psi = g2(h): a random Laurent h with poles at both places
    and span 2 or 3, polynomials g1 and g2 of degrees 1..3, one linear when h
    has span 3 and neither when it has span 2 (so no component has span 9)."""
    span = rng.randint(2, 3)
    bot = rng.randint(1 - span, -1)
    ends = (bot, bot + span)
    h = LaurentPoly({e: Scalar(rng.choice((-2, -1, 1, 2))) for e in range(bot, bot + span + 1) if e in ends or rng.random() < 0.5})
    d1, d2 = rng.choice([(2, 3), (3, 2)] if span == 2 else [(1, 2), (1, 3), (2, 1), (3, 1)])

    def poly(deg):
        out = h * rng.randint(1, 2)
        for k in range(2, deg + 1):
            out = out + h**k * rng.choice((-1, 1))
        return out

    return ParametricCurve(poly(d1), poly(d2))


def test_composite_curves_get_a_typed_ledger_error():
    """Every point of an improperly parametrized curve has two preimages: the
    certificate finds a self-intersection, and the ledger stops at the first
    site's largest window with a typed error instead of searching on."""
    from annuli.reports import analyze_curve

    rng = random.Random(20261019)
    checked = 0
    for _ in range(12):
        c = random_composite(rng)
        if detect_nonprimitive(c)["kind"] != "Primitive":
            continue
        report, code = analyze_curve(c)
        assert code == 3, c
        assert report["verdict"]["reason"] == "SelfIntersection", c
        assert report["ledger"]["error"].startswith("improper parametrization: "), c
        checked += 1
    assert checked >= 8
