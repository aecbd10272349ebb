"""Inputs and operations of the three benchmark workloads.

Every input is made from the workload seed; the program only ever sees the
generated curves.  One operation takes one curve to its checked result:

* ``grid``: one point of ``catalog.default_grid()``, generated, certified,
  classified and audited the way ``annuli catalog verify`` does it, then every
  finite singular point cross-checked by the semigroup oracle, as acceptance
  criterion 8 does.  The grid does not depend on the seed.
* ``refute`` and ``fields``: one curve file taken through
  ``io.parse_curve_file`` -> ``reports.analyze_curve`` ->
  ``reports.report_json``, as ``annuli analyze`` does it.

The workloads call the package only through its public functions, so that
the benchmark keeps measuring the same work while the modules behind them
change.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

from annuli import catalog, certify, curves, io, reports
from annuli.laurent import LaurentPoly

WORKLOADS = ("grid", "refute", "fields")

# Random curves: one component shape (x span, y span) per curve, cycled in a
# fixed order so that every seed draws the same mix of sizes.  The spans of
# the two components are coprime: the degree of a Laurent map is its span, so
# no such curve is composite (phi, psi in C[h] with deg h >= 2), and no
# component pair is affinely dependent.  Composite curves are left out because
# the ledger does not terminate on them.  Spans stop at 7 with a sum of at
# most 10: with sums of 11 and 12 single curves take up to several seconds in
# the injectivity certificate (larger ones minutes), and the run-to-run spread
# of the wall time grows past the benchmark's bound.
REFUTE_MAX_SPAN = 7
REFUTE_MAX_SPAN_SUM = 10
REFUTE_PASSES = 16
FIELDS_MAX_SPAN = 6
FIELDS_MAX_SPAN_SUM = 9
FIELDS_PASSES = 6
FIELDS_D = (2, 5, -3)
INTERIOR_TERM_PROB = 0.4


def coprime_shapes(max_span: int, max_sum: int) -> list[tuple[int, int]]:
    """(x span, y span) pairs; x spans from 2 up, y spans from 1 up."""
    return [
        (a, b)
        for a in range(2, max_span + 1)
        for b in range(1, max_span + 1)
        if gcd(a, b) == 1 and a + b <= max_sum
    ]


def _component(layout: random.Random, rng: random.Random, span: int, bot: int, coef) -> dict:
    """{exponent: (a, b)} from bot to bot + span; `layout` picks the interior
    exponents and the size of every coefficient, `rng` its signs."""
    exps = [bot] + [e for e in range(bot + 1, bot + span) if layout.random() < INTERIOR_TERM_PROB] + [bot + span]
    return {e: coef(layout, rng, e in (bot, bot + span)) for e in exps}


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _rational_coef(layout: random.Random, rng: random.Random, _end: bool):
    return (Fraction(layout.choice((1, 2, 3)) * _sign(rng)), Fraction(0))


def _surd_coef(layout: random.Random, rng: random.Random, end: bool):
    """a + b sqrt(d) with integer a, b; the end coefficients always carry a surd part."""
    a = layout.randint(0, 2)
    b = layout.choice((1, 2)) if end else layout.randint(0, 2)
    if a == 0 and b == 0:
        a = 1
    return (Fraction(a * _sign(rng)), Fraction(b * _sign(rng)))


def curve_text(d: int, x: dict, y: dict) -> str:
    """A curve file in the documented JSON format, written without the package."""

    def comp(terms):
        return [[e, str(terms[e][0]), str(terms[e][1])] for e in sorted(terms)]

    return json.dumps({"field": {"d": d}, "x": comp(x), "y": comp(y)})


def _random_curves(workload, rng, passes, d_cycle, max_span, max_sum, coef) -> list[tuple[str, str]]:
    """One curve of every shape per pass.

    x has a pole at both places (bot <= -1 < 1 <= top), so every curve is a
    proper annulus; y has top >= 1 and bot <= 0.  Pass k takes the k-th
    placement (bot_x, bot_y) of each shape and the field d_cycle[k mod len].
    The interior exponents come from a generator that does not depend on the
    seed, so every seed runs the same supports and the seed draws only the
    coefficients: the size mix, which sets the run time, stays fixed.
    """
    layout = random.Random(f"{workload}:layout")
    out = []
    for k in range(passes):
        d = d_cycle[k % len(d_cycle)]
        for sx, sy in coprime_shapes(max_span, max_sum):
            placements = [(bx, by) for bx in range(1 - sx, 0) for by in range(1 - sy, 1)]
            bx, by = placements[k % len(placements)]
            x = _component(layout, rng, sx, bx, coef)
            y = _component(layout, rng, sy, by, coef)
            out.append((f"random[{len(out)}]", curve_text(d, x, y)))
    return out


def _laurent_text(curve: curves.ParametricCurve, d: int) -> str:
    def terms(f: LaurentPoly) -> dict:
        return {e: (Fraction(str(c.a)), Fraction(str(c.b))) for e, c in f.coeffs.items()}

    return curve_text(d, terms(curve.phi), terms(curve.psi))


def negative_fixtures() -> list[tuple[str, curves.ParametricCurve]]:
    """The seven self-intersecting fixtures of criterion 6 and the printed (w) form."""
    t = LaurentPoly.t
    half = Fraction(1, 2)
    out = [
        ("wide-quartic (r=2, a=1)", curves.ParametricCurve(((t(1) - 1) ** 2 * (t(1) + 1)).shift(-2), ((t(1) - 1) ** 4).shift(-2))),
        ("narrow-quartic (d=1, k=0, b=1)", curves.ParametricCurve(((t(1) - 1) ** 4).shift(-2), ((t(1) - 1) ** 2 * (t(1) + 1)).shift(-1))),
    ]
    for alpha, beta in ((1, half), (3, half), (2, 1), (2, -half), (half, half)):
        x = ((t(1) - 1) ** 2 * (t(1) + LaurentPoly.const(str(alpha)))).shift(-1)
        y = ((t(1) - 1) ** 2 * (t(1) + LaurentPoly.const(str(beta)))).shift(-2)
        out.append((f"(w)-family a={alpha}, b={beta}", curves.ParametricCurve(x, y)))
    out.append(("(w) as printed", curves.ParametricCurve(t(2) + t(-2) * 2, t(1) * 2 + t(-2))))
    return out


FIELDS_MEMBERS = [("r", {"n": n}) for n in range(4)] + [("s", {"n": n}) for n in range(1, 8)] + [("v", {})]


def make_inputs(workload: str, seed: int, scale: float = 1.0) -> list[tuple[str, object]]:
    """(label, input) per operation.  ``scale`` < 1 shrinks the random part (tests)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grid":
        grid = catalog.default_grid()
        if scale < 1:
            grid = grid[:: max(1, round(1 / scale))]
        # generate every point up front; the operation generates it again, as
        # `catalog verify` does, and these copies serve the checks
        return [(str(sid), (sid, catalog.gen_series(sid))) for sid in grid]
    if workload == "refute":
        fixed = [(name, _laurent_text(c, 1)) for name, c in negative_fixtures()]
        passes = max(1, round(REFUTE_PASSES * scale))
        return fixed + _random_curves(workload, rng, passes, (1,), REFUTE_MAX_SPAN, REFUTE_MAX_SPAN_SUM, _rational_coef)
    if workload == "fields":
        fixed = []
        for letter, params in FIELDS_MEMBERS:
            sid = catalog.series_id(letter, **params)
            c = catalog.gen_series(sid)
            fixed.append((str(sid), _laurent_text(c, c.field_tag())))
        passes = max(1, round(FIELDS_PASSES * scale))
        return fixed + _random_curves(workload, rng, passes, FIELDS_D, FIELDS_MAX_SPAN, FIELDS_MAX_SPAN_SUM, _surd_coef)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def grid_operation(item) -> dict:
    """`catalog verify` on one grid point, then the oracle on every singular point."""
    sid, _ = item
    curve = catalog.gen_series(sid)
    prim = curves.detect_nonprimitive(curve)
    verdict = certify.embedding_verdict(curve)
    led = verdict.ledger
    ok_expected, _ = catalog.match_expected(sid, led.finite)
    cl = curves.classify_type(curve)
    reg = certify.regularity_check(led, cl)
    audit = certify.estimates_audit(curve, led)
    oracle = []
    for e in led.finite:
        bound = e.mu + e.n + 4
        oracle.append([[repr(f), dl] for f, dl in certify.oracle_delta_at_factor(curve, e.factor, bound=bound)])
    return {
        "flags": {
            "primitive": prim["kind"] == "Primitive",
            "embedding": verdict.kind == "Embedding",
            "balanced": led.balanced,
            "euler": led.euler_ok,
            "expected_invariants": ok_expected,
            "regularity": reg.ok,
            "estimates_audit": all(r.ok for r in audit),
        },
        "ledger": led,
        "oracle": oracle,
    }


def analyze_operation(text: str) -> dict:
    """`annuli analyze` on one curve file: the JSON report and the exit code."""
    report, code = reports.analyze_curve(io.parse_curve_file(text))
    return {"report": reports.report_json(report), "code": code}


def run_operation(workload: str, item) -> dict:
    return grid_operation(item) if workload == "grid" else analyze_operation(item)


# ---------------------------------------------------------------------------
# plain records for the checks (built outside the timed region)
# ---------------------------------------------------------------------------


def _terms(f: LaurentPoly) -> list:
    return [[e, str(c.a), str(c.b)] for e, c in sorted(f.coeffs.items())]


def grid_record(label: str, item, result: dict) -> dict:
    sid, curve = item
    led = result["ledger"]
    if led.tangency is not None:
        index_sum = led.tangency.index_inf + led.tangency.index_0
    else:
        index_sum = led.place_inf.index + led.place_0.index
    exp = catalog.expected_invariants(sid)
    return {
        "id": label,
        "curve": {"field": {"d": curve.field_tag()}, "x": _terms(curve.phi), "y": _terms(curve.psi)},
        "flags": result["flags"],
        "two_delta_max": led.two_delta_max,
        "two_delta_inf": led.two_delta_inf,
        "index_sum": index_sum,
        "finite": [
            {"factor": repr(e.factor), "orbit": e.orbit, "mu": e.mu, "mult": e.mult, "oracle": o}
            for e, o in zip(led.finite, result["oracle"])
        ],
        "expected": sorted([p["mu"], p["mult"]] for p in exp.points),
    }


def analyze_record(label: str, result: dict) -> dict:
    """The report stays a string while rounds run; the checks parse it."""
    return {"id": label, "code": result["code"], "report": result["report"]}
