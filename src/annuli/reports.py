"""Deterministic machine-readable analysis reports.

All numeric payloads are exact: integers stay integers, scalars are emitted as
canonical fraction / surd strings.  Regenerating a report from the same input
yields byte-identical JSON.
"""

from __future__ import annotations

import json
import os
import traceback

from .catalog import SeriesId, expected_invariants, gen_series, match_expected
from .certify import (
    LedgerMismatch,
    embedding_verdict,
    estimates_audit,
    regularity_check,
)
from .curves import (
    NonTermination,
    ParametricCurve,
    Unclassifiable,
    classify_type,
    detect_nonprimitive,
    exponent_profile,
)
from .io import emit_curve
from .local import is_tangent, leading_invariants, place_subordinate_series


def analyze_curve(curve: ParametricCurve) -> tuple[dict, int]:
    """Full analysis report and the CLI exit code (0 embedding, 3 otherwise)."""
    report: dict = {"curve": emit_curve(curve)}
    curve.check_admissible()
    prof = exponent_profile(curve)
    report["profile"] = prof.as_dict()
    report["tangent_case"] = is_tangent(prof)
    prim = detect_nonprimitive(curve)
    report["primitivity"] = prim
    if prim["kind"] == "PowerCover":
        report["verdict"] = {"verdict": "NotEmbedding", "reason": f"PowerCover {prim['d']}"}
        return report, 3

    try:
        cl = classify_type(curve)
        report["classification"] = cl.as_dict()
    except (Unclassifiable, NonTermination) as exc:
        cl = None
        report["classification"] = {"error": str(exc)}

    verdict = embedding_verdict(curve)
    report["verdict"] = verdict.as_dict()
    led = verdict.ledger
    if led is None:
        report["ledger"] = {"error": verdict.ledger_error or "place not at infinity: not a proper annulus"}
    else:
        report["ledger"] = led.as_dict()
        report["balance_equation"] = "{} = {} + {}".format(
            led.two_delta_max,
            "+".join(str(e.mu) for e in led.finite for _ in range(e.orbit)) or "0",
            led.two_delta_inf,
        )
        if cl is not None:
            reg = regularity_check(led, cl)
            report["regularity"] = reg.as_dict()
        report["audits"] = [row.as_dict() for row in estimates_audit(curve, led)]
    return report, 0 if verdict.kind == "Embedding" else 3


def verify_catalog_entry(sid: SeriesId) -> dict:
    """One grid point of `catalog verify`: generate, certify, compare, audit."""
    out: dict = {"id": sid.as_dict(), "status": "pass", "checks": {}}
    try:
        curve = gen_series(sid)
    except Exception as exc:
        out["status"] = "excluded"
        out["reason"] = str(exc)
        return out
    try:
        checks = out["checks"]
        prim = detect_nonprimitive(curve)
        checks["primitive"] = prim["kind"] == "Primitive"
        verdict = embedding_verdict(curve)
        checks["embedding"] = verdict.kind == "Embedding"
        led = verdict.ledger
        checks["balanced"] = bool(led and led.balanced)
        checks["euler"] = bool(led and led.euler_ok)
        ok, msg = match_expected(sid, led.finite) if led else (False, "no ledger")
        checks["expected_invariants"] = ok
        if not ok:
            out["expected_detail"] = msg
        cl = classify_type(curve)
        reg = regularity_check(led, cl)
        checks["regularity"] = reg.ok
        out["regularity_margin"] = reg.margin
        audit_rows = estimates_audit(curve, led)
        checks["estimates_audit"] = all(r.ok for r in audit_rows)
        if not checks["estimates_audit"]:
            out["audit_failures"] = [r.as_dict() for r in audit_rows if not r.ok]
        exp = expected_invariants(sid)
        notes_ok = _verify_place_notes(curve, exp.place_notes)
        if notes_ok is not None:
            checks["place_notes"] = notes_ok
        if not all(checks.values()):
            out["status"] = "fail"
    except LedgerMismatch as exc:
        out["status"] = "fail"
        out["reason"] = f"ledger mismatch: {exc}"
    except Exception as exc:
        out["status"] = "error"
        out["reason"] = f"{type(exc).__name__}: {exc}"
        out["traceback"] = _traceback_tail(exc)
    return out


_TRACEBACK_FRAMES = 6


def _traceback_tail(exc: BaseException) -> list[str]:
    """The innermost frames of `exc` as 'file.py:line in function', outermost first.

    File names are bare so that the entry reads the same on every install.
    """
    frames = traceback.extract_tb(exc.__traceback__)[-_TRACEBACK_FRAMES:]
    return [f"{os.path.basename(f.filename)}:{f.lineno} in {f.name}" for f in frames]


def _verify_place_notes(curve: ParametricCurve, notes: dict) -> bool | None:
    if not notes:
        return None
    ok = True
    if "place_0_y_in_x_prefix" in notes:
        want = notes["place_0_y_in_x_prefix"]
        _, _, sub = place_subordinate_series(curve, "0", 24, force_base="x")
        got = [sub.val + i for i, c in enumerate(sub.cs) if not c.is_zero()][: len(want)]
        ok = ok and got == want
    if "lead_invariant_match" in notes:
        E, F = leading_invariants(curve)
        ok = ok and (E == F) == notes["lead_invariant_match"]
    return ok


def report_json(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"
