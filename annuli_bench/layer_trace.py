"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces each target function with a wrapper that
counts its calls and the seconds spent inside it.  A module-level function is
replaced in every loaded module that bound it by name (``certify`` imports
``analyze_place`` and ``squarefree_part`` itself, the benchmark imports
``analyze_curve``); a method is replaced on its class.  Time is counted once
per outermost call, so recursion and a metric that covers two functions do not
count a second time.  ``uninstall()`` puts the originals back.

Stage-level calls are also kept as spans (name, start, end, parent, operation)
in memory and written when the run ends; kernel-level calls (series, Scalar,
quotient-ring arithmetic, polynomial gcds) are only aggregated, because there
are millions of them.  A target that a later version of the package no longer
has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path, span?)
TARGETS = [
    ("certify.injectivity", "annuli.certify", "injectivity_certificate", True),
    ("bipoly.double_point_system", "annuli.bipoly", "double_point_system", True),
    ("bipoly.uv_prs", "annuli.bipoly", "uv_prs", True),
    ("laurent.squarefree_part", "annuli.laurent", "squarefree_part", False),
    ("laurent.poly_gcd", "annuli.laurent", "poly_gcd", False),
    ("rings.quotient_gcd", "annuli.rings", "quotient_gcd", False),
    ("rings.explore_branches", "annuli.rings", "explore_branches", False),
    ("certify.ledger", "annuli.certify", "ph_ledger", True),
    ("local.singular_parameters", "annuli.local", "singular_parameters", True),
    ("local.analyze_place", "annuli.local", "analyze_place", True),
    ("local.tangency_delta", "annuli.local", "tangency_delta", True),
    ("series.mul", "annuli.series", "TS.mul", False),
    ("series.inv", "annuli.series", "TS.inv", False),
    ("series.reversion", "annuli.series", "TS.reversion", False),
    ("certify.oracle", "annuli.certify", "oracle_delta_at_factor", True),
    ("local.branch_series_at_point", "annuli.local", "branch_series_at_point", True),
    ("certify.delta_semigroup_oracle", "annuli.certify", "delta_semigroup_oracle", True),
    ("rings.quotient_mul", "annuli.rings", "Quotient.mul", False),
    ("rings.quotient_inv", "annuli.rings", "Quotient.inv", False),
    ("catalog.gen_series", "annuli.catalog", "gen_series", True),
    ("io.parse_curve_file", "annuli.io", "parse_curve_file", True),
    ("curves.classify", "annuli.curves", "classify_type", True),
    ("curves.classify", "annuli.curves", "detect_nonprimitive", True),
    ("certify.audit", "annuli.certify", "regularity_check", True),
    ("certify.audit", "annuli.certify", "estimates_audit", True),
    ("reports.report_json", "annuli.reports", "report_json", True),
]

# The per-layer metrics the benchmark reports (BENCHMARK.json lists the same).
PER_LAYER = [
    "certify.injectivity_s", "bipoly.double_point_system_s", "bipoly.uv_prs_s", "bipoly.uv_prs_calls",
    "laurent.squarefree_part_s", "laurent.squarefree_part_calls", "laurent.poly_gcd_s", "laurent.poly_gcd_calls",
    "rings.quotient_gcd_s", "rings.quotient_gcd_calls", "rings.explore_branches_calls", "rings.branches",
    "certify.ledger_s", "local.singular_parameters_s", "local.analyze_place_s", "local.tangency_delta_s",
    "series.mul_calls", "series.mul_s", "series.inv_s", "series.reversion_calls", "series.reversion_s",
    "certify.oracle_s", "local.branch_series_at_point_s", "certify.delta_semigroup_oracle_s",
    "scalars.mul_calls", "scalars.surd_mul_calls", "rings.quotient_mul_calls", "rings.quotient_inv_calls",
    "catalog.gen_series_s", "io.parse_curve_file_s", "curves.classify_s", "certify.audit_s",
    "reports.report_json_s",
]


def _resolve(module: str, path: str):
    obj = sys.modules.get(module)
    owner, name = obj, path
    if obj is not None and "." in path:
        cls, name = path.split(".")
        owner = getattr(obj, cls, None)
    return owner, name, getattr(owner, name, None) if owner is not None else None


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.branches = 0
        self.scalar_mul = 0
        self.scalar_surd_mul = 0
        self.spans: list = []  # [name, start_ns, end_ns, parent, operation]
        self.operation = None
        self._open: list = []  # indices of open spans
        self._depth = defaultdict(int)
        self._patched: list = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, metric: str, fn, span: bool):
        tr = self
        counted = metric + "_calls"
        clock = time.perf_counter_ns
        count_branches = metric == "rings.explore_branches"

        def wrapper(*args, **kwargs):
            tr.calls[counted] += 1
            depth = tr._depth
            depth[metric] += 1
            idx = None
            if span:
                idx = len(tr.spans)
                tr.spans.append([metric, 0, 0, tr._open[-1] if tr._open else None, tr.operation])
                tr._open.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[metric] -= 1
                if depth[metric] == 0:
                    tr.seconds[metric + "_s"] += (t1 - t0) * 1e-9
                if span:
                    tr._open.pop()
                    tr.spans[idx][1:3] = [t0, t1]
            if count_branches:
                tr.branches += len(out)
            return out

        return wrapper

    def _counted_scalar_mul(self, fn):
        tr = self

        def __mul__(a, b):
            tr.scalar_mul += 1
            if a.d != 1 or getattr(b, "d", 1) != 1:
                tr.scalar_surd_mul += 1
            return fn(a, b)

        return __mul__

    def _counted(self, metric: str, fn):
        tr = self
        counted = metric + "_calls"

        def wrapper(*args):
            tr.calls[counted] += 1
            return fn(*args)

        return wrapper

    # -- install / uninstall -------------------------------------------------------

    def _replace(self, original, wrapper, owner=None):
        if owner is not None:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
            return
        for mod in list(sys.modules.values()):
            d = getattr(mod, "__dict__", None)
            if not d:
                continue
            for attr, value in list(d.items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        for metric, module, path, span in TARGETS:
            owner, name, fn = _resolve(module, path)
            if fn is None:
                continue
            if metric in ("rings.quotient_mul", "rings.quotient_inv"):
                wrapper = self._counted(metric, fn)
            else:
                wrapper = self._timed(metric, fn, span)
            self._replace(fn, wrapper, owner if "." in path else None)
        owner, _, fn = _resolve("annuli.scalars", "Scalar.__mul__")
        if fn is not None:
            self._replace(fn, self._counted_scalar_mul(fn), owner)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric, per round of the workload."""
        raw = dict(self.seconds)
        raw.update(self.calls)
        raw["rings.branches"] = self.branches
        raw["scalars.mul_calls"] = self.scalar_mul
        raw["scalars.surd_mul_calls"] = self.scalar_surd_mul
        out = {}
        for name in PER_LAYER:
            value = raw.get(name, 0) / rounds
            out[name] = {"value": value, "unit": "s" if name.endswith("_s") else "count"}
        return out

    def write(self, path: str, meta: dict):
        doc = dict(meta)
        doc["spans"] = self.spans
        doc["seconds"] = dict(self.seconds)
        doc["calls"] = dict(self.calls)
        with open(path, "w") as fh:
            json.dump(doc, fh)
