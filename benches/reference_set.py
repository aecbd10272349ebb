"""Print one `label sha256` line per record of the reference report set.

The records are `reports.analyze_curve` and `reports.verify_catalog_entry` at
every point of `catalog.default_grid()`, with `certify.oracle_delta_at_factor`
at each of its finite singular points (bound mu + n + 4, as acceptance
criterion 8 and the benchmark use), and `reports.analyze_curve` on every
`refute` and `fields` input of benchmark seeds 1 and 2
(`annuli_bench.workloads.make_inputs`).  A record that raises hashes its
exception instead.  Two trees give byte-identical reports when their outputs
do not differ:

    python benches/reference_set.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from annuli import catalog, certify, io, reports  # noqa: E402
from annuli_bench.workloads import make_inputs  # noqa: E402

SEEDS = (1, 2)


def _digest(make) -> str:
    try:
        text = make()
    except Exception as exc:
        text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def _analyze(curve) -> str:
    report, code = reports.analyze_curve(curve)
    return f"{code}\n{reports.report_json(report)}"


def _oracle(sid) -> str:
    curve = catalog.gen_series(sid)
    out = []
    for e in certify.ph_ledger(curve).finite:
        deltas = certify.oracle_delta_at_factor(curve, e.factor, bound=e.mu + e.n + 4)
        out.append([repr(e.factor), [[repr(f), dl] for f, dl in deltas]])
    return json.dumps(out)


def main() -> int:
    for sid in catalog.default_grid():
        print(f"grid analyze {sid}", _digest(lambda: _analyze(catalog.gen_series(sid))), flush=True)
        print(f"grid verify {sid}", _digest(lambda: json.dumps(reports.verify_catalog_entry(sid), sort_keys=True)), flush=True)
        print(f"grid oracle {sid}", _digest(lambda: _oracle(sid)), flush=True)
    for workload in ("refute", "fields"):
        for seed in SEEDS:
            for label, text in make_inputs(workload, seed):
                print(f"{workload}:{seed} {label}", _digest(lambda: _analyze(io.parse_curve_file(text))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
