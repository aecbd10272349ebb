"""Benchmark of the annulus certifier on the fractions backend.

    python3 annuli_bench/run.py --workload grid|refute|fields --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.  The
run sets up the workload's inputs from the seed, repeats whole rounds of its
operations in this single thread until ``--seconds`` have passed (at least
one round), checks every output apart from the program (``checks.py``), and
prints one JSON object as the last line of its standard output.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of a
round), ``curve_p50_s`` and ``curve_p90_s`` (over the operations, each timed
by its median over the rounds), ``peak_rss_mb`` (peak resident memory before the checks
start) and ``setup_s`` (median of several fresh-interpreter set-ups, see
``setup_probe.py``).  ``--trace 1`` wraps the package's functions from
outside (``layer_trace.py``) and reports the per-layer metrics per round, plus the
traced round time ``trace.wall_s``; it writes the spans to ``results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


def setup_samples(workload: str, seed: int, scale: float, count: int) -> list:
    """Seconds of `count` fresh-interpreter set-ups: import annuli, make the inputs."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, probe, workload, str(seed), str(scale)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_rounds(workloads, workload: str, inputs: list, seconds: float, tracer=None):
    """Whole rounds until `seconds` have passed.

    Returns the round times, the operation times (round by round), the first
    round's records, the rounds whose records differ from the first, and the
    number of failed operations.
    """
    walls, op_times, first, differing, failed = [], [], None, [], 0
    clock = time.perf_counter
    start = clock()
    while True:
        results = []
        gc.collect()  # every round starts from a collected heap
        t_round = clock()
        for i, (_, item) in enumerate(inputs):
            if tracer is not None:
                tracer.operation = i
            t0 = clock()
            try:
                res = workloads.run_operation(workload, item)
            except Exception as exc:  # a failed operation is counted, the run goes on
                res = {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
            op_times.append(clock() - t0)
            results.append(res)
        walls.append(clock() - t_round)
        records = []
        for (label, item), res in zip(inputs, results):
            if "error" in res:
                failed += 1
                records.append({"id": label, "error": res["error"], "traceback": res["traceback"]})
            elif workload == "grid":
                records.append(workloads.grid_record(label, item, res))
            else:
                records.append(workloads.analyze_record(label, res))
        del results
        if first is None:
            first = records
        elif records != first:
            differing.append(len(walls))
        if clock() - start >= seconds:
            return walls, op_times, first, differing, failed


def check_records(checks, workloads, workload: str, records: list) -> list:
    """Errors found in one round's records."""
    errors = []
    fixed = {name for name, _ in workloads.negative_fixtures()} if workload == "refute" else set()
    for rec in records:
        if "error" in rec:
            continue
        try:
            if workload == "grid":
                errs = checks.check_grid(rec)
            else:
                errs = checks.check_analysis(rec, must_refute=rec["id"] in fixed)
        except Exception as exc:  # a check that cannot run counts as failed
            errs = [f"check raised {type(exc).__name__}: {exc}"]
        errors += [f"{rec['id']}: {e}" for e in errs]
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("grid", "refute", "fields"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="shrink the workload (tests only)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "annuli", "__init__.py")):
        print(f"error: no package at {SRC}/annuli; run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ["ANNULI_SCALAR_BACKEND"] = "fractions"  # set-up probes inherit it
    sys.path.insert(0, SRC)
    import workloads

    phases = {}
    t_phase = time.perf_counter()
    setups = []
    if not args.trace:
        # half of the set-ups before the rounds and half after, so that the
        # median spans the run rather than one moment of the host's load
        setups = setup_samples(args.workload, args.seed, args.scale, SETUP_PROBES // 2)
    inputs = workloads.make_inputs(args.workload, args.seed, args.scale)
    phases["setup"] = time.perf_counter() - t_phase

    tracer = None
    if args.trace:
        from layer_trace import Tracer

        tracer = Tracer()
        tracer.install()
    walls, op_times, records, differing, failed = run_rounds(workloads, args.workload, inputs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    else:
        setups += setup_samples(args.workload, args.seed, args.scale, SETUP_PROBES - len(setups))
    phases["rounds"] = sum(walls)

    t_phase = time.perf_counter()
    import checks

    errors = check_records(checks, workloads, args.workload, records)
    errors += [f"round {k} gave other outputs than round 1" for k in differing]
    phases["checks"] = time.perf_counter() - t_phase
    wall_s = statistics.median(walls)
    # one time per operation: its median over the rounds
    per_op = [statistics.median(op_times[i::len(inputs)]) for i in range(len(inputs))]
    if tracer is not None:
        metrics = tracer.metrics(len(walls))
        metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "curve_p50_s": {"value": statistics.median(per_op), "unit": "s"},
            "curve_p90_s": {"value": statistics.quantiles(per_op, n=10)[-1], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }

    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "rounds": len(walls), "round_walls": walls,
        "operations": [label for label, _ in inputs], "op_times": op_times, "errors": errors,
        "failures": [r for r in records if "error" in r], "phase_seconds": phases, "metrics": metrics,
    }
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(RESULTS, f"trace-{stem}.json"), {"workload": args.workload, "seed": args.seed,
                                                                  "operations": detail["operations"]})

    for e in errors[:20]:
        print(f"CHECK FAILED {e}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(walls) * len(inputs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
