"""Time the injectivity certificate on random curves above the benchmark's span cap.

Draws seeded random Laurent curves with x spans 8-11 and y spans 10-14.  x has
a pole at both places (bot <= -1 < 1 <= top), y has top >= 1 and bot <= 0,
and each interior exponent carries a term with probability 0.4.  Over Q
(`--field 1`) the coefficients are +-1..3; over Q(sqrt d) each is a + b sqrt(d)
with a, b in -2..2, not both zero, and the end coefficients always carry a
surd part, as the benchmark's `fields` workload draws them.  Each curve gets
its certificate
(`injectivity_certificate`) and the re-verification of every witness
(`verify_witness`) under a CPU-time alarm.  One line per curve gives the CPU
time, the verdict, the largest witness degree deg v_factor, and, for a curve
that its alarm stopped, the stage it was in:

    python benches/scaling.py --seed 11 --count 12 --alarm 60
    python benches/scaling.py --field -3 --seed 1 --count 24 --alarm 60
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from annuli.certify import injectivity_certificate, verify_witness  # noqa: E402
from annuli.curves import ParametricCurve  # noqa: E402
from annuli.laurent import LaurentPoly  # noqa: E402
from annuli.scalars import Scalar  # noqa: E402

X_SPANS = (8, 11)
Y_SPANS = (10, 14)
INTERIOR_TERM_PROB = 0.4


def coefficient(rng: random.Random, d: int, end: bool) -> Scalar:
    """+-1..3 over Q (d = 1); else a + b sqrt(d), a, b in -2..2, not both zero, b != 0 at an end."""
    if d == 1:
        return Scalar(rng.choice((-1, 1)) * rng.randint(1, 3))
    a = rng.randint(0, 2)
    b = rng.choice((1, 2)) if end else rng.randint(0, 2)
    if a == 0 and b == 0:
        a = 1
    return Scalar(a * rng.choice((-1, 1)), b * rng.choice((-1, 1)), d)


def random_curve(rng: random.Random, d: int) -> ParametricCurve:
    sx, sy = rng.randint(*X_SPANS), rng.randint(*Y_SPANS)
    bx, by = rng.randint(1 - sx, -1), rng.randint(1 - sy, 0)

    def component(bot: int, span: int) -> LaurentPoly:
        exps = [bot] + [e for e in range(bot + 1, bot + span) if rng.random() < INTERIOR_TERM_PROB] + [bot + span]
        return LaurentPoly({e: coefficient(rng, d, e in (bot, bot + span)) for e in exps})

    return ParametricCurve(component(bx, sx), component(by, sy))


class Alarm(Exception):
    """The curve's CPU-time alarm went off."""


def _on_alarm(signum, frame):
    raise Alarm


def _stage(exc: BaseException) -> str:
    """The innermost named `certify` function on the stack when the alarm
    went off (branch callbacks `fn` are skipped), then the two innermost
    package functions."""
    names = [
        f"{os.path.splitext(os.path.basename(f.filename))[0]}.{f.name}"
        for f in traceback.extract_tb(exc.__traceback__)
        if f"{os.sep}annuli{os.sep}" in f.filename
    ]
    stage = [n for n in names if n.startswith("certify.") and n != "certify.fn"][-1:]
    tail = [n for n in names[-2:] if n not in stage]
    return " > ... > ".join(" > ".join(p) for p in (stage, tail) if p)


def run_curve(curve: ParametricCurve, alarm: float) -> dict:
    row = {"x": repr(curve.phi), "y": repr(curve.psi), "stopped": None}
    signal.setitimer(signal.ITIMER_PROF, alarm)
    start = time.process_time()
    part = "certificate"
    try:
        cert = injectivity_certificate(curve)
        row["verdict"] = cert.verdict
        row["witness_degree"] = max((w.v_factor.top() for w in cert.witnesses if not isinstance(w, dict)), default=0)
        part = "verify"
        row["verified"] = all(verify_witness(curve, w) for w in cert.witnesses if not isinstance(w, dict))
    except Alarm as exc:
        row["stopped"] = f"{part}: {_stage(exc)}"
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    row["cpu_s"] = round(time.process_time() - start, 3)
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--field", type=int, default=1, help="the field tag d of Q(sqrt d); 1 for Q")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--count", type=int, default=12)
    ap.add_argument("--alarm", type=float, default=60.0, help="CPU seconds per curve")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGPROF, _on_alarm)
    rng = random.Random(args.seed)
    rows = []
    for i in range(args.count):
        curve = random_curve(rng, args.field)
        row = run_curve(curve, args.alarm)
        rows.append(row)
        if row["stopped"]:
            what = f"stopped in {row['stopped']}"
        else:
            what = f"{row['verdict']}, witness degree {row['witness_degree']}, verified {row['verified']}"
        print(f"{i:3d}  {row['cpu_s']:8.2f} s  {what}  x = {row['x']}  y = {row['y']}", flush=True)
    done = sorted(r["cpu_s"] for r in rows if not r["stopped"])
    if done:
        print(
            f"finished {len(done)}/{len(rows)}; CPU s min {done[0]:.2f}, median {statistics.median(done):.2f}, "
            f"max {done[-1]:.2f}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
