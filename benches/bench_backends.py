"""Compare the compiled rational core (gmpy2) against the pure-Python fallback.

The hot kernels are big-integer bound, so the package selects gmpy2's mpq at
import time and falls back to fractions.Fraction otherwise.  This benchmark
re-executes representative workloads in a subprocess per backend, and skips
(and names) a backend whose rational core cannot be imported.  Each row is
the best of five CPU times (`time.process_time()`) in that one process:

    python benches/bench_backends.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

WORKLOAD = textwrap.dedent(
    """
    import time, json
    try:
        import annuli._ratio as ratio
    except ImportError as exc:
        print(json.dumps({"skipped": str(exc)}))
        raise SystemExit(0)
    from annuli.laurent import LaurentPoly, make_poly, resultant, poly_gcd
    from annuli.catalog import gen_series, series_id
    from annuli.certify import ph_ledger, embedding_verdict, injectivity_certificate, oracle_delta_at_factor
    from annuli.curves import ParametricCurve
    from annuli.local import analyze_place
    from annuli.rings import SCALARS, Quotient, ring_pow
    from annuli.scalars import Scalar
    from annuli.series import TS

    out = {"backend": ratio.BACKEND}

    def best(fn):  # the least CPU time of five calls of fn
        times = []
        for _ in range(5):
            t0 = time.process_time()
            fn()
            times.append(time.process_time() - t0)
        return round(min(times), 3)

    f = make_poly(*[(i * 7919 + 13) for i in range(1, 40)])
    g = make_poly(*[(i * i * 104729 + 7) for i in range(1, 36)])
    out["resultant_deg40"] = best(lambda: [resultant(f, g) for _ in range(3)])

    h = (f * g).shift(0)
    hh = h * h.derivative()
    out["gcd_squarefree_deg149"] = best(lambda: poly_gcd(hh, hh.derivative()))

    def three_curves():
        for sid in (series_id("u"), series_id("q", m=2, n=0), series_id("e", k=2, m=1, n=3)):
            c = gen_series(sid)
            ph_ledger(c)
            embedding_verdict(c, with_ledger=False)

    out["certify_three_curves"] = best(three_curves)

    # the injectivity certificate of the grid's longest operation: one
    # subresultant chain, then the fiber decisions as gcds in Q[v]
    c = gen_series(series_id("q", m=3, n=1))
    out["injectivity_q31"] = best(lambda: injectivity_certificate(c))

    # a tower image of the catalog, x = t^7 - t^6 with y of span 14: the
    # certificate runs on the curve as given, and the subresultant chain
    # takes most of it
    c = gen_series(series_id("c", k=3, m=2, n=3))
    out["injectivity_tower_family"] = best(lambda: injectivity_certificate(c))

    # a self-intersecting random curve: linear fiber gcds over Q[v]/(m) with
    # deg m = 30, and its witness point evaluated in that ring
    c = ParametricCurve(LaurentPoly({1: 1, -4: 1, -5: -2}), LaurentPoly({5: 3, 3: 2, 2: 1, -4: 2}))
    out["injectivity_witness"] = best(lambda: injectivity_certificate(c))

    # spans 9 and 10, above the benchmark's cap: a witness modulus of degree
    # 58, whose fiber gcd is made monic by one inverse in Q[v]/(m)
    c = ParametricCurve(LaurentPoly({6: -3, 2: 1, -2: -1, -4: -2, -5: -3}), LaurentPoly({8: -1, 7: 2, 5: 3, 4: 2, -2: -3}))
    out["injectivity_degree58"] = best(lambda: injectivity_certificate(c))

    # a tangent curve over Q(sqrt -3) whose eliminant has degree 36: its
    # squarefree part, fiber decisions and inverse run over Z[sqrt -3]
    def r(a, b=0):
        return Scalar(a, b, -3)

    c = ParametricCurve(
        LaurentPoly({4: r(1, 2), 2: r(2, 1), 1: r(3), 0: r(-1, 2), -1: r(3, 1), -3: r(-2, 2), -4: r(4, 8)}),
        LaurentPoly({6: r(3), 4: r(1), 3: r(1, -2), 2: r(-1), 1: r(3), -2: r(0, -2), -3: r(1), -4: r(1), -5: r(3, 1), -6: r(24)}),
    )
    out["injectivity_sqrt_minus3"] = best(lambda: injectivity_certificate(c))

    # the semigroup oracle at a rational point, with the grid check's bound
    c = gen_series(series_id("q", m=2, n=1))
    point = make_poly(-1, 1)  # t - 1
    e = next(e for e in ph_ledger(c).finite if e.factor == point)
    out["oracle_rational_point"] = best(lambda: oracle_delta_at_factor(c, point, bound=e.mu + e.n + 4))

    # both places of a curve whose leads 3 (at t = oo, ram 5) and 5 (at t = 0,
    # ram 4) have no rational root: the expansions stay over the scalars
    c = ParametricCurve(*(LaurentPoly({e: Scalar(v) for e, v in f.items()}) for f in ({-4: 5, 2: 1, 5: 3}, {-6: -3, 1: 1, 7: 2})))
    out["place_surd"] = best(lambda: [(analyze_place(c, "inf"), analyze_place(c, "0")) for _ in range(10)])

    # the branch expansion of the subordinate coordinate at both places of
    # every seed-1 `refute` curve, at the first window of a place analysis,
    # and at the grid's widest place (the largest `largest_window`) at window 48
    from annuli import io
    from annuli.catalog import default_grid
    from annuli.curves import exponent_profile
    from annuli.local import PlaceNotAtInfinity, largest_window, place_subordinate_series
    from annuli_bench.workloads import make_inputs

    places = [(io.parse_curve_file(text), pl) for _, text in make_inputs("refute", 1) for pl in ("inf", "0")]
    grid = [(gen_series(sid), pl) for sid in default_grid() for pl in ("inf", "0")]
    widest = max(grid, key=lambda cp: largest_window(exponent_profile(cp[0]), cp[1]))

    def expansions():
        for c, pl in places:
            try:
                place_subordinate_series(c, pl, 6)
            except PlaceNotAtInfinity:
                pass
        place_subordinate_series(*widest, 48)

    out["place_expansion"] = best(expansions)

    # truncated series products: one integer convolution per coefficient ring
    f = TS(SCALARS, 0, [Scalar(ratio.QQ(i * i - 7, 2 * i + 3)) for i in range(64)])
    g = TS(SCALARS, 0, [Scalar(ratio.QQ(5 - 3 * i, i + 4)) for i in range(64)])
    out["series_mul_rational"] = best(lambda: [f.mul(g) for _ in range(100)])

    R = Quotient(SCALARS, [Scalar(ratio.QQ(k + 2, 3)) for k in range(4)] + [Scalar(1)], "pt")
    s = R.gen()

    def elem(i):
        acc = R.zero()
        for k in range(4):
            acc = R.add(acc, R.mul(R.from_scalar(Scalar(ratio.QQ(i - k, k + 2))), ring_pow(R, s, k)))
        return acc

    f = TS(R, 0, [elem(i) for i in range(32)])
    g = TS(R, 0, [elem(7 - 2 * i) for i in range(32)])
    out["series_mul_quotient"] = best(lambda: [f.mul(g) for _ in range(20)])

    # Miller's recurrence for (1 + h)^(1/n), as the branch expansion runs it
    u = TS(R, 0, [R.one()] + [elem(i) for i in range(1, 32)])
    out["series_root_quotient"] = best(lambda: [u.unit_power(ratio.QQ(1, n)) for n in (3, -3)])

    # poly_gcd over Q(sqrt 2): the remainder sequence over Z[sqrt 2], 30 pairs
    # of degrees 17 and 14-15 with a common factor of degree 3
    def surd_poly(deg, k):
        return LaurentPoly({e: Scalar(ratio.QQ((e * k) % 7 - 3), ratio.QQ((e + k) % 5 - 2), 2) for e in range(deg + 1)})

    common = surd_poly(3, 1)
    pairs = [(common * surd_poly(14, k), common * surd_poly(12, k + 7)) for k in range(30)]
    out["gcd_surd"] = best(lambda: [poly_gcd(f, g) for f, g in pairs])

    # the Taylor shift at a rational point: a Laurent polynomial with a pole
    # of order 3 at c + tau, to 64 terms, as a finite point's expansion runs it
    from annuli.series import laurent_at_shifted_point

    f = LaurentPoly({e: Scalar(ratio.QQ(3 * e * e - 7, 2 * e + 11)) for e in range(-3, 18)})
    center = Scalar(ratio.QQ(-5, 4))
    out["taylor_shift_rational"] = best(lambda: [laurent_at_shifted_point(SCALARS, f, center, 64) for _ in range(50)])

    # the semigroup oracle at every finite point of the grid, on its branch
    # series, with the bound of acceptance criterion 8
    from annuli.certify import delta_semigroup_oracle
    from annuli.local import branch_series_at_point
    from annuli.rings import explore_branches

    oracle_inputs = []
    for sid in default_grid():
        c = gen_series(sid)
        for e in ph_ledger(c).finite:
            bound = e.mu + e.n + 4
            branches = explore_branches(lambda st: branch_series_at_point(st, c, e.factor, bound + 2))
            oracle_inputs += [(r, xs, ys, bound) for _, r, xs, ys in branches]
    out["semigroup_oracle_grid"] = best(lambda: [delta_semigroup_oracle(*a) for a in oracle_inputs])

    # the handsome reduction of every seed-1 `refute` curve, and the witness
    # point of every witness their certificates find
    from annuli.certify import _witness_point
    from annuli.curves import classify_type

    refute = [io.parse_curve_file(text) for _, text in make_inputs("refute", 1)]
    out["classify_refute"] = best(lambda: [classify_type(c) for c in refute])
    witnesses = [(c, w) for c in refute for w in injectivity_certificate(c).witnesses if w.u_poly]
    out["witness_point_refute"] = best(lambda: [_witness_point(c, w) for c, w in witnesses])

    print(json.dumps(out))
    """
)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run(backend: str) -> dict:
    path = os.pathsep.join(p for p in (SRC, ROOT, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, ANNULI_SCALAR_BACKEND=backend, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", WORKLOAD], env=env, capture_output=True, text=True, check=True
    )
    import json

    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    rows = []
    for backend in ("gmpy2", "fractions"):
        row = run(backend)
        if "skipped" in row:
            print(f"skipped backend {backend}: {row['skipped']}")
        else:
            rows.append(row)
    if not rows:
        return
    keys = [k for k in rows[0] if k != "backend"]
    width = max(len(k) for k in keys) + 2
    print(f"{'kernel':<{width}} " + "  ".join(f"{r['backend']:>10}" for r in rows))
    for k in keys:
        print(f"{k:<{width}} " + "  ".join(f"{r[k]:>9.3f}s" for r in rows))
    if len(rows) == 2:
        base, alt = rows
        for k in keys:
            if base[k] > 0:
                print(f"  {k}: fallback / compiled = {alt[k] / max(base[k], 1e-9):.1f}x")


if __name__ == "__main__":
    main()
