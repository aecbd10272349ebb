"""Command line interface.

    annuli analyze <curve.json> [--json out.json]
    annuli catalog list [--json]
    annuli catalog gen --series <letter> [--m 2 --n 3 ...] [--out FILE]
    annuli catalog verify [--series <letter>] [--k 1..3 ...] [--jobs N] [--json out]
    annuli oracle delta <curve.json> --point "t^2+t+1" [--bound 60]

Exit codes: 0 embedding / success, 3 non-embedding / failed verification,
2 excluded or invalid parameters, 1 internal error or an exhausted budget
(dynamic-evaluation branches, handsome-reduction moves).  A curve that does not resolve
within its profile's precision bound is improperly parametrized: a typed ledger error.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import ExcludedParams, PARAM_SPECS, default_grid, gen_series, list_series, series_id
from .certify import BoundTooSmall, LedgerMismatch, oracle_delta_at_factor
from .curves import NonTermination
from .io import ParseError, emit_curve_file, parse_curve_file, parse_point_factor
from .reports import analyze_curve, report_json, verify_catalog_entry
from .rings import BranchBudgetExceeded

_PARAM_NAMES = ("k", "m", "n", "l", "p")


def _add_param_args(ap: argparse.ArgumentParser):
    for name in _PARAM_NAMES:
        ap.add_argument(f"--{name}", type=str, default=None, help=f"parameter {name} (INT or A..B)")


def _param_values(spec: str) -> list[int]:
    if ".." in spec:
        a, b = spec.split("..")
        return list(range(int(a), int(b) + 1))
    return [int(spec)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="annuli", description="Exact certification of Laurent-parametrized plane annuli")
    sub = ap.add_subparsers(dest="cmd", required=True)

    ap_an = sub.add_parser("analyze", help="full analysis report for a curve file")
    ap_an.add_argument("path")
    ap_an.add_argument("--json", dest="json_out", default=None, help="write the JSON report here")

    ap_cat = sub.add_parser("catalog", help="catalog operations")
    cat_sub = ap_cat.add_subparsers(dest="catcmd", required=True)
    cat_list = cat_sub.add_parser("list", help="list series and constraints")
    cat_list.add_argument("--json", action="store_true")
    cat_gen = cat_sub.add_parser("gen", help="generate a curve file for one family member")
    cat_gen.add_argument("--series", required=True)
    cat_gen.add_argument("--out", default=None)
    _add_param_args(cat_gen)
    cat_ver = cat_sub.add_parser("verify", help="verify catalog members against the certifier")
    cat_ver.add_argument("--series", default=None)
    cat_ver.add_argument("--jobs", type=int, default=1)
    cat_ver.add_argument("--json", dest="json_out", default=None)
    _add_param_args(cat_ver)

    ap_or = sub.add_parser("oracle", help="debugging oracles")
    or_sub = ap_or.add_subparsers(dest="orcmd", required=True)
    or_delta = or_sub.add_parser("delta", help="semigroup delta oracle at a singular factor")
    or_delta.add_argument("path")
    or_delta.add_argument("--point", required=True, help="polynomial factor, e.g. 't-1' or 't^2+t+1'")
    or_delta.add_argument("--bound", type=int, default=60)

    args = ap.parse_args(argv)
    try:
        if args.cmd == "analyze":
            return _cmd_analyze(args)
        if args.cmd == "catalog":
            if args.catcmd == "list":
                return _cmd_list(args)
            if args.catcmd == "gen":
                return _cmd_gen(args)
            return _cmd_verify(args)
        if args.cmd == "oracle":
            return _cmd_oracle_delta(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExcludedParams as exc:
        print(f"excluded: {exc}", file=sys.stderr)
        return 2
    except BoundTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LedgerMismatch as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 1
    except (BranchBudgetExceeded, NonTermination) as exc:
        print(f"error: budget: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1
    return 1


def _cmd_analyze(args) -> int:
    with open(args.path) as fh:
        curve = parse_curve_file(fh.read())
    report, code = analyze_curve(curve)
    text = report_json(report)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text)
        verdict = report["verdict"].get("verdict")
        print(f"{verdict}  (report written to {args.json_out})")
    else:
        sys.stdout.write(text)
    return code


def _cmd_list(args) -> int:
    rows = list_series()
    if args.json:
        sys.stdout.write(report_json(rows))
    else:
        for row in rows:
            print(f"({row['series']})  {row['constraints']}")
    return 0


def _collect_params(args) -> dict:
    out = {}
    for name in _PARAM_NAMES:
        v = getattr(args, name)
        if v is not None:
            out[name] = _param_values(v)
    return out


def _cmd_gen(args) -> int:
    params = {k: v for k, v in _collect_params(args).items()}
    for k, vals in params.items():
        if len(vals) != 1:
            print("gen takes single parameter values, not ranges", file=sys.stderr)
            return 2
    sid = series_id(args.series, **{k: v[0] for k, v in params.items()})
    curve = gen_series(sid)
    text = emit_curve_file(curve)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _grid_for_args(args) -> list:
    if args.series is None:
        return default_grid()
    params = _collect_params(args)
    if not params:
        return [sid for sid in default_grid() if sid.letter == args.series] or _single_series_default(args.series)
    names = sorted(params)
    grid = []

    def rec(i, acc):
        if i == len(names):
            grid.append(series_id(args.series, **acc))
            return
        for v in params[names[i]]:
            acc2 = dict(acc)
            acc2[names[i]] = v
            rec(i + 1, acc2)

    rec(0, {})
    return grid


def _single_series_default(letter: str) -> list:
    if letter in PARAM_SPECS and letter in "tuvw":
        return [series_id(letter)]
    raise ExcludedParams(f"series {letter!r} needs explicit parameters")


def _verify_worker(sid_dict: dict) -> dict:
    sid = series_id(sid_dict["series"], **sid_dict["params"])
    return verify_catalog_entry(sid)


def _cmd_verify(args) -> int:
    grid = _grid_for_args(args)
    payload = [sid.as_dict() for sid in grid]
    if args.jobs > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=args.jobs) as ex:
            results = list(ex.map(_verify_worker, payload))
    else:
        results = [_verify_worker(pd) for pd in payload]
    results.sort(key=lambda r: (r["id"]["series"], sorted(r["id"]["params"].items())))
    counts = {"pass": 0, "fail": 0, "error": 0, "excluded": 0}
    for r in results:
        counts[r["status"]] += 1
        sid = series_id(r["id"]["series"], **r["id"]["params"])
        if r["status"] == "pass":
            print(f"PASS {sid}")
        elif r["status"] == "excluded":
            print(f"SKIP {sid}: {r.get('reason', '')}")
        else:
            print(f"FAIL {sid}: {r.get('reason', r.get('expected_detail', r['checks']))}")
    print(
        f"verified {len(results)} grid points: {counts['pass']} pass, "
        f"{counts['fail']} fail, {counts['error']} error, {counts['excluded']} skipped"
    )
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(report_json(results))
    return 0 if counts["fail"] == 0 and counts["error"] == 0 else 3


def _cmd_oracle_delta(args) -> int:
    with open(args.path) as fh:
        curve = parse_curve_file(fh.read())
    factor = parse_point_factor(args.point, curve.field_tag())
    for fac, delta in oracle_delta_at_factor(curve, factor, bound=args.bound):
        print(f"factor {fac!r}: delta = {delta}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
