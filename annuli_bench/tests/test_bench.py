"""Tests of the benchmark itself: the checks reject corrupted results, and a
reduced run of every workload completes.

    python3 -m pytest annuli_bench/tests
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402


def _grid_record(label: str) -> dict:
    sid_items = {name: item for name, item in workloads.make_inputs("grid", 0)}
    item = sid_items[label]
    return workloads.grid_record(label, item, workloads.grid_operation(item))


def _analysis_record(label: str, text: str) -> dict:
    return workloads.analyze_record(label, workloads.analyze_operation(text))


@pytest.fixture(scope="module")
def w_record():
    """(w): a cusp at t = 1 and a conjugate cusp pair at the roots of t^2 + t + 1."""
    rec = _grid_record("(w)")
    assert len(rec["finite"]) == 2
    return rec


@pytest.fixture(scope="module")
def printed_w_record():
    name, curve = workloads.negative_fixtures()[-1]
    return _analysis_record(name, workloads._laurent_text(curve, 1))


def test_grid_record_passes_every_check(w_record):
    assert checks.check_grid(w_record) == []


def test_mu_off_by_one_is_rejected(w_record):
    bad = copy.deepcopy(w_record)
    bad["finite"][0]["mu"] += 1
    args = (bad["curve"], bad["two_delta_max"], bad["two_delta_inf"], bad["index_sum"], bad["finite"])
    assert any("balance" in e for e in checks.ledger_identities(*args))
    assert any("Euler" in e for e in checks.ledger_identities(*args))
    assert checks.oracle_agrees(bad["finite"])
    assert checks.expected_invariants(bad["finite"], bad["expected"])


def test_dropped_singular_factor_is_rejected(w_record):
    for k in range(len(w_record["finite"])):
        kept = [e["factor"] for i, e in enumerate(w_record["finite"]) if i != k]
        assert checks.singular_locus(w_record["curve"], kept)
    assert checks.singular_locus(w_record["curve"], [e["factor"] for e in w_record["finite"]]) == []


def test_singular_locus_over_a_quadratic_field():
    rec = _grid_record("(v)")
    assert rec["curve"]["field"]["d"] == 5 and rec["finite"]
    assert checks.check_grid(rec) == []
    assert checks.singular_locus(rec["curve"], [e["factor"] for e in rec["finite"]][1:])


def _edited(rec: dict, edit) -> dict:
    report = json.loads(rec["report"])
    edit(report)
    return dict(rec, report=json.dumps(report))


def test_printed_w_witness_passes(printed_w_record):
    assert checks.check_analysis(printed_w_record, must_refute=True) == []
    report = json.loads(printed_w_record["report"])
    (w,) = report["verdict"]["certificate"]["witnesses"]
    t1, t2 = checks.double_point(report["curve"], w["v_factor"])
    assert abs(t1 - t2) > 1e-3


def test_diagonal_witness_is_rejected(printed_w_record):
    """t t' = 1 meets phi(t) = phi(t') only on the diagonal t = t' = +-1 and at
    t = +-i, where psi differs: no double point."""

    def diagonal(report):
        report["verdict"]["certificate"]["witnesses"][0]["v_factor"] = "t - 1"

    bad = _edited(printed_w_record, diagonal)
    assert checks.double_point(json.loads(bad["report"])["curve"], "t - 1") is None
    assert checks.check_analysis(bad, must_refute=True)


def test_missing_witness_and_false_embedding_are_rejected(printed_w_record):
    def no_witness(report):
        report["verdict"]["certificate"]["witnesses"] = []

    def embedding(report):
        report["verdict"]["verdict"] = "Embedding"

    assert checks.check_analysis(_edited(printed_w_record, no_witness), must_refute=True)
    assert checks.check_analysis(_edited(printed_w_record, embedding), must_refute=True)


def test_inputs_repeat_for_a_seed_and_differ_between_seeds():
    assert workloads.make_inputs("refute", 7) == workloads.make_inputs("refute", 7)
    assert workloads.make_inputs("refute", 7) != workloads.make_inputs("refute", 8)
    fields = workloads.make_inputs("fields", 7)
    random_part = [json.loads(text) for label, text in fields if label.startswith("random")]
    assert {doc["field"]["d"] for doc in random_part} == set(workloads.FIELDS_D)
    for doc in random_part:  # every end coefficient carries a surd part
        assert all(term[2] != "0" for comp in (doc["x"], doc["y"]) for term in (comp[0], comp[-1]))


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("annuli_bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_reduced_run_completes(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "annuli_bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "refute", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_witness_at_a_multiple_root_is_found():
    """phi(t) - phi(-1/t) has triple roots at t = +-1, where the double point
    t = 1, t' = -1 of this curve sits; psi(t) - psi(-1/t) has simple ones."""
    curve = {
        "field": {"d": 1},
        "x": [[-4, "-1", "0"], [-2, "2", "0"], [-1, "2", "0"], [1, "-2", "0"]],
        "y": [[0, "-3", "0"], [2, "-1", "0"]],
    }
    t1, t2 = checks.double_point(curve, "t + 1")
    assert abs(abs(t1) - 1) < 1e-30 and abs(t1 + t2) < 1e-30
