"""Tier-1 smoke test of the benchmark: every workload runs end to end at
``--smoke`` size — the same code path as a measured run, small inputs,
one cold start — with every correctness gate passing and every metric
of ``BENCHMARK.json`` reported.  Nothing here looks at a timing."""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
try:
    from harness import UNGATED
finally:
    sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]]
                         + list(UNGATED))
def test_workload_smoke(workload, tmp_path):
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--smoke", "--seconds", "0.6", "--seed", "7", "--trace", "1",
         "--out", str(out)],
        cwd=BENCH.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    # the traced run prints the per-layer metrics and records both kinds
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics["per_layer"] == result["metrics"]
    for kind in ("end_to_end", "per_layer"):
        assert set(metrics[kind]) == {m["name"] for m in SPEC[kind]}
        for name, row in metrics[kind].items():
            assert math.isfinite(row["value"]), name
    assert all(row["value"] > 0 for row in metrics["end_to_end"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    """In a directory that holds only the benchmark there is nothing to
    measure: non-zero exit, no result line."""
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "inproc-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    sys.path.insert(0, str(BENCH))
    try:
        from compare import verdict
    finally:
        sys.path.remove(str(BENCH))

    def point(*values):
        ordered = sorted(values)
        median = ordered[len(ordered) // 2]
        return {"values": list(values), "median": median,
                "spread": (ordered[-1] - ordered[0]) / median}

    old = point(100.0, 101.0, 102.0)
    assert verdict(old, point(80.0, 81.0, 82.0), "higher", 0.1)[2] == "worse"
    assert verdict(old, point(120.0, 121.0, 122.0), "lower", 0.1)[2] == "worse"
    assert verdict(old, point(99.0, 101.0, 103.0), "higher",
                   0.1)[2] == "within bound"
    assert verdict(old, point(110.0, 111.0, 112.0), "higher",
                   0.1)[2] == "better"
    assert verdict(old, point(60.0, 101.0, 140.0), "higher",
                   0.1)[2] == "unresolved"
