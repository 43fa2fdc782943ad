"""E19 — correctness and latency under sustained churn (scenarios).

E16 measured one apply in isolation and E18 one query fleet in
isolation; this experiment replays the **combined** workload the
dynamic-update subsystem exists for: named churn+query scenario traces
(``repro.service.scenario``) driven over real TCP sockets against a
live ``OracleServer`` while the correctness oracle verifies every
consumed answer bit-for-bit against a twin replay.

Per scenario the report (``BENCH_E19-scenarios.json``) carries

* **hot-swap stall** p50/p99/max — the wall-clock an ``apply_updates``
  call holds the writer (the serving tier keeps answering reads
  throughout; this is the write-path cost),
* **staleness-window stats** — how many consumed answers were pinned to
  an epoch older than the newest one the session had observed (legal
  under the monotonic-epoch rule) and for how long the newer epoch had
  already been visible,
* **query latency** split into churn-overlapped vs quiet records, and
* the per-apply **repair/rebuild modes** the one threshold rule chose.

Hard claims (always asserted, any size, any hardware): zero oracle
violations on every scenario and ≥ 3 scenarios in the report.  There
is **no** wall-clock gate by design (E17 precedent): churn replay
timing on a shared runner is noise, and the numbers are telemetry, not
acceptance.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_e19_scenarios.py -q``
(size via ``REPRO_E19_N`` / ``REPRO_E19_ROUNDS``; the CI smoke job runs
n=300).
"""

from __future__ import annotations

import os

import pytest

from benchmarks._workloads import workload
from repro.analysis import render_table
from repro.service import (ScenarioOracle, UpdateableIndex, generate_trace,
                           run_scenario)

N = int(os.environ.get("REPRO_E19_N", "800"))
ROUNDS = int(os.environ.get("REPRO_E19_ROUNDS", "10"))
K = 2
SEED = 61
SCENARIOS = ("flash-crowd", "weight-flap", "steady-mix")


@pytest.fixture(scope="module")
def e19_results():
    g = workload("geo", N)
    out = {}
    for name in SCENARIOS:
        trace = generate_trace(name, g, seed=SEED, rounds=ROUNDS)
        source = UpdateableIndex(g, "tz", seed=SEED, k=K)
        oracle = ScenarioOracle(g, scheme="tz", seed=SEED, k=K,
                                checkpoint_every=0)
        result = run_scenario(trace, "tcp://", source=source,
                              oracle=oracle, query_threads=3)
        out[name] = {"result": result, "summary": result.summary()}
    return out


@pytest.fixture(scope="module")
def e19_report(experiment_report, e19_results):
    rows = []
    data = {"n": N, "rounds": ROUNDS, "k": K, "seed": SEED,
            "scenarios": {}}
    for name, entry in e19_results.items():
        s = entry["summary"]
        rows.append({
            "scenario": name,
            "records": s["queries"]["records"],
            "stall-p50-ms": round(s["hotswap"]["stall_ms"]["p50_ms"], 3),
            "stall-p99-ms": round(s["hotswap"]["stall_ms"]["p99_ms"], 3),
            "stale": s["staleness"]["stale_results"],
            "lag-max": s["staleness"]["max_epoch_lag"],
            "modes": _mode_str(s["hotswap"]["modes"]),
            "violations": len(s["oracle"]["violations"]),
        })
        data["scenarios"][name] = {"summary": s}
    experiment_report("E19-scenarios", render_table(
        rows, title=f"E19: churn+query scenarios over tcp "
                    f"(tz k={K}, geo n={N}, {ROUNDS} rounds, "
                    f"oracle armed)"),
        data=data)
    return data


def _mode_str(modes: dict) -> str:
    return "+".join(f"{v}{k[:3]}" for k, v in sorted(modes.items()))


def test_e19_zero_oracle_violations(e19_results):
    """The headline claim: every consumed answer on every scenario was
    bit-identical to a legally observable epoch of the twin replay."""
    for name, entry in e19_results.items():
        result = entry["result"]
        assert result.oracle_report is not None, name
        assert result.ok, (name, result.violations[:3])
        assert result.oracle_report["checked"] > 0, name


def test_e19_report_complete(e19_report):
    """The telemetry the JSON exists for: ≥ 3 scenarios, hot-swap stall
    percentiles, staleness stats, and the repair/rebuild modes."""
    assert len(e19_report["scenarios"]) >= 3
    for name, entry in e19_report["scenarios"].items():
        s = entry["summary"]
        stall = s["hotswap"]["stall_ms"]
        assert stall["count"] > 0, name
        assert stall["p50_ms"] is not None, name
        assert stall["p50_ms"] <= stall["p99_ms"] <= stall["max_ms"], name
        assert "stale_results" in s["staleness"], name
        assert "window_ms" in s["staleness"], name
        assert sum(s["hotswap"]["modes"].values()) \
            == s["hotswap"]["applies"], name
        assert s["queries"]["latency_ms"]["count"] > 0, name
