"""E4 — termination-detection overhead (Section 3.3).

Claims under test:
* the ECHO scheme "at most doubles the number of messages": measured as
  exactly one ECHO per data message, plus the COMPLETE/START/election
  extras the paper calls negligible (O(n) per phase + O(|E| log n) once),
* phases stay correct without any global knowledge: the echo run's
  sketches equal the oracle run's (asserted during construction),
* the known-S alternative (the paper's Section 3.2 assumption) trades
  *idle* rounds for zero detection traffic — the table shows all three.
"""

from __future__ import annotations

import pytest

from benchmarks._workloads import workload, workload_S
from repro.analysis import render_table
from repro.tz import (
    build_tz_sketches_centralized,
    build_tz_sketches_distributed,
    sample_hierarchy,
)

NS = (32, 64, 128, 256, 512)
K = 2


def _same(a, b):
    return all(x.pivots == y.pivots and x.bunch == y.bunch
               for x, y in zip(a, b))


@pytest.fixture(scope="module")
def e4_table(experiment_report):
    rows = []
    for n in NS:
        g = workload("er", n)
        S = workload_S("er", n)
        h = sample_hierarchy(g.n, K, seed=n)
        reference, _ = build_tz_sketches_centralized(g, hierarchy=h)
        per_mode = {}
        for sync, kw in (("oracle", {}), ("echo", {}),
                         ("known_smax", {"S": S, "budget": "whp"})):
            res = build_tz_sketches_distributed(g, hierarchy=h, sync=sync,
                                                seed=n + 1, **kw)
            assert _same(reference, res.sketches), (sync, n)
            per_mode[sync] = res
            rows.append({
                "n": g.n,
                "sync": sync,
                "rounds": res.metrics.rounds,
                "messages": res.metrics.messages,
                "words": res.metrics.words,
                "vs-oracle-msgs": round(
                    res.metrics.messages
                    / per_mode["oracle"].metrics.messages, 2),
                "vs-oracle-rounds": round(
                    res.metrics.rounds
                    / per_mode["oracle"].metrics.rounds, 2),
            })
    experiment_report("E4-termination-detection", render_table(
        rows, title="E4: cost of Section 3.3 termination detection "
                    "(sketches verified identical across modes)"))
    return rows


def test_e4_echo_message_overhead_bounded(e4_table):
    """Data+ECHO is 2x; election/COMPLETE/START add a modest extra."""
    for n in NS:
        row = next(r for r in e4_table if r["n"] == n and r["sync"] == "echo")
        assert row["vs-oracle-msgs"] <= 6.0


def test_e4_known_smax_sends_no_extra_messages(e4_table):
    for n in NS:
        row = next(r for r in e4_table
                   if r["n"] == n and r["sync"] == "known_smax")
        assert row["vs-oracle-msgs"] == 1.0


def test_e4_known_smax_pays_idle_rounds(e4_table):
    for n in NS:
        oracle = next(r for r in e4_table
                      if r["n"] == n and r["sync"] == "oracle")
        ks = next(r for r in e4_table
                  if r["n"] == n and r["sync"] == "known_smax")
        assert ks["rounds"] > oracle["rounds"]


def test_e4_benchmark_echo_build(benchmark, e4_table):
    """Timing kernel: echo-mode distributed build at n=32."""
    g = workload("er", 32)

    def run():
        return build_tz_sketches_distributed(g, k=K, sync="echo", seed=5)

    benchmark.pedantic(run, rounds=3, iterations=1)
