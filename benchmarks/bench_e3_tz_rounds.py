"""E3 — distributed TZ round/message complexity (Theorem 1.1/3.8) + A1.

Claims under test:
* rounds = O(k n^{1/k} S log n) and messages = O(k n^{1/k} S |E| log n):
  the implied constants must stay bounded along an n sweep on every
  topology family,
* Lemma 3.6 in action: the maximum round-robin queue occupancy (which
  drives the congestion term) stays O(n^{1/k} log n),
* A1 ablation: removing the bandwidth constraint (LOCAL-model packing)
  collapses rounds toward O(S) — evidence that the n^{1/k} log n factor
  is congestion, not algorithm logic.
"""

from __future__ import annotations

import math

import pytest

from benchmarks._workloads import workload, workload_S
from repro.analysis import render_table, summarize_ratios, tz_message_bound, tz_round_bound
from repro.algorithms.ksource import k_source_shortest_paths
from repro.tz import build_tz_sketches_distributed

SWEEP = (("er", (64, 128, 256, 512, 1024, 2048)), ("grid", (36, 64, 100)), ("ring", (24, 48, 96)))
K = 2


@pytest.fixture(scope="module")
def e3_table(experiment_report):
    rows = []
    for family, ns in SWEEP:
        for n in ns:
            g = workload(family, n)
            S = workload_S(family, n)
            res = build_tz_sketches_distributed(g, k=K, seed=n)
            r_bound = tz_round_bound(g.n, K, S)
            m_bound = tz_message_bound(g.n, K, S, g.m)
            rows.append({
                "family": family,
                "n": g.n,
                "S": S,
                "rounds": res.metrics.rounds,
                "rounds/bound": round(res.metrics.rounds / r_bound, 4),
                "msgs": res.metrics.messages,
                "msgs/bound": round(res.metrics.messages / m_bound, 4),
                "maxQ": res.max_queue_len,
                "Q-bound": round(g.n ** (1 / K) * math.log(g.n), 1),
            })
    experiment_report("E3-tz-rounds", render_table(
        rows, title=f"E3: distributed TZ (k={K}, oracle sync) vs "
                    "Thm 1.1 curves k n^(1/k) S log n"))
    return rows


@pytest.fixture(scope="module")
def e3_ablation(experiment_report):
    """A1: CONGEST round-robin vs LOCAL-model packing, k-source kernel.

    The sources are *clustered* (adjacent ring nodes) so their waves travel
    together and genuinely contend for edges — with evenly spread sources
    the waves pipeline and congestion hides.
    """
    rows = []
    g = workload("ring", 48)
    S = workload_S("ring", 48)
    sources = list(range(12))  # 12 adjacent, maximally contending sources
    for drain, label in ((1, "CONGEST (1 msg/edge/round)"),
                         (len(sources), "LOCAL ablation (packed)")):
        _, m = k_source_shortest_paths(g, sources, seed=3,
                                       drain_per_round=drain)
        rows.append({"discipline": label, "rounds": m.rounds,
                     "messages": m.messages, "words": m.words,
                     "S": S, "sources": len(sources)})
    experiment_report("E3a-congestion-ablation", render_table(
        rows, title="E3/A1: the congestion term is real — packing updates "
                    "(LOCAL model) collapses rounds toward S"))
    return rows


def test_e3_round_constant_flat(e3_table):
    for family, _ in SWEEP:
        ratios = [r["rounds/bound"] for r in e3_table if r["family"] == family]
        s = summarize_ratios(ratios, [1.0] * len(ratios))
        assert s.shape_holds(drift_tolerance=2.0), (family, ratios)


def test_e3_message_constant_flat(e3_table):
    for family, _ in SWEEP:
        ratios = [r["msgs/bound"] for r in e3_table if r["family"] == family]
        assert ratios[-1] <= 2.0 * ratios[0] + 0.05, (family, ratios)


def test_e3_queue_occupancy_within_lemma36(e3_table):
    assert all(r["maxQ"] <= 3 * r["Q-bound"] for r in e3_table)


def test_e3_ablation_local_faster_in_rounds(e3_ablation):
    congest, local = e3_ablation
    assert local["rounds"] < congest["rounds"]
    assert local["rounds"] <= 3 * local["S"] + 3


def test_e3_benchmark_distributed_build(benchmark, e3_table, e3_ablation):
    """Timing kernel: full distributed TZ build (oracle sync), n=64 ER."""
    g = workload("er", 64)

    def run():
        return build_tz_sketches_distributed(g, k=2, seed=9)

    benchmark.pedantic(run, rounds=3, iterations=1)
