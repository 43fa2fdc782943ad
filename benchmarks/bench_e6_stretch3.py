"""E6 — stretch-3 ε-slack sketches (Theorem 4.3).

Claims under test:
* stretch <= 3 on ε-far pairs (and never an underestimate anywhere),
* sketch size O((1/ε) log n) words,
* construction in O(S (1/ε) log n) rounds / O(S |E| (1/ε) log n) messages
  (distributed run, small n),
* the slack semantics: the guarantee covers ~(1-ε) of pairs (measured).
"""

from __future__ import annotations

import pytest

from benchmarks._workloads import workload, workload_apsp, workload_S
from repro.analysis import render_table, stretch3_round_bound, stretch3_size_bound
from repro.oracle.evaluation import evaluate_stretch, slack_coverage
from repro.slack.stretch3 import (build_stretch3_centralized,
                                  build_stretch3_distributed)

N = 256
EPSES = (0.5, 0.25, 0.1)


@pytest.fixture(scope="module")
def e6_table(experiment_report):
    g = workload("er", N, weighted=True)
    d = workload_apsp("er", N, weighted=True)
    rows = []
    for eps in EPSES:
        sketches, net = build_stretch3_centralized(g, eps, seed=21)
        rep = evaluate_stretch(
            d, lambda u, v: sketches[u].estimate_to(sketches[v]),
            eps=eps, max_pairs=4000, seed=2)
        rows.append({
            "eps": eps,
            "|N|": net.size(),
            "size(words)": sketches[0].size_words(),
            # 2 words per entry, |N| <= (10/eps) ln n (Definition 4.1)
            "size-bound": round(20 * stretch3_size_bound(N, eps), 1),
            "max-stretch(far)": round(rep.max_stretch, 3),
            "mean": round(rep.mean_stretch, 3),
            "under": rep.underestimates,
            "covered-pairs": f"{slack_coverage(d, eps):.0%}",
        })
    experiment_report("E6-stretch3", render_table(
        rows, title=f"E6: Theorem 4.3 sketches, er n={N} "
                    "(stretch measured on eps-far pairs)"))
    return rows


@pytest.fixture(scope="module")
def e6_distributed(experiment_report):
    rows = []
    for n in (48, 96):
        g = workload("er", n, weighted=True)
        S = workload_S("er", n, weighted=True)
        sketches, net, metrics = build_stretch3_distributed(g, 0.25, seed=23)
        bound = stretch3_round_bound(n, 0.25, S)
        rows.append({
            "n": n, "S": S, "|N|": net.size(),
            "rounds": metrics.rounds,
            "rounds/bound": round(metrics.rounds / bound, 3),
            "messages": metrics.messages,
        })
    experiment_report("E6b-stretch3-cost", render_table(
        rows, title="E6: distributed Theorem 4.3 cost vs S (1/eps) log n"))
    return rows


def test_e6_stretch_bound(e6_table):
    assert all(r["max-stretch(far)"] <= 3.0 + 1e-9 for r in e6_table)


def test_e6_no_underestimates(e6_table):
    assert all(r["under"] == 0 for r in e6_table)


def test_e6_size_tracks_bound(e6_table):
    assert all(r["size(words)"] <= r["size-bound"] for r in e6_table)


def test_e6_coverage_at_least_1_minus_2eps(e6_table):
    for r in e6_table:
        covered = float(r["covered-pairs"].rstrip("%")) / 100
        assert covered >= 1 - 2 * r["eps"]


def test_e6_distributed_rounds_flat(e6_distributed):
    ratios = [r["rounds/bound"] for r in e6_distributed]
    assert ratios[-1] <= 2.0 * ratios[0] + 0.05


def test_e6_benchmark_build(benchmark, e6_table, e6_distributed):
    """Timing kernel: centralized Theorem 4.3 build at n=256, eps=0.1."""
    g = workload("er", N, weighted=True)

    def run():
        return build_stretch3_centralized(g, 0.1, seed=5)

    benchmark.pedantic(run, rounds=3, iterations=1)
