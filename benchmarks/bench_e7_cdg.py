"""E7 — (ε,k)-CDG sketches (Lemmas 4.4/4.5, Theorem 4.6).

Claims under test:
* stretch <= 8k-1 on ε-far pairs, never an underestimate,
* size O(k ((1/ε) log n)^{1/k} log n) words — sublinear in 1/ε, the point
  of running TZ on the net (compare the E6 sizes),
* distributed cost O(k S ((1/ε) log n)^{1/k} log n) rounds,
* the k knob: larger k shrinks sketches and loosens stretch, mirroring the
  TZ tradeoff one level up.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks._workloads import workload, workload_apsp, workload_S
from repro.analysis import cdg_round_bound, cdg_size_bound, render_table
from repro.oracle.evaluation import evaluate_stretch
from repro.slack.cdg import build_cdg_centralized, build_cdg_distributed

N = 256
GRID = [(0.25, 1), (0.25, 2), (0.25, 3), (0.1, 2), (0.05, 2)]


@pytest.fixture(scope="module")
def e7_table(experiment_report):
    g = workload("er", N, weighted=True)
    d = workload_apsp("er", N, weighted=True)
    rows = []
    for eps, k in GRID:
        sketches, net, _ = build_cdg_centralized(g, eps, k, seed=31)
        rep = evaluate_stretch(
            d, lambda u, v: sketches[u].estimate_to(sketches[v]),
            eps=eps, max_pairs=4000, seed=3)
        sizes = [s.size_words() for s in sketches]
        rows.append({
            "eps": eps,
            "k": k,
            "|N|": net.size(),
            "mean-size(w)": round(float(np.mean(sizes)), 1),
            "size-bound": round(2 * cdg_size_bound(N, eps, k), 1),
            "bound(8k-1)": 8 * k - 1,
            "max-stretch(far)": round(rep.max_stretch, 2),
            "mean": round(rep.mean_stretch, 3),
            "under": rep.underestimates,
        })
    experiment_report("E7-cdg", render_table(
        rows, title=f"E7: (eps,k)-CDG sketches, er n={N} (Theorem 4.6)"))
    return rows


@pytest.fixture(scope="module")
def e7_distributed(experiment_report):
    rows = []
    for n in (48, 96):
        g = workload("er", n, weighted=True)
        S = workload_S("er", n, weighted=True)
        sketches, net, _, metrics = build_cdg_distributed(g, 0.25, 2, seed=33)
        bound = cdg_round_bound(n, 0.25, 2, S)
        rows.append({
            "n": n, "S": S, "|N|": net.size(),
            "rounds": metrics.rounds,
            "rounds/bound": round(metrics.rounds / bound, 3),
            "messages": metrics.messages,
        })
    experiment_report("E7b-cdg-cost", render_table(
        rows, title="E7: distributed CDG cost vs k S ((1/eps) log n)^(1/k) log n"))
    return rows


def test_e7_stretch_bound(e7_table):
    assert all(r["max-stretch(far)"] <= r["bound(8k-1)"] + 1e-9
               for r in e7_table)


def test_e7_no_underestimates(e7_table):
    assert all(r["under"] == 0 for r in e7_table)


def test_e7_size_within_bound_constant(e7_table):
    assert all(r["mean-size(w)"] <= 3 * r["size-bound"] for r in e7_table)


def test_e7_k_shrinks_size(e7_table):
    fixed_eps = [r for r in e7_table if r["eps"] == 0.25]
    sizes = {r["k"]: r["mean-size(w)"] for r in fixed_eps}
    assert sizes[3] <= sizes[1]


def test_e7_sublinear_in_inverse_eps(e7_table):
    # at k=2, going 0.25 -> 0.05 (5x denser guarantee) must cost far less
    # than 5x the size (the E6 table pays the full linear factor)
    k2 = {r["eps"]: r["mean-size(w)"] for r in e7_table if r["k"] == 2}
    assert k2[0.05] <= 3.0 * k2[0.25]


def test_e7_distributed_rounds_flat(e7_distributed):
    ratios = [r["rounds/bound"] for r in e7_distributed]
    assert ratios[-1] <= 2.0 * ratios[0] + 0.05


def test_e7_benchmark_build(benchmark, e7_table, e7_distributed):
    """Timing kernel: centralized CDG build at n=256, eps=0.1, k=2."""
    g = workload("er", N, weighted=True)

    def run():
        return build_cdg_centralized(g, 0.1, 2, seed=7)

    benchmark.pedantic(run, rounds=3, iterations=1)
