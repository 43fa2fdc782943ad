"""E8 — gracefully degrading sketches (Theorem 4.8, Lemma 4.7, Cor 4.9).

Claims under test:
* graceful degradation: a *single* sketch achieves stretch O(log 1/ε) with
  ε-slack simultaneously for every ε (per-ε curve below),
* worst-case stretch O(log n) over all pairs,
* **average stretch O(1)** — the headline (Corollary 4.9) — measured
  across n and compared against plain TZ at k = log n (which only
  guarantees O(log n) average),
* size O(log^4 n) words and build cost O(S log^4 n) rounds — the modest
  polylog premium over one TZ build that buys the constant average.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from benchmarks._workloads import workload, workload_apsp
from repro.analysis import graceful_size_bound, render_table
from repro.oracle.evaluation import average_stretch, evaluate_stretch
from repro.slack.graceful import build_graceful_centralized
from repro.tz import build_tz_sketches_centralized, estimate_distance


@pytest.fixture(scope="module")
def e8_degradation(experiment_report):
    """Per-ε stretch curve of one sketch (the definition of graceful)."""
    n = 192
    g = workload("er", n, weighted=True)
    d = workload_apsp("er", n, weighted=True)
    sketches, schedule = build_graceful_centralized(g, seed=41)
    rows = []
    for eps, k in schedule:
        rep = evaluate_stretch(
            d, lambda u, v: sketches[u].estimate_to(sketches[v]),
            eps=eps, max_pairs=3000, seed=4)
        rows.append({
            "eps": round(eps, 4),
            "f(eps)-bound(8k-1)": 8 * k - 1,
            "max-stretch(eps-far)": round(rep.max_stretch, 2),
            "mean": round(rep.mean_stretch, 3),
            "under": rep.underestimates,
        })
    experiment_report("E8-graceful-degradation", render_table(
        rows, title=f"E8: one graceful sketch, er n={n} — stretch vs eps "
                    "(Theorem 4.8: all rows from the SAME sketch)"))
    return rows


@pytest.fixture(scope="module")
def e8_average(experiment_report):
    """Average stretch vs n: graceful (O(1)) against TZ k=log n."""
    rows = []
    for n in (96, 192, 320):
        g = workload("ba", n)
        d = workload_apsp("ba", n)
        graceful, _ = build_graceful_centralized(g, seed=43)
        k = max(1, int(math.log2(n)))
        tz, _ = build_tz_sketches_centralized(g, k=k, seed=44)
        avg_g = average_stretch(
            d, lambda u, v: graceful[u].estimate_to(graceful[v]),
            max_pairs=3000, seed=5)
        avg_tz = average_stretch(
            d, lambda u, v: estimate_distance(tz[u], tz[v]),
            max_pairs=3000, seed=5)
        rows.append({
            "n": n,
            "graceful-avg": round(avg_g, 3),
            "tz(k=log n)-avg": round(avg_tz, 3),
            "graceful-size(w)": int(np.mean([s.size_words()
                                             for s in graceful])),
            "tz-size(w)": int(np.mean([s.size_words() for s in tz])),
            "size-bound-log^4": round(graceful_size_bound(n), 0),
        })
    experiment_report("E8b-average-stretch", render_table(
        rows, title="E8: average stretch (Cor 4.9: graceful stays O(1)) "
                    "and the polylog size premium"))
    return rows


def test_e8_per_eps_bound_holds(e8_degradation):
    assert all(r["max-stretch(eps-far)"] <= r["f(eps)-bound(8k-1)"] + 1e-9
               for r in e8_degradation)


def test_e8_no_underestimates(e8_degradation):
    assert all(r["under"] == 0 for r in e8_degradation)


def test_e8_average_stretch_constant(e8_average):
    """Corollary 4.9: the measured average stays below a small constant
    and does not grow with n."""
    avgs = [r["graceful-avg"] for r in e8_average]
    assert max(avgs) <= 2.5
    assert avgs[-1] <= avgs[0] * 1.5 + 0.2


def test_e8_graceful_at_least_as_good_as_tz_on_average(e8_average):
    for r in e8_average:
        assert r["graceful-avg"] <= r["tz(k=log n)-avg"] + 0.05


def test_e8_size_within_polylog_bound(e8_average):
    assert all(r["graceful-size(w)"] <= 3 * r["size-bound-log^4"]
               for r in e8_average)


def test_e8_benchmark_build(benchmark, e8_degradation, e8_average):
    """Timing kernel: full graceful build at n=128 (centralized)."""
    g = workload("er", 128, weighted=True)

    def run():
        return build_graceful_centralized(g, seed=9)

    benchmark.pedantic(run, rounds=3, iterations=1)
