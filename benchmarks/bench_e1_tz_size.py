"""E1 — Thorup-Zwick sketch size (Lemma 3.1, Theorem 1.1/3.8).

Claims under test:
* expected label size O(k n^{1/k}) words (Lemma 3.1),
* w.h.p. label size O(k n^{1/k} log n) words (Lemma 3.6 / Theorem 3.8),
* the size/stretch knob: k = log n minimizes size at O(log^2 n)-ish words.

The table reports, for each (family, n, k): measured mean and max label
size in words against both theory curves; the implied constants must not
drift upward with n (shape reproduction).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from benchmarks._workloads import workload
from repro.analysis import render_table, tz_size_bound
from repro.tz import build_tz_sketches_centralized

FAMILIES = ("er", "geo")
NS = (64, 128, 256, 512)
#: the ER sweep for k >= 2 reaches the sizes where n^{1/k} and log n
#: separate; k = 1 stays on NS (its labels are n^2 words in total)
ER_NS = (256, 1024, 4096)
KS = (1, 2, 3, "log n")


def _sweep(family: str, k) -> tuple:
    return ER_NS if family == "er" and k != 1 else NS


def _resolve_k(k, n: int) -> int:
    return max(1, int(math.log2(n))) if k == "log n" else k


def _measure(family: str, n: int, k) -> dict:
    kk = _resolve_k(k, n)
    g = workload(family, n)
    sketches, _ = build_tz_sketches_centralized(g, k=kk, seed=n + kk)
    sizes = np.array([s.size_words() for s in sketches])
    return {
        "family": family,
        "n": n,
        "k": f"{k}" if k != "log n" else f"log n={kk}",
        "mean(words)": round(float(sizes.mean()), 1),
        "max(words)": int(sizes.max()),
        "E-bound k*n^(1/k)": round(2 * tz_size_bound(n, kk, whp=False), 1),
        "mean/E-bound": round(float(sizes.mean())
                              / (2 * tz_size_bound(n, kk, whp=False)), 3),
        "max/whp-bound": round(int(sizes.max())
                               / (2 * tz_size_bound(n, kk, whp=True)), 3),
    }


@pytest.fixture(scope="module")
def e1_table(experiment_report):
    rows = [_measure(f, n, k) for f in FAMILIES for k in KS
            for n in _sweep(f, k)]
    experiment_report("E1-tz-sketch-size", render_table(
        rows, title="E1: TZ label size vs k n^{1/k} (Lemma 3.1 / Thm 3.8); "
                     "bounds in words = 2 entries"))
    return rows


def test_e1_mean_size_tracks_expectation(e1_table):
    """Implied constant of the Lemma 3.1 expectation stays O(1)."""
    assert all(r["mean/E-bound"] <= 3.0 for r in e1_table)


def test_e1_max_size_within_whp_bound(e1_table):
    assert all(r["max/whp-bound"] <= 3.0 for r in e1_table)


def test_e1_no_upward_drift_in_n(e1_table):
    """Shape: the implied constant must not grow along the n sweep."""
    for family in FAMILIES:
        for k in ("2", "3"):
            ratios = [r["mean/E-bound"] for r in e1_table
                      if r["family"] == family and r["k"] == k]
            assert ratios[-1] <= 2.0 * ratios[0] + 0.2


def test_e1_klogn_smallest_at_large_n(e1_table):
    """k=log n gives the smallest sketches at the largest n (paper: the
    minimum-size point of the tradeoff) — against k=2 at the top of the
    ER sweep, against k=1 at the largest n both sweeps share."""
    def sizes(n):
        return {r["k"].split()[0]: r["mean(words)"] for r in e1_table
                if r["n"] == n and r["family"] == "er"}

    top, shared = sizes(max(ER_NS)), sizes(max(set(ER_NS) & set(NS)))
    assert top["log"] <= top["2"]
    assert shared["log"] <= shared["1"]
    assert shared["log"] <= shared["2"]


def bench_build(n=256, k=3, weighted=False):
    g = workload("er", n, weighted)
    return build_tz_sketches_centralized(g, k=k, seed=1)


def test_e1_benchmark_build_centralized(benchmark, e1_table):
    """Timing kernel: centralized TZ preprocessing at n=256, k=3."""
    benchmark.pedantic(bench_build, rounds=3, iterations=1)


def test_e1_benchmark_build_serving_size(benchmark):
    """The same builder at the size the gated serving workloads of
    ``bench/`` cold-start on: weighted ER, n=2000, k=2."""
    benchmark.pedantic(bench_build, kwargs=dict(n=2000, k=2, weighted=True),
                       rounds=3, iterations=1)
