"""E14 — batched oracle serving: vectorized engine vs single-query loop.

The paper's oracle answers one ``dist(u, v)`` in O(k) dictionary
operations — great latency, but a serving system sees query *traffic*.
This experiment measures the serving layer (:mod:`repro.service`): sketch
entries pre-indexed into flat landmark tables (dense top level + hashed
sub-top shards) answer a batch of Q queries in one vectorized pass.

Claims under test:

* batching 1000 queries on a 2000-node graph is >= 5x the single-query
  loop's throughput (the PR's acceptance bar; measured around 6-7x here),
* batched answers are bit-identical to the single-query path (asserted
  inside the harness for every row of the table — a throughput number for
  diverging answers would be meaningless),
* the shard count never changes answers, only the layout,
* the direct-mapped result cache turns repeated traffic into hits on
  every key it kept resident.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_e14_batched_query.py -q``
"""

from __future__ import annotations

import os

import pytest

from benchmarks._workloads import workload
from repro import build_sketches
from repro.analysis import render_table
from repro.service import QueryEngine, build_index
from repro.service.bench import run_serve_benchmark, sample_query_pairs

# CI's benchmark smoke job shrinks the graph (and zeroes the speedup
# bar) to exercise the serving path without timing claims
N = int(os.environ.get("REPRO_E14_N", "2000"))
QUERIES = int(os.environ.get("REPRO_E14_QUERIES", "1000"))
SEED = 61
# the acceptance bar on quiet hardware; shared/throttled CI runners can
# relax it via the environment (see .github/workflows/ci.yml) — the
# bit-identity assertions are never relaxed
MIN_SPEEDUP = float(os.environ.get("REPRO_E14_MIN_SPEEDUP", "5.0"))


@pytest.fixture(scope="module")
def e14_sketches():
    g = workload("er", N, weighted=True)
    return build_sketches(g, scheme="tz", k=2, seed=SEED).sketches


@pytest.fixture(scope="module")
def e14_table(experiment_report, e14_sketches):
    rows = []
    for batch in (100, 250, 1000):
        rep = run_serve_benchmark(e14_sketches, queries=QUERIES, batch=batch,
                                  seed=7, repeats=5)
        assert rep["identical"], "batched answers diverged"
        rows.append({
            "n": rep["n"], "Q": rep["queries"], "batch": rep["batch"],
            "single-qps": int(rep["single_qps"]),
            "batched-qps": int(rep["batched_qps"]),
            "speedup": round(rep["speedup"], 2),
        })
    experiment_report("E14-batched-query", render_table(
        rows, title="E14: batched serving throughput vs the single-query "
                    "loop (TZ k=2, ER n=2000, uniform weights)"),
        data={"n": N, "queries": QUERIES, "rows": rows})
    return rows


def test_e14_batched_5x_at_1000(e14_table):
    """The acceptance bar: >= 5x for batches of 1000 on a 2000-node graph."""
    full_batch = [r for r in e14_table if r["batch"] == QUERIES]
    assert full_batch and full_batch[0]["speedup"] >= MIN_SPEEDUP


def test_e14_bigger_batches_amortize_better(e14_table):
    if MIN_SPEEDUP <= 0:  # the CI smoke config: no timing claims at all
        pytest.skip("relative-timing claim disabled (REPRO_E14_MIN_SPEEDUP=0)")
    speedups = [r["speedup"] for r in e14_table]
    assert speedups[-1] >= speedups[0]


def test_e14_sharding_layout_invariant(e14_sketches):
    import numpy as np

    pairs = sample_query_pairs(N, 500, seed=3)
    base = QueryEngine(build_index(e14_sketches),
                       cache_size=0).dist_many(pairs)
    for shards in (2, 8):
        eng = QueryEngine(build_index(e14_sketches, num_shards=shards),
                          cache_size=0)
        assert np.array_equal(eng.dist_many(pairs), base)


def test_e14_cache_serves_repeats(e14_sketches):
    import numpy as np

    eng = QueryEngine(build_index(e14_sketches), cache_size=4 * QUERIES)
    pairs = sample_query_pairs(N, QUERIES, seed=9)
    eng.dist_many(pairs)
    keys = pairs[:, 0] * N + pairs[:, 1]
    resident = int(np.count_nonzero(np.isin(keys, eng._cache.keys)))
    eng.dist_many(pairs)
    # the replay hits exactly the rows whose key the first pass left
    # resident (direct-mapped: keys sharing a slot keep one of them)
    assert eng.stats.hits == resident > 0


SLACK_BUILDS = {
    "stretch3": dict(scheme="stretch3", eps=0.3),
    "cdg": dict(scheme="cdg", eps=0.3, k=2),
    "graceful": dict(scheme="graceful"),
}


@pytest.fixture(scope="module")
def e14_slack_table(experiment_report):
    """Every scheme through the batched path (smaller n: the slack builds
    run full APSP, and the claim here is identity + speedup shape, not
    absolute throughput)."""
    g = workload("er", 400, weighted=True)
    rows = []
    for scheme, params in SLACK_BUILDS.items():
        built = build_sketches(g, seed=SEED, **params)
        rep = run_serve_benchmark(built.sketches, queries=500, batch=500,
                                  seed=7, repeats=2, num_shards=2)
        assert rep["identical"], f"{scheme}: batched answers diverged"
        rows.append({
            "scheme": rep["scheme"], "n": rep["n"], "Q": rep["queries"],
            "single-qps": int(rep["single_qps"]),
            "batched-qps": int(rep["batched_qps"]),
            "speedup": round(rep["speedup"], 2),
        })
    experiment_report("E14b-slack-batched", render_table(
        rows, title="E14b: batched serving across the slack schemes "
                    "(ER n=400, uniform weights, batch=500)"),
        data={"n": 400, "queries": 500, "rows": rows})
    return rows


def test_e14_slack_schemes_batched_identical(e14_slack_table):
    """Universal batching: every slack scheme's batched path is exact and
    at least as fast as the single-query loop."""
    assert {r["scheme"] for r in e14_slack_table} == set(SLACK_BUILDS)
    for row in e14_slack_table:
        assert row["speedup"] >= 1.0, row


def test_e14_benchmark_batched_pass(benchmark, e14_sketches, e14_table):
    """Timing kernel: one cold-cache batched pass over 1000 pairs."""
    eng = QueryEngine(build_index(e14_sketches), cache_size=0)
    pairs = sample_query_pairs(N, QUERIES, seed=7)

    def run():
        return eng.dist_many(pairs)

    benchmark(run)
