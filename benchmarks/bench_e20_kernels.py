"""E20 — does the cut pay, and is the shard count free?

A store answers a batch as ``plan`` → ``answer`` → ``finish``, and a
pair's answer depends on that pair only.  How a batch runs is the
engine's decision: a batch of q pairs is cut into
``min(cpus, q // RANGE_PAIRS)`` contiguous pair ranges, each — the
whole chain — a task on a ``ThreadPoolExecutor`` in the same address
space, whatever the store's shard count; below two ranges it runs in
the calling thread.  The kernels are columnar numpy (gathers, adds,
row-mins over the packed arrays), so they release the GIL and overlap
for real, and nothing is copied or pickled on the way.

This experiment owns two tables.

**Cut** serves the same batches two ways —

* ``in-thread`` — an engine built with ``cpus`` substituted to 1: every
  batch runs in the calling thread,
* ``engine``    — an engine built on this host's CPUs: the rule itself,

— over {tz, stretch3} × batch sizes :data:`BATCHES` (the smallest cut
is ``2·RANGE_PAIRS`` = 65 536 pairs), one batch per arm per turn in
:data:`TURNS` alternating turns in one process, reporting the median
pairs per second, the ranges the rule cut the batch into, the median of
the per-turn ratios to ``in-thread``, and the ``kernel`` / ``ipc``
phase split per batch (``kernel_seconds`` is the per-batch critical
path of ``answer``; ``ipc_seconds`` is what dispatching to the executor
cost on top).  Below the cut both arms run the same code, so their
ratio is the host's noise.  ``docs/serving.md`` §5 has the trial that
set ``RANGE_PAIRS``.

**Shards** is the row the unrouted store has to own: tz, in-thread
batches, S ∈ {1, 4, 16} × batch ∈ {1, 64, 1024}, µs per batch and the
ratio to S = 1.  A shard is a row range of one bunch table behind one
hash directory, and no step of a batch reads S — so a batch costs the
same whatever S.  The one-pair row (at most :data:`ONE_PAIR_QUERIES`
queries) is the per-request floor; a lone pair is the store's scalar
single-pair query, not a batch, so it costs the same whatever S too.

Hard claims (always asserted, any hardware): answers are bit-identical
across both arms, every shard count, batch size, and scheme.  Timing
claims — the engine's cut >= ``REPRO_E20_MIN_SPEEDUP``x in-thread in 9
of 10 alternating turns on one :data:`PAY_BATCH`-pair tz batch, and
S = 4 / 16 within :data:`MAX_SHARD_RATIO` of S = 1 at the largest sweep
batch — are gated by ``timing_gate``: they self-skip on CI and
single-CPU hosts, armed anywhere by ``REPRO_FORCE_TIMING=1``.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_e20_kernels.py -q``
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pytest

from benchmarks._workloads import workload
from repro import build_sketches
from repro.analysis import render_table
from repro.service import (QueryEngine, build_index, connect,
                           sample_query_pairs)
from repro.service.engine import RANGE_PAIRS

N = int(os.environ.get("REPRO_E20_N", "2000"))
QUERIES = int(os.environ.get("REPRO_E20_QUERIES", "16384"))
BATCHES = tuple(int(b) for b in
                os.environ.get("REPRO_E20_BATCHES",
                               "32768,65536,262144").split(","))
SEED = 97
SHARDS = 4
EPS = 0.1  # |net| ~ 5 ln n / eps: a few hundred columns at n=2000
SCHEMES = ("tz", "stretch3")
ARMS = ("in-thread", "engine")
#: alternating turns per cell of the cut table
TURNS = 5
MIN_SPEEDUP = float(os.environ.get("REPRO_E20_MIN_SPEEDUP", "1.0"))
#: pairs of the one batch the cut is gated on: 2^20 pairs win about 2x,
#: 10/10, at n = 2000 wherever the single thread's allocator cliff sits
#: (docs/serving.md §5)
PAY_BATCH = 1 << 20
#: the shard sweep: tz, in-thread batches; a batch larger than the
#: workload is the whole workload in one batch (the CI smoke run)
SWEEP_SHARDS = (1, 4, 16)
SWEEP_BATCHES = (1, 64, 1024)
#: alternating turns per sweep batch size; each S keeps its quietest
SWEEP_TURNS = 9
#: queries of the sweep's one-pair row (a batch each): enough for a
#: per-request floor, few enough that a nightly run stays within seconds
ONE_PAIR_QUERIES = 2048
#: S > 1 may cost this much of S = 1 per batch: nothing but noise, since
#: no step of a batch reads S (the routed store this replaced paid a
#: flat 45-70 us per 1024-pair batch, 1.2-1.3x)
MAX_SHARD_RATIO = 1.05


def _arms(index) -> dict:
    """Both arms over one store: an engine built for one CPU (never
    cuts) and one built on this host's CPUs (the engine's rule)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.service.engine.usable_cpus", lambda: 1)
        in_thread = QueryEngine(index, cache_size=0)
    return {"in-thread": in_thread, "engine": QueryEngine(index, cache_size=0)}


@pytest.fixture(scope="module")
def e20_sketches():
    g = workload("er", N, weighted=True)
    tz = build_sketches(g, scheme="tz", k=2, seed=SEED)
    s3 = build_sketches(g, scheme="stretch3", eps=EPS, seed=SEED)
    return {"tz": tz.sketches, "stretch3": s3.sketches}


@pytest.fixture(scope="module")
def e20_table(experiment_report, e20_sketches):
    rows = []
    for scheme in SCHEMES:
        arms = _arms(build_index(e20_sketches[scheme], num_shards=SHARDS))
        try:
            for batch in BATCHES:
                pairs = sample_query_pairs(N, batch, seed=11)
                want = arms["in-thread"].dist_many(pairs)
                for arm, engine in arms.items():
                    assert engine.dist_many(pairs).tobytes() == \
                        want.tobytes(), f"{scheme} batch={batch} {arm}"
                    engine.reset_phase_timings()
                took = {arm: [] for arm in ARMS}
                for turn in range(TURNS):
                    for arm in ARMS if turn % 2 else ARMS[::-1]:
                        t0 = time.perf_counter()
                        arms[arm].dist_many(pairs)
                        took[arm].append(time.perf_counter() - t0)
                for arm, engine in arms.items():
                    phases = engine.phase_timings()
                    per_batch = 1e3 / phases["batches"]
                    rows.append({
                        "scheme": scheme, "batch": batch, "arm": arm,
                        "ranges": max(1, min(engine.cpus,
                                             batch // RANGE_PAIRS)),
                        "pairs/s": int(batch / statistics.median(took[arm])),
                        "vs-in-thread": round(statistics.median(
                            a / b for a, b in zip(took["in-thread"],
                                                  took[arm])), 2),
                        "kernel-ms": round(
                            phases["kernel_seconds"] * per_batch, 2),
                        "ipc-ms": round(phases["ipc_seconds"] * per_batch,
                                        2),
                    })
        finally:
            for engine in arms.values():
                engine.close()
    experiment_report("E20-kernels", render_table(
        rows, title=f"E20: the engine's cut vs the calling thread (ER "
                    f"n={N}, {SHARDS} shards, {TURNS} alternating turns)"),
        data={"n": N, "batches": list(BATCHES), "shards": SHARDS,
              "eps": EPS, "turns": TURNS, "range_pairs": RANGE_PAIRS,
              "min_speedup": MIN_SPEEDUP, "rows": rows})
    return rows


@pytest.fixture(scope="module")
def e20_shard_sweep(experiment_report, e20_sketches):
    sketches = e20_sketches["tz"]
    engines = {shards: QueryEngine(build_index(sketches, num_shards=shards),
                                   cache_size=0)
               for shards in SWEEP_SHARDS}
    rows = []
    try:
        for batch in SWEEP_BATCHES:
            queries = (min(QUERIES, ONE_PAIR_QUERIES) if batch == 1
                       else QUERIES)
            batch = min(batch, queries)
            pairs = sample_query_pairs(N, queries, seed=11)
            chunks = [pairs[lo:lo + batch]
                      for lo in range(0, queries, batch)]
            want = np.asarray([sketches[u].estimate_to(sketches[v])
                               for u, v in pairs.tolist()])
            for shards, engine in engines.items():
                got = np.concatenate([engine.dist_many(c) for c in chunks])
                assert got.tobytes() == want.tobytes(), \
                    f"tz batch={batch} S={shards}: answers diverged"
                engine.reset_phase_timings()
            # the S arms take turns, and an arm keeps its quietest turn: a
            # 5 % claim cannot be read off arms measured minutes apart
            best = {shards: float("inf") for shards in SWEEP_SHARDS}
            for turn in range(SWEEP_TURNS):
                for shards in (SWEEP_SHARDS if turn % 2
                               else SWEEP_SHARDS[::-1]):
                    t0 = time.perf_counter()
                    for chunk in chunks:
                        engines[shards].dist_many(chunk)
                    best[shards] = min(best[shards],
                                       time.perf_counter() - t0)
            for shards, engine in engines.items():
                phases = engine.phase_timings()
                rows.append({
                    "batch": batch, "shards": shards, "queries": queries,
                    "us/batch": round(best[shards] / len(chunks) * 1e6, 1),
                    "vs-S=1": round(best[shards] / best[1], 2),
                    "kernel-us": round(phases["kernel_seconds"]
                                       / phases["batches"] * 1e6, 1),
                })
    finally:
        for engine in engines.values():
            engine.close()
    experiment_report("E20-shards", render_table(
        rows, title=f"E20: a local batch costs the same whatever the "
                    f"shard count (tz, ER n={N}, in-thread, Q={QUERIES})"),
        data={"n": N, "queries": QUERIES, "max_ratio": MAX_SHARD_RATIO,
              "rows": rows})
    return rows


def test_e20_answers_identical_across_shard_counts(e20_sketches):
    """The hard claim of the sweep: the shard count never shows in the
    answers, for either scheme."""
    pairs = sample_query_pairs(N, min(1000, QUERIES), seed=5)
    for scheme in SCHEMES:
        base = None
        for shards in SWEEP_SHARDS:
            index = build_index(e20_sketches[scheme], num_shards=shards)
            with connect("inproc://cache=0", index) as session:
                got = session.dist_many(pairs)
            if base is None:
                base = got
            else:
                assert np.array_equal(got, base), (scheme, shards)


def test_e20_shard_sweep_complete(e20_shard_sweep):
    assert len(e20_shard_sweep) == len(SWEEP_BATCHES) * len(SWEEP_SHARDS)
    for row in e20_shard_sweep:
        assert row["us/batch"] > 0 and row["kernel-us"] > 0


def test_e20_shard_count_is_free(e20_shard_sweep, timing_gate):
    """The claim unrouted local serving rests on: four or sixteen
    shards cost a batch what one does."""
    timing_gate("S=4/16 vs S=1, in-thread")
    largest = max(row["batch"] for row in e20_shard_sweep)
    for row in e20_shard_sweep:
        if row["batch"] == largest:
            assert row["vs-S=1"] <= MAX_SHARD_RATIO, row


def test_e20_answers_identical_across_arms(e20_sketches):
    """The hard claim: both arms serve the same bytes, every scheme —
    per bulk batch (the smallest the engine cuts) and streamed."""
    pairs = sample_query_pairs(N, 4 * RANGE_PAIRS, seed=3)
    chunks = [pairs[:2 * RANGE_PAIRS], pairs[2 * RANGE_PAIRS:]]
    for scheme in SCHEMES:
        arms = _arms(build_index(e20_sketches[scheme], num_shards=SHARDS))
        base = None
        for arm, engine in arms.items():
            with engine:
                got = engine.dist_many(pairs)
                streamed = np.concatenate(list(engine.dist_stream(chunks)))
            assert np.array_equal(streamed, got), (scheme, arm)
            if base is None:
                base = got
            else:
                assert np.array_equal(got, base), (scheme, arm)


def test_e20_table_complete(e20_table):
    assert len(e20_table) == len(SCHEMES) * len(BATCHES) * len(ARMS)
    for row in e20_table:
        assert row["pairs/s"] > 0
        if row["arm"] == "in-thread":
            assert row["ranges"] == 1


def test_e20_kernel_phase_reported(e20_table):
    """The kernel split is present: every arm reports a nonzero critical
    path, and only batches cut into ranges report ipc."""
    for row in e20_table:
        assert row["kernel-ms"] > 0.0
        if row["ranges"] == 1:
            assert row["ipc-ms"] == 0.0  # nothing is handed off in-thread


def test_e20_the_cut_pays_on_one_large_tz_batch(e20_sketches, timing_gate):
    """The claim the cut rests on: the engine's rule serves one
    :data:`PAY_BATCH`-pair tz batch faster than the calling thread
    alone, in at least 9 of 10 alternating turns."""
    timing_gate(f"the cut vs in-thread on one {PAY_BATCH}-pair tz batch")
    arms = _arms(build_index(e20_sketches["tz"]))
    one, cut = arms["in-thread"], arms["engine"]
    pairs = sample_query_pairs(N, PAY_BATCH, seed=13)
    with one, cut:
        assert np.array_equal(one.dist_many(pairs), cut.dist_many(pairs))
        ratios = []
        for turn in range(10):
            took = {}
            for engine in (one, cut) if turn % 2 else (cut, one):
                t0 = time.perf_counter()
                for _ in range(3):
                    engine.dist_many(pairs)
                took[engine] = time.perf_counter() - t0
            ratios.append(round(took[one] / took[cut], 2))
    assert sum(r >= MIN_SPEEDUP for r in ratios) >= 9, (
        f"cut vs in-thread per turn: {ratios}")


def test_e20_benchmark_cut_pass(benchmark, e20_sketches, e20_table):
    """Timing kernel: one cold-cache pass of the smallest batch the
    engine cuts (pool start-up excluded — it is a one-time cost)."""
    with connect("inproc://cache=0",
                 build_index(e20_sketches["tz"],
                             num_shards=SHARDS)) as session:
        pairs = sample_query_pairs(N, 2 * RANGE_PAIRS, seed=7)
        session.dist_many(pairs)  # warm the pool

        def run():
            return session.dist_many(pairs)

        benchmark(run)
