"""E20 — does ``jobs`` pay, and is the shard count free?

A store answers a batch as ``plan`` → ``answer`` → ``finish``, and a
pair's answer depends on that pair only.  The serving layer has exactly
one knob for local parallelism: ``jobs``.  ``jobs=1`` runs the chain
once in the calling thread; ``jobs=J`` cuts the *batch* into J
contiguous pair ranges and hands each — the whole chain — to a
``ThreadPoolExecutor`` in the same address space, whatever the store's
shard count.  The kernels are columnar numpy (gathers, adds, row-mins
over the packed arrays), so they release the GIL and overlap for real,
and nothing is copied or pickled on the way.

This experiment owns two tables.

**Threads** serves the same workload three ways —

* ``inproc``  — ``jobs=1``, the calling thread,
* ``jobs=2``  — two pair ranges per batch,
* ``jobs=4``  — four pair ranges per batch,

— over {tz, stretch3} × batch sizes {64, 1024, 16 384}, reporting
per-cell throughput, the ratio to ``inproc``, and the ``kernel`` /
``ipc`` phase split (``kernel_seconds`` is the per-batch critical path
of ``answer``; ``ipc_seconds`` is what dispatching to the executor cost
on top).  Expect ``jobs`` to lose wherever a range's chain is cheaper
than a thread hand-off (every cell of this table) — the verdict on
``jobs`` (ROADMAP item 3(b); ``docs/serving.md`` §5) is that it pays
only for batches of >= 65 536 pairs.

**Shards** is the row the unrouted store has to own: tz, ``jobs=1``,
S ∈ {1, 4, 16} × batch ∈ {1, 64, 1024}, µs per batch and the ratio to
S = 1.  A shard is a row range of one bunch table behind one hash
directory, and no step of a batch reads S — so a batch costs the same
whatever S.  The one-pair row (at most
:data:`ONE_PAIR_QUERIES` queries) is the per-request floor; a lone
pair is the store's scalar single-pair query, not a batch, so it costs
the same whatever S too.

Hard claims (always asserted, any hardware): answers are bit-identical
across every arm, shard count, batch size, and scheme.  Timing claims —
``jobs=2`` >= ``REPRO_E20_MIN_SPEEDUP``x ``jobs=1`` in 9 of 10
alternating turns on one :data:`PAY_BATCH`-pair tz batch (the cell of
the verdict's table where threads pay at this size), and S = 4 / 16
within :data:`MAX_SHARD_RATIO` of S = 1 at the largest sweep batch —
are gated by ``timing_gate``: they self-skip on CI and single-CPU
hosts, armed anywhere by ``REPRO_FORCE_TIMING=1``.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_e20_kernels.py -q``
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks._workloads import workload, workload_apsp
from repro import build_sketches
from repro.analysis import render_table
from repro.service import (build_index, connect, run_serve_benchmark,
                           sample_query_pairs)

N = int(os.environ.get("REPRO_E20_N", "2000"))
QUERIES = int(os.environ.get("REPRO_E20_QUERIES", "16384"))
BATCHES = tuple(int(b) for b in
                os.environ.get("REPRO_E20_BATCHES",
                               "64,1024,16384").split(","))
SEED = 97
SHARDS = 4
EPS = 0.1  # |net| ~ 5 ln n / eps: a few hundred columns at n=2000
SCHEMES = ("tz", "stretch3")
#: (arm label, jobs)
ARMS = (("inproc", 1), ("jobs=2", 2), ("jobs=4", 4))
MIN_SPEEDUP = float(os.environ.get("REPRO_E20_MIN_SPEEDUP", "1.0"))
#: pairs of the one batch two threads are timed on.  At n = 2000 a
#: 65 536-pair batch still loses and a 262 144-pair one wins (1.4-2.5x,
#: 10/10) only while its temporaries fall off the allocator's cliff —
#: in this process, after the stretch3 fixture freed a 32 MB matrix,
#: they do not (1.0x); 2^20 pairs win about 2x, 10/10, either way
PAY_BATCH = 1 << 20
#: the shard sweep: tz, ``jobs=1``; a batch larger than the workload is
#: the whole workload in one batch (the CI smoke run)
SWEEP_SHARDS = (1, 4, 16)
SWEEP_BATCHES = (1, 64, 1024)
#: queries of the sweep's one-pair row (a batch each): enough for a
#: per-request floor, few enough that a nightly run stays within seconds
ONE_PAIR_QUERIES = 2048
#: S > 1 may cost this much of S = 1 per batch: nothing but noise, since
#: no step of a batch reads S (the routed store this replaced paid a
#: flat 45-70 us per 1024-pair batch, 1.2-1.3x)
MAX_SHARD_RATIO = 1.05


@pytest.fixture(scope="module")
def e20_sketches():
    g = workload("er", N, weighted=True)
    tz = build_sketches(g, scheme="tz", k=2, seed=SEED)
    s3 = build_sketches(g, scheme="stretch3", eps=EPS, seed=SEED,
                        dist_matrix=workload_apsp("er", N, weighted=True))
    return {"tz": tz.sketches, "stretch3": s3.sketches}


@pytest.fixture(scope="module")
def e20_table(experiment_report, e20_sketches):
    rows = []
    for scheme in SCHEMES:
        sketches = e20_sketches[scheme]
        for batch in BATCHES:
            inproc_qps = None
            for arm, jobs in ARMS:
                rep = run_serve_benchmark(sketches, queries=QUERIES,
                                          batch=batch, seed=11, repeats=3,
                                          num_shards=SHARDS, jobs=jobs)
                assert rep["identical"], \
                    f"{scheme} batch={batch} {arm}: answers diverged"
                phases = rep["phases"]
                qps = rep["batched_qps"]
                if arm == "inproc":
                    inproc_qps = qps
                rows.append({
                    "scheme": scheme, "batch": batch, "arm": arm,
                    "jobs": rep["jobs"],
                    "qps": int(qps),
                    "vs-inproc": round(qps / inproc_qps, 2),
                    "kernel-ms": round(phases["kernel_seconds"] * 1e3, 2),
                    "ipc-ms": round(phases["ipc_seconds"] * 1e3, 2),
                })
    experiment_report("E20-kernels", render_table(
        rows, title=f"E20: pair-range threads vs the calling thread (ER "
                    f"n={N}, {SHARDS} shards, Q={QUERIES})"),
        data={"n": N, "queries": QUERIES, "batches": list(BATCHES),
              "shards": SHARDS, "eps": EPS,
              "min_speedup": MIN_SPEEDUP, "rows": rows})
    return rows


@pytest.fixture(scope="module")
def e20_shard_sweep(experiment_report, e20_sketches):
    rows = []
    for batch in SWEEP_BATCHES:
        queries = min(QUERIES, ONE_PAIR_QUERIES) if batch == 1 else QUERIES
        # the S arms take turns, and an arm keeps its quietest turn: a
        # 5 % claim cannot be read off arms measured minutes apart
        best: dict = {}
        for _ in range(3):
            for shards in SWEEP_SHARDS:
                rep = run_serve_benchmark(e20_sketches["tz"],
                                          queries=queries, batch=batch,
                                          seed=11, repeats=3,
                                          num_shards=shards, jobs=1)
                assert rep["identical"], \
                    f"tz batch={batch} S={shards}: answers diverged"
                if (shards not in best or rep["batched_seconds"]
                        < best[shards]["batched_seconds"]):
                    best[shards] = rep
        for shards, rep in best.items():
            batches = -(-rep["queries"] // rep["batch"])
            us = rep["batched_seconds"] / batches * 1e6
            rows.append({
                "batch": rep["batch"], "shards": shards,
                "queries": rep["queries"],
                "us/batch": round(us, 1),
                "vs-S=1": round(rep["batched_seconds"]
                                / best[1]["batched_seconds"], 2),
                "kernel-us": round(
                    rep["phases"]["kernel_seconds"] / batches * 1e6, 1),
            })
    experiment_report("E20-shards", render_table(
        rows, title=f"E20: a local batch costs the same whatever the "
                    f"shard count (tz, ER n={N}, jobs=1, Q={QUERIES})"),
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
    timing_gate("S=4/16 vs S=1 at jobs=1")
    largest = max(row["batch"] for row in e20_shard_sweep)
    for row in e20_shard_sweep:
        if row["batch"] == largest:
            assert row["vs-S=1"] <= MAX_SHARD_RATIO, row


def test_e20_answers_identical_across_jobs(e20_sketches):
    """The hard claim: every arm serves the same bytes, every scheme —
    per batch and streamed."""
    pairs = sample_query_pairs(N, min(1000, QUERIES), seed=3)
    chunks = [pairs[lo:lo + 256] for lo in range(0, len(pairs), 256)]
    for scheme in SCHEMES:
        base = None
        for arm, jobs in ARMS:
            index = build_index(e20_sketches[scheme], num_shards=SHARDS)
            with connect(f"inproc://jobs={jobs};cache=0", index) as session:
                got = session.dist_many(pairs)
                streamed = np.concatenate(list(session.dist_stream(chunks)))
            assert np.array_equal(streamed, got), (scheme, arm)
            if base is None:
                base = got
            else:
                assert np.array_equal(got, base), (scheme, arm)


def test_e20_table_complete(e20_table):
    assert len(e20_table) == len(SCHEMES) * len(BATCHES) * len(ARMS)
    for row in e20_table:
        assert row["qps"] > 0
        assert row["jobs"] == dict(ARMS)[row["arm"]]


def test_e20_kernel_phase_reported(e20_table):
    """The kernel split is present: every arm reports a nonzero critical
    path, and only arms that dispatch to the executor report ipc."""
    for row in e20_table:
        assert row["kernel-ms"] > 0.0
        if row["arm"] == "inproc":
            assert row["ipc-ms"] == 0.0  # nothing is handed off in-thread


def test_e20_threads_pay_on_one_large_tz_batch(e20_sketches, timing_gate):
    """The claim ``jobs`` is kept on: two threads serve one
    :data:`PAY_BATCH`-pair tz batch faster than the calling thread
    alone, in at least 9 of 10 alternating turns."""
    timing_gate(f"jobs=2 vs jobs=1 on one {PAY_BATCH}-pair tz batch")
    index = build_index(e20_sketches["tz"])
    pairs = sample_query_pairs(N, PAY_BATCH, seed=13)
    with connect("inproc://jobs=1;cache=0", index) as one, \
            connect("inproc://jobs=2;cache=0", index) as two:
        assert np.array_equal(one.dist_many(pairs), two.dist_many(pairs))
        ratios = []
        for turn in range(10):
            took = {}
            for session in (one, two) if turn % 2 else (two, one):
                t0 = time.perf_counter()
                for _ in range(3):
                    session.dist_many(pairs)
                took[session] = time.perf_counter() - t0
            ratios.append(round(took[one] / took[two], 2))
    assert sum(r >= MIN_SPEEDUP for r in ratios) >= 9, (
        f"jobs=2 vs jobs=1 per turn: {ratios}")


def test_e20_benchmark_threaded_pass(benchmark, e20_sketches, e20_table):
    """Timing kernel: one cold-cache batched pass through four threads
    (executor start-up excluded — it is a one-time cost)."""
    with connect("inproc://jobs=4;cache=0",
                 build_index(e20_sketches["tz"],
                             num_shards=SHARDS)) as session:
        pairs = sample_query_pairs(N, QUERIES, seed=7)
        session.dist_many(pairs)  # warm the executor

        def run():
            return session.dist_many(pairs)

        benchmark(run)
