"""E20 — does ``jobs`` pay?  Shard threads vs the calling thread.

The per-landmark shard decomposition (``plan`` → ``shard_answer`` × S →
``finish``) lets a server probe the shards of one batch in parallel.
The serving layer has exactly one knob for that: ``jobs``.  ``jobs=1``
probes in the calling thread; ``jobs > 1`` hands the probes to a
``ThreadPoolExecutor`` in the same address space — the probe kernels
are columnar numpy (gathers, adds, row-mins over the packed arrays), so
they release the GIL and overlap for real, and nothing is copied or
pickled on the way.

This experiment is the row that knob has to own.  It serves the same
workload three ways —

* ``inproc``  — ``jobs=1``, the single-threaded decomposition,
* ``jobs=2``  — two shard threads,
* ``jobs=4``  — four shard threads (one per shard),

— over {tz, stretch3} × batch sizes {64, 1024, 16 384}, reporting
per-cell throughput, the ratio to ``inproc``, and the ``kernel`` /
``ipc`` phase split (``kernel_seconds`` is the per-batch critical path
of pure shard compute; ``ipc_seconds`` is what dispatching to the
executor cost on top).  Expect ``jobs`` to lose wherever a batch's
kernels are cheaper than a thread hand-off (every tz cell at n=2000,
every batch-64 cell) and to win where they are not (stretch3 from
batch ≈ 1024) — see the when-it-pays table in ``docs/serving.md``.

Hard claims (always asserted, any hardware): answers are bit-identical
across every arm, batch size, and scheme.  Timing claim (``jobs=4`` >=
``REPRO_E20_MIN_SPEEDUP``x ``inproc`` on stretch3 at batch >= 1024):
gated by ``timing_gate`` — self-skips on CI and single-CPU hosts, armed
anywhere by ``REPRO_FORCE_TIMING=1``.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_e20_kernels.py -q``
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from benchmarks._workloads import workload, workload_apsp
from repro import build_sketches
from repro.analysis import render_table
from repro.service import (build_tz_sketches_parallel, connect,
                           run_serve_benchmark, sample_query_pairs)

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


@pytest.fixture(scope="module")
def e20_sketches():
    g = workload("er", N, weighted=True)
    tz, _ = build_tz_sketches_parallel(g, k=2, seed=SEED, jobs=2)
    s3 = build_sketches(g, scheme="stretch3", eps=EPS, seed=SEED,
                        dist_matrix=workload_apsp("er", N, weighted=True))
    return {"tz": tz, "stretch3": s3.sketches}


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
        rows, title=f"E20: shard threads vs the calling thread (ER n={N}, "
                    f"{SHARDS} shards, Q={QUERIES})"),
        data={"n": N, "queries": QUERIES, "batches": list(BATCHES),
              "shards": SHARDS, "eps": EPS,
              "min_speedup": MIN_SPEEDUP, "rows": rows})
    return rows


def test_e20_answers_identical_across_jobs(e20_sketches):
    """The hard claim: every arm serves the same bytes, every scheme —
    per batch and streamed."""
    pairs = sample_query_pairs(N, min(1000, QUERIES), seed=3)
    chunks = [pairs[lo:lo + 256] for lo in range(0, len(pairs), 256)]
    for scheme in SCHEMES:
        base = None
        for arm, jobs in ARMS:
            with connect(f"inproc://jobs={jobs};shards={SHARDS};cache=0",
                         e20_sketches[scheme]) as session:
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


def test_e20_threads_pay_on_stretch3(e20_table, timing_gate):
    """The claim ``jobs`` rests on: four shard threads serve stretch3 at
    least as fast as the calling thread alone from batch 1024 up."""
    timing_gate("jobs=4 vs inproc on stretch3")
    cells = [row for row in e20_table
             if row["scheme"] == "stretch3" and row["arm"] == "jobs=4"
             and row["batch"] >= 1024]
    if not cells:
        pytest.skip("REPRO_E20_BATCHES has no batch >= 1024")
    losers = [row for row in cells if row["vs-inproc"] < MIN_SPEEDUP]
    assert not losers, (
        f"jobs=4 under {MIN_SPEEDUP}x inproc on stretch3: {losers}")


def test_e20_benchmark_threaded_pass(benchmark, e20_sketches, e20_table):
    """Timing kernel: one cold-cache batched pass through four shard
    threads (executor start-up excluded — it is a one-time cost)."""
    with connect(f"inproc://jobs=4;shards={SHARDS};cache=0",
                 e20_sketches["tz"]) as session:
        pairs = sample_query_pairs(N, QUERIES, seed=7)
        session.dist_many(pairs)  # warm the executor

        def run():
            return session.dist_many(pairs)

        benchmark(run)
