"""E17 — the transport matrix: inproc vs tcp-loopback.

PR 5 unified the serving API around sessions over pluggable transports
(`repro.service.client.connect`): the same plan/shard_answer/finish
dataflow runs in this process (``inproc://``) and across a TCP frame
protocol (``tcp://host:port``).  This experiment measures what each topology
costs on one box, for a stretch-3 workload:

* ``single_qps``  — one pair per request (for tcp: one RPC per pair,
  the latency floor),
* ``batched_qps`` — ``dist_many`` per batch (the request-amortized
  path),
* ``streamed_qps`` — ``dist_stream`` over all batches (over tcp, batch
  *k+1*'s encode and round trip overlap batch *k*'s server-side work).

Every batch here is far below the engine's cut (``2·RANGE_PAIRS``
pairs), so both rows answer it in one thread: E20 owns the cut.

Hard claims (always asserted, any size, any hardware): per-pair,
batched, and streamed answers are **bit-identical** on every transport.
There is no timing gate — relative transport cost is exactly the
environment-dependent quantity the table exists to show (CI runs this
at n=300 purely to keep every code path exercised; see the bench-smoke
job).

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_e17_transport.py -q``
"""

from __future__ import annotations

import os

import pytest

from benchmarks._workloads import workload, workload_apsp
from repro import build_sketches
from repro.analysis import render_table
from repro.service import OracleServer, run_connect_benchmark

N = int(os.environ.get("REPRO_E17_N", "1500"))
QUERIES = int(os.environ.get("REPRO_E17_QUERIES", "3000"))
BATCH = min(500, QUERIES)
EPS = 0.08
SEED = 57


@pytest.fixture(scope="module")
def e17_built():
    g = workload("er", N, weighted=True)
    return build_sketches(g, scheme="stretch3", eps=EPS, seed=SEED,
                          dist_matrix=workload_apsp("er", N, weighted=True))


@pytest.fixture(scope="module")
def e17_table(experiment_report, e17_built):
    # cache=0 everywhere (the tcp server below is also built with
    # cache_size=0): the table compares transports, and a warm LRU
    # cache would turn the local rows into dict-lookup benchmarks
    specs = [("inproc", "inproc://cache=0", e17_built)]
    rows = []
    reports = []
    with OracleServer(e17_built, cache_size=0) as server:
        host, port = server.serve("127.0.0.1:0", block=False)
        specs.append(("tcp-loopback", f"tcp://{host}:{port}", None))
        for label, spec, source in specs:
            rep = run_connect_benchmark(spec, source, queries=QUERIES,
                                        batch=BATCH, seed=9, repeats=3)
            assert rep["identical"], \
                f"{label}: batched/streamed answers diverged"
            reports.append(rep)
            rows.append({
                "transport": label,
                "single-qps": int(rep["single_qps"]),
                "batched-qps": int(rep["batched_qps"]),
                "streamed-qps": int(rep["streamed_qps"]),
                "vs-inproc": (round(rep["batched_qps"]
                                    / reports[0]["batched_qps"], 2)
                              if reports else 1.0),
            })
    experiment_report("E17-transport", render_table(
        rows, title=f"E17: serving transports (stretch3 eps={EPS}, "
                    f"ER n={N}, batch={BATCH})"),
        data={"n": N, "queries": QUERIES, "batch": BATCH, "eps": EPS,
              "rows": rows})
    return rows


def test_e17_answers_identical_on_every_transport(e17_table):
    """The identity assertions ran inside the table fixture (per cell,
    against the per-pair loop of the same session); the table itself
    must cover both topologies."""
    assert [r["transport"] for r in e17_table] == ["inproc", "tcp-loopback"]
