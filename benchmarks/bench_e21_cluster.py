"""E21 — fleet serving: shard-range hosts vs one full host.

The paper's construction is distributed; this experiment distributes the
*serving*.  One index is served three ways — a single full
:class:`~repro.service.server.OracleServer`, then loopback fleets of
1, 2, and 4 shard-range hosts behind a ``cluster://`` session — and the
same query workload runs against every topology.

The headline claim is **identity, not speed**: every fleet's answers
(``dist_many`` and the pipelined ``dist_stream`` path) are compared
bitwise against the single host inside
:func:`~repro.service.cluster.run_cluster_benchmark`, which raises on
the first divergent batch — the assertion is unconditional, there is no
way to record a timing row for a wrong fleet.  Timings are reported for
the trajectory record and never gated: loopback fleets pay real frame
and fan-out overhead per host, so the interesting column is how little
the per-host cost grows, not a speedup.

``REPRO_E21_N`` / ``REPRO_E21_QUERIES`` shrink the workload (CI's
bench-smoke runs n=300).
"""

from __future__ import annotations

import os

import pytest

from benchmarks._workloads import workload
from repro import build_sketches
from repro.analysis import render_table
from repro.service import build_index
from repro.service.cluster import run_cluster_benchmark

N = int(os.environ.get("REPRO_E21_N", "600"))
QUERIES = int(os.environ.get("REPRO_E21_QUERIES", "2000"))
SHARDS = 8
HOSTS = (1, 2, 4)


@pytest.fixture(scope="module")
def e21_report(experiment_report):
    g = workload("geo", N)
    built = build_sketches(g, scheme="tz", k=3, seed=33)
    index = build_index(built.sketches, num_shards=SHARDS)
    data = run_cluster_benchmark(index, hosts=HOSTS, queries=QUERIES,
                                 batch=256, seed=0)
    rows = [{
        "topology": (f"{r['hosts']}-host fleet" if r["topology"] == "fleet"
                     else "single host"),
        "many(s)": round(r["dist_many_s"], 4),
        "stream(s)": round(r["dist_stream_s"], 4),
        "qps": round(r["qps_many"]),
        "identical": "yes" if r["identical"] else "NO",
    } for r in data["rows"]]
    experiment_report(
        "E21-cluster",
        render_table(rows, title=f"E21: loopback fleets vs single host, "
                                 f"tz k=3 geo n={N} shards={SHARDS} "
                                 f"({QUERIES} queries, identity asserted)"),
        data)
    return data


def test_e21_every_topology_identical(e21_report):
    """run_cluster_benchmark raises on divergence; this re-asserts the
    recorded flags so the JSON envelope can never say otherwise."""
    assert all(r["identical"] for r in e21_report["rows"])
    assert {r["hosts"] for r in e21_report["rows"]} == {0, *HOSTS}


def test_e21_fleet_sizes_covered(e21_report):
    fleets = [r for r in e21_report["rows"] if r["topology"] == "fleet"]
    assert [r["hosts"] for r in fleets] == list(HOSTS)
    assert all(r["dist_many_s"] > 0 and r["dist_stream_s"] > 0
               for r in fleets)


def test_e21_benchmark_fleet_batch(benchmark, e21_report):
    """Timing kernel: one dist_many batch against a 2-host fleet."""
    import numpy as np

    from repro.service import connect, loopback_fleet

    g = workload("geo", N)
    built = build_sketches(g, scheme="tz", k=3, seed=33)
    index = build_index(built.sketches, num_shards=SHARDS)
    rng = np.random.default_rng(1)
    pairs = rng.integers(0, g.n, size=(256, 2), dtype=np.int64)
    with loopback_fleet(index, 2) as (spec, _servers):
        with connect(spec) as session:
            benchmark(lambda: session.dist_many(pairs))
