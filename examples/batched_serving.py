#!/usr/bin/env python
"""Batched serving: sessions over pluggable transports.

The serving-layer walkthrough (repro.service), over one Thorup-Zwick
sketch set:

1. open an ``inproc://`` session with :func:`repro.service.connect` —
   sketch entries pre-indexed into flat landmark tables,
2. answer a 10,000-query batch in one vectorized pass and check it agrees
   exactly with the single-query reference path,
3. replay the workload through a session that asks for a result cache
   (a TZ store has none by default) to show it absorbing repeated
   traffic (and account for every replayed row exactly),
4. persist the pre-built index and reload it without rebuilding,
5. answer a bulk batch the engine cuts into pair ranges on its own
   thread pool (no option: one range per CPU, 2^15 pairs each at
   least — same bytes out), and pipeline a streaming workload through
   the double-buffered dispatch,
6. serve the same oracle over TCP (``tcp://``) and over a loopback
   client, bit-identical again,
7. serve a slack scheme (stretch3) through its own vectorized index.

The prose version of this walkthrough, with the knob-picking guidance,
is docs/serving.md.

Run:  python examples/batched_serving.py
"""

import os
import tempfile
import time

import numpy as np

from repro import build_sketches
from repro.graphs import assign_uniform_weights, erdos_renyi
from repro.oracle.serialization import (load_index_binary,
                                        save_index_binary)
from repro.service import OracleServer, connect, sample_query_pairs
from repro.service.engine import RANGE_PAIRS, usable_cpus


def main() -> None:
    g = assign_uniform_weights(erdos_renyi(1000, seed=1), low=1, high=10,
                               seed=2)
    built = build_sketches(g, scheme="tz", k=2, seed=3)
    sketches = built.sketches
    print(built.describe())

    def reference(u: int, v: int) -> float:
        from repro.tz.sketch import estimate_distance

        return estimate_distance(sketches[u], sketches[v])

    # 1. an in-process session -------------------------------------------
    session = connect("inproc://cache=0", sketches)
    print(session)

    # 2. one vectorized pass over 10k queries ----------------------------
    pairs = sample_query_pairs(g.n, 10_000, seed=7)
    estimates = session.dist_many(pairs)  # warm-up
    t0 = time.perf_counter()
    estimates = session.dist_many(pairs)
    dt = time.perf_counter() - t0
    t0 = time.perf_counter()
    single = [reference(int(u), int(v)) for u, v in pairs]
    dt_single = time.perf_counter() - t0
    print(f"batch of {len(pairs)} queries in {dt * 1e3:.1f} ms "
          f"({len(pairs) / dt:,.0f} queries/s); single-query loop "
          f"{len(pairs) / dt_single:,.0f} queries/s -> "
          f"{dt_single / dt:.1f}x speedup")
    assert estimates.tolist() == single, "batched != single?!"
    print("batched answers identical to the single-query path")

    # 3. repeated traffic hits the result cache --------------------------
    # a TZ store serves uncached by default (its batch kernels cost less
    # than the cache's probe and write-back), so this session asks for
    # one.  Direct-mapped: a key has one slot, so distinct pairs that
    # share a slot keep one of them; the replay hits exactly the
    # resident ones
    distinct = np.unique(pairs, axis=0)
    with connect("inproc://cache=50000", sketches) as cached:
        cached.dist_many(distinct)
        first = cached.stats()["cache"]
        assert first["misses"] == len(distinct) and first["hits"] == 0
        # nothing to evict yet, and one write-back's keys that share a
        # slot do not evict each other: one of them is written
        assert first["evictions"] == 0
        cached.dist_many(distinct)
        counters = cached.stats()["cache"]
        assert counters["hits"] == first["entries"]
        assert counters["misses"] == 2 * len(distinct) - first["entries"]
        print(f"replay of {len(distinct)} distinct pairs through 50000 "
              f"slots: {counters['hits']} hits "
              f"({100 * counters['hits'] / len(distinct):.0f}% of the "
              f"replay), {counters['evictions']} evictions")

    # 4. persist the pre-built index -------------------------------------
    index = session.fetch_index()  # the live store behind the session
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.rpix")
        save_index_binary(index, path)
        reloaded = load_index_binary(path)
    check = sample_query_pairs(g.n, 500, seed=9)
    assert np.array_equal(reloaded.estimate_many(check[:, 0], check[:, 1]),
                          index.estimate_many(check[:, 0], check[:, 1]))
    print("index round-trip: reloaded store answers identically")

    # 5. a bulk batch, cut by the engine -------------------------------
    # the 10k pairs repeated to 2 * RANGE_PAIRS: the smallest batch the
    # engine cuts, into min(cpus, q // RANGE_PAIRS) ranges
    bulk = np.resize(pairs, (2 * RANGE_PAIRS, 2))
    want = np.resize(estimates, 2 * RANGE_PAIRS)
    ranges = min(usable_cpus(), len(bulk) // RANGE_PAIRS)
    how = (f"cut into {ranges} pair ranges" if ranges > 1
           else "answered in one thread (one CPU)")
    with connect("inproc://cache=0", sketches) as bulk_session:
        fanned = bulk_session.dist_many(bulk)
        assert np.array_equal(fanned, want), "the cut changed answers?!"
        print(f"{len(bulk)} pairs {how}: answers bit-identical to the "
              f"in-thread path")
        # the pipelined stream: batch k+1's submit overlaps batch k's
        # pair ranges; same bytes, and the hidden seconds are reported
        streamed = list(bulk_session.dist_stream([bulk, bulk]))
        assert all(np.array_equal(out, want) for out in streamed)
        overlap = bulk_session.stats()["phases"]["overlap_seconds"]
        print(f"pipelined stream identical too "
              f"({overlap * 1e3:.2f} ms of dispatch hidden behind kernels)")

    # 6. the same oracle over TCP ----------------------------------------
    with OracleServer(sketches, num_shards=4, cache_size=0) as server:
        host, port = server.serve("127.0.0.1:0", block=False)
        with connect(f"tcp://{host}:{port}") as remote:
            over_tcp = remote.dist_many(pairs[:1000])
    assert np.array_equal(over_tcp, estimates[:1000])
    print("tcp-loopback session: answers bit-identical to inproc "
          "(python -m repro serve hosts the same thing as a daemon)")

    # 7. a slack scheme through its own index ----------------------------
    s3 = build_sketches(g, scheme="stretch3", eps=0.25, seed=11)
    with s3.connect("inproc://cache=0") as slack:
        small = pairs[:1000]
        batched = slack.dist_many(small)
        assert batched.tolist() == [s3.query(int(u), int(v))
                                    for u, v in small]
        print(f"stretch3 via its own index: {len(small)} batched answers "
              f"identical to the single path")

    session.close()


if __name__ == "__main__":
    main()
