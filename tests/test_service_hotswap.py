"""Epoch-stamped hot swap under load (QueryEngine.apply_updates).

The contract: a batch issued mid-update completes against **exactly one
epoch** — it either sees the whole old index or the whole new one, never
a torn mix — for in-process serving (``jobs=1``) and the pooled
shared-memory data plane (``jobs=4``).  The old epoch's server (pool +
segments) is released once its last in-flight batch drains, so repeated
updates cannot leak ``/dev/shm`` segments.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graphs import assign_uniform_weights, erdos_renyi
from repro.service import (OracleServer, QueryEngine, UpdateableIndex,
                           sample_query_pairs, sample_weight_changes)
from repro.service.buffers import live_segment_names

EPOCHS = 3


@pytest.fixture()
def updateable():
    g = assign_uniform_weights(erdos_renyi(40, seed=101), seed=17)
    return UpdateableIndex(g, scheme="tz", seed=5, k=2, num_shards=4,
                           rebuild_threshold=1.0)


def _epoch_references(updateable, pairs):
    """The full answer vector of each epoch, computed inline (no engine)
    while replaying the same change batches the test applies."""
    refs = [updateable.index.estimate_many(pairs[:, 0], pairs[:, 1])]
    batches = []
    for i in range(EPOCHS):
        changes = sample_weight_changes(updateable.graph, 3, seed=900 + i,
                                        low=0.1, high=0.4)
        batches.append(changes)
        updateable.apply(changes)
        refs.append(updateable.index.estimate_many(pairs[:, 0], pairs[:, 1]))
    return refs, batches


@pytest.mark.parametrize("jobs", [1, 4])
def test_batch_mid_update_sees_exactly_one_epoch(updateable, jobs):
    g = updateable.graph.copy()
    pairs = sample_query_pairs(g.n, 400, seed=3)
    # replay on a twin to learn each epoch's expected answers up front
    twin = UpdateableIndex(g, scheme="tz", seed=5, k=2, num_shards=4,
                           rebuild_threshold=1.0)
    refs, batches = _epoch_references(twin, pairs)
    ref_bytes = {r.tobytes() for r in refs}
    assert len(ref_bytes) == EPOCHS + 1  # every epoch answers differently

    engine = QueryEngine.from_updateable(updateable, cache_size=0,
                                         jobs=jobs, memory="shared")
    results: list[bytes] = []
    stop = threading.Event()
    failures: list[Exception] = []

    def hammer():
        try:
            while not stop.is_set():
                results.append(
                    np.asarray(engine.dist_many(pairs)).tobytes())
        except Exception as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    try:
        thread = threading.Thread(target=hammer)
        thread.start()
        planes = [engine._server.data_plane()]
        for changes in batches:
            report = engine.apply_updates(changes)
            assert report.mode in ("repair", "rebuild")
            planes.append(engine._server.data_plane())
        stop.set()
        thread.join()
        assert not failures, failures[0]
        # every mid-flight batch matched one epoch wholesale
        assert results, "hammer thread never completed a batch"
        for got in results:
            assert got in ref_bytes
        # after the last swap the engine serves the final epoch
        assert engine.epoch == EPOCHS
        assert engine.dist_many(pairs).tobytes() == refs[-1].tobytes()
        # each epoch's workers attach to their own shared segment
        segs = [p["pack_segment"] for p in planes]
        assert len(set(segs)) == EPOCHS + 1
        # retired epochs drained: nothing left pending but the live one
        assert not engine._retired
        live = set(live_segment_names())
        assert segs[-1] in live
        assert not (set(segs[:-1]) & live)  # old packs unlinked
    finally:
        stop.set()
        engine.close()


def test_thread_plane_stream_mid_update_sees_exactly_one_epoch(updateable):
    """``pool="thread"`` epoch swaps are torn-read-free: a concurrent
    ``dist_stream`` is wholly served by the epoch it pinned at first
    pull, and retiring an epoch shuts its executor down (no leaked
    ``repro-shard`` threads)."""
    from repro.service.workers import THREAD_POOL_PREFIX

    g = updateable.graph.copy()
    pairs = sample_query_pairs(g.n, 400, seed=3)
    twin = UpdateableIndex(g, scheme="tz", seed=5, k=2, num_shards=4,
                           rebuild_threshold=1.0)
    refs, batches = _epoch_references(twin, pairs)
    ref_bytes = {r.tobytes() for r in refs}
    assert len(ref_bytes) == EPOCHS + 1

    engine = QueryEngine.from_updateable(updateable, cache_size=0,
                                         jobs=4, pool="thread")
    chunks = [pairs[lo:lo + 100] for lo in range(0, 400, 100)]
    results: list[bytes] = []
    stop = threading.Event()
    failures: list[Exception] = []

    def hammer():
        try:
            while not stop.is_set():
                out = np.concatenate(list(engine.dist_stream(chunks)))
                results.append(out.tobytes())
        except Exception as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    try:
        thread = threading.Thread(target=hammer)
        thread.start()
        for changes in batches:
            report = engine.apply_updates(changes)
            assert report.mode in ("repair", "rebuild")
        stop.set()
        thread.join()
        assert not failures, failures[0]
        assert results, "hammer thread never completed a stream"
        for got in results:
            assert got in ref_bytes  # one epoch wholesale, never torn
        assert engine.epoch == EPOCHS
        assert engine.dist_many(pairs).tobytes() == refs[-1].tobytes()
        assert not engine._retired  # old epochs (and executors) drained
    finally:
        stop.set()
        engine.close()
    leaked = [t.name for t in threading.enumerate()
              if t.name.startswith(THREAD_POOL_PREFIX)]
    assert leaked == []


def test_epoch_swap_invalidates_cache(updateable):
    engine = QueryEngine.from_updateable(updateable, cache_size=1024)
    try:
        pairs = sample_query_pairs(updateable.graph.n, 64, seed=1)
        before = engine.dist_many(pairs)
        assert engine.dist_many(pairs).tolist() == before.tolist()
        assert engine.stats.hits >= len(pairs)  # served from cache
        changes = sample_weight_changes(updateable.graph, 3, seed=901,
                                        low=0.1, high=0.4)
        engine.apply_updates(changes)
        after = engine.dist_many(pairs)
        want = updateable.index.estimate_many(pairs[:, 0], pairs[:, 1])
        assert after.tolist() == want.tolist()  # no stale cache hits
        assert before.tolist() != after.tolist()
    finally:
        engine.close()


def test_cached_batches_mid_update_see_exactly_one_epoch(updateable):
    """Four threads share one cached in-process session while three
    epochs swap in: no batch mixes a hit cached by one epoch with a miss
    computed by another, and what the cache holds after a swap belongs
    to the epoch then serving."""
    g = updateable.graph.copy()
    n = g.n
    every = np.stack(np.meshgrid(np.arange(n), np.arange(n),
                                 indexing="ij"), axis=-1).reshape(-1, 2)
    twin = UpdateableIndex(g, scheme="tz", seed=5, k=2, num_shards=4,
                           rebuild_threshold=1.0)
    refs, batches = _epoch_references(twin, every)  # refs[e][u * n + v]
    assert len({r.tobytes() for r in refs}) == EPOCHS + 1

    # 256 entries for 1600 possible pairs: hits, misses and evictions
    # all happen, and every thread hits what the others cached
    server = OracleServer(updateable, cache_size=256)
    engine, cache = server._engine, server._engine._cache
    client = server.client()
    stop = threading.Event()
    failures: list = []
    served = [0] * 4

    def hammer(tid: int) -> None:
        rng = np.random.default_rng(tid)
        try:
            while not stop.is_set():
                rows = rng.integers(0, len(every), size=64)
                got = client.dist_many(every[rows])
                assert any(got.tobytes() == ref[rows].tobytes()
                           for ref in refs), "torn batch"
                served[tid] += 1
        except Exception as exc:  # surfaced below
            failures.append(exc)
            stop.set()

    def resident_is_of_epoch() -> bool:
        with engine._lock:
            slots = np.flatnonzero(cache.keys >= 0)
            return bool((cache.vals[slots]
                         == refs[engine.epoch][cache.keys[slots]]).all())

    threads = [threading.Thread(target=hammer, args=(t,), daemon=True)
               for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more threads than cores, tight slices
    try:
        for t in threads:
            t.start()
        for changes in batches:
            # every thread gets 20 batches in on each epoch
            goal = [count + 20 for count in served]
            give_up = time.monotonic() + 30.0
            while not stop.is_set() and any(
                    count < want for count, want in zip(served, goal)):
                assert time.monotonic() < give_up, "readers stalled"
                stop.wait(0.001)
            assert resident_is_of_epoch()
            client.apply_updates(changes)
            assert resident_is_of_epoch()  # nothing of the old epoch
        stop.wait(0.05)
        stop.set()
        for t in threads:
            t.join(timeout=30.0)
        assert not failures, failures[0]
        assert all(not t.is_alive() for t in threads)
        assert engine.epoch == EPOCHS and resident_is_of_epoch()
        stats = client.stats()["cache"]
        assert stats["hits"] > 0 and stats["evictions"] > 0
        assert 0 < stats["entries"] <= 256
        assert not engine._retired
    finally:
        sys.setswitchinterval(interval)
        stop.set()
        server.close()


def test_noop_update_keeps_epoch_and_server(updateable):
    from repro.service.updates import EdgeChange

    engine = QueryEngine.from_updateable(updateable, cache_size=0)
    try:
        server = engine._server
        # a weight increase on a non-shortest-path edge dirties nobody
        u, v, w = max(updateable.graph.edges(), key=lambda e: e[2])
        report = engine.apply_updates([EdgeChange("increase", u, v,
                                                  w * 10)])
        if report.mode == "noop":  # depends on the drawn graph
            assert engine.epoch == 0 and engine._server is server
        else:
            assert engine.epoch == 1 and engine._server is not server
    finally:
        engine.close()


def test_apply_updates_requires_updateable_engine(updateable):
    from repro.service.updates import EdgeChange

    engine = QueryEngine.from_index(updateable.index, cache_size=0)
    try:
        with pytest.raises(ConfigError, match="from_updateable"):
            engine.apply_updates([EdgeChange("set", 0, 1, 1.0)])
    finally:
        engine.close()
