"""Epoch-stamped hot swap under load (``apply_updates`` on a session).

The contract: a batch issued mid-update completes against **exactly one
epoch** — it either sees the whole old index or the whole new one, never
a torn mix — for in-thread serving (``jobs=1``) and shard threads
(``jobs=4``).  The old epoch's server (and its thread pool) is released
once its last in-flight batch drains, so repeated updates cannot leak
threads — and nothing here ever starts a process.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graphs import assign_uniform_weights, erdos_renyi
from repro.service import (OracleServer, UpdateableIndex, connect,
                           sample_query_pairs, sample_weight_changes)
from repro.service.workers import THREAD_POOL_PREFIX

EPOCHS = 3


def _engine_of(session):
    """The engine behind an ``inproc://`` session (white-box asserts)."""
    return session._transport._server._engine


def _assert_nothing_left_running():
    assert [t.name for t in threading.enumerate()
            if t.name.startswith(THREAD_POOL_PREFIX)] == []
    assert multiprocessing.active_children() == []


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

    session = connect(f"inproc://jobs={jobs};cache=0", updateable)
    engine = _engine_of(session)
    results: list[bytes] = []
    stop = threading.Event()
    failures: list[Exception] = []

    def hammer():
        try:
            while not stop.is_set():
                results.append(
                    np.asarray(session.dist_many(pairs)).tobytes())
        except Exception as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    try:
        thread = threading.Thread(target=hammer)
        thread.start()
        servers = [engine._server]
        for changes in batches:
            report = session.apply_updates(changes)
            assert report.mode in ("repair", "rebuild")
            servers.append(engine._server)
        stop.set()
        thread.join()
        assert not failures, failures[0]
        # every mid-flight batch matched one epoch wholesale
        assert results, "hammer thread never completed a batch"
        for got in results:
            assert got in ref_bytes
        # after the last swap the session serves the final epoch
        assert session.epoch == EPOCHS
        assert session.dist_many(pairs).tobytes() == refs[-1].tobytes()
        # each epoch got a server of its own, over that epoch's store
        assert len({id(srv) for srv in servers}) == EPOCHS + 1
        assert servers[-1].index is updateable.index
        # retired epochs drained: their executors are shut down, and the
        # threads still alive fit the one live server
        assert not engine._retired
        assert all(srv._executor is None for srv in servers[:-1])
        alive = [t for t in threading.enumerate()
                 if t.name.startswith(THREAD_POOL_PREFIX)]
        assert len(alive) <= (jobs if jobs > 1 else 0)
    finally:
        stop.set()
        session.close()
    _assert_nothing_left_running()


def test_thread_plane_stream_mid_update_pins_each_batch_to_one_epoch(
        updateable):
    """``jobs=4`` epoch swaps are torn-read-free per batch: every chunk
    of a concurrent ``dist_stream`` is wholly one epoch's answer (the
    epoch current when that chunk was submitted — a stream is not
    pinned as a whole), and retiring an epoch shuts its executor down
    (no leaked ``repro-shard`` threads)."""
    g = updateable.graph.copy()
    pairs = sample_query_pairs(g.n, 400, seed=3)
    twin = UpdateableIndex(g, scheme="tz", seed=5, k=2, num_shards=4,
                           rebuild_threshold=1.0)
    refs, batches = _epoch_references(twin, pairs)
    bounds = [(lo, lo + 100) for lo in range(0, 400, 100)]
    # per chunk: the bytes each epoch answers it with, all distinct
    ref_slices = [{r[lo:hi].tobytes() for r in refs} for lo, hi in bounds]
    assert all(len(slices) == EPOCHS + 1 for slices in ref_slices)

    session = connect("inproc://jobs=4;cache=0", updateable)
    engine = _engine_of(session)
    chunks = [pairs[lo:hi] for lo, hi in bounds]
    streams = 0
    stop = threading.Event()
    failures: list[Exception] = []

    def hammer():
        nonlocal streams
        try:
            while not stop.is_set():
                for i, out in enumerate(session.dist_stream(chunks)):
                    # one epoch wholesale, never torn
                    assert out.tobytes() in ref_slices[i], "torn chunk"
                streams += 1
        except Exception as exc:  # surfaced below
            failures.append(exc)

    try:
        thread = threading.Thread(target=hammer)
        thread.start()
        for changes in batches:
            report = session.apply_updates(changes)
            assert report.mode in ("repair", "rebuild")
        stop.set()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert not failures, failures[0]
        assert streams, "hammer thread never completed a stream"
        assert session.epoch == EPOCHS
        assert session.dist_many(pairs).tobytes() == refs[-1].tobytes()
        assert not engine._retired  # old epochs (and executors) drained
    finally:
        stop.set()
        session.close()
    _assert_nothing_left_running()


def test_suspended_stream_does_not_keep_a_retired_executor_alive(updateable):
    """A stream left suspended with a batch in flight pins nothing: a
    hot swap retires the old epoch's server and joins its executor at
    once, and the in-flight batch is still collected — from its ticket
    — as the old epoch's answer."""
    g = updateable.graph.copy()
    pairs = sample_query_pairs(g.n, 300, seed=3)
    twin = UpdateableIndex(g, scheme="tz", seed=5, k=2, num_shards=4,
                           rebuild_threshold=1.0)
    refs, batches = _epoch_references(twin, pairs)
    chunks = [pairs[lo:lo + 100] for lo in range(0, 300, 100)]
    with connect("inproc://jobs=4;cache=0", updateable) as session:
        engine = _engine_of(session)
        old_server = engine._server
        stream = session.dist_stream(iter(chunks))
        assert next(stream).tobytes() == refs[0][:100].tobytes()
        # suspended: chunk 1 is submitted to epoch 0 and uncollected
        session.apply_updates(batches[0])
        assert not engine._retired and not engine._active
        assert old_server._executor is None
        # the new epoch's pool starts its threads at its first batch
        _assert_nothing_left_running()
        assert next(stream).tobytes() == refs[0][100:200].tobytes()
        assert session.last_result_epoch == 0 and session.epoch == 1
        assert next(stream).tobytes() == refs[1][200:].tobytes()
        assert session.last_result_epoch == 1
    _assert_nothing_left_running()


def test_epoch_swap_invalidates_cache(updateable):
    with connect("inproc://cache=1024", updateable) as session:
        pairs = sample_query_pairs(updateable.graph.n, 64, seed=1)
        before = session.dist_many(pairs)
        assert session.dist_many(pairs).tolist() == before.tolist()
        # served from cache
        assert session.stats()["cache"]["hits"] >= len(pairs)
        changes = sample_weight_changes(updateable.graph, 3, seed=901,
                                        low=0.1, high=0.4)
        session.apply_updates(changes)
        after = session.dist_many(pairs)
        want = updateable.index.estimate_many(pairs[:, 0], pairs[:, 1])
        assert after.tolist() == want.tolist()  # no stale cache hits
        assert before.tolist() != after.tolist()


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_phase_timings_accumulate_across_swaps(updateable, jobs):
    """``stats()["phases"]`` is cumulative over the session: a hot swap
    installs a new shard server, which keeps adding to the engine's one
    set of counters — no counter ever steps back, whichever epoch's
    server ran the batch — and ``reset_phase_timings`` still zeroes it."""
    pairs = sample_query_pairs(updateable.graph.n, 64, seed=3)
    with connect(f"inproc://jobs={jobs};cache=0", updateable) as session:
        seen = [session.stats()["phases"]]
        for i in range(EPOCHS):
            for _ in range(5):
                session.dist_many(pairs)
            seen.append(session.stats()["phases"])
            report = session.apply_updates(sample_weight_changes(
                updateable.graph, 3, seed=900 + i, low=0.1, high=0.4))
            assert report.mode != "noop"
            seen.append(session.stats()["phases"])
        session.dist_many(pairs)
        seen.append(session.stats()["phases"])
        assert session.epoch == EPOCHS
        for before, after in zip(seen, seen[1:]):
            assert all(after[name] >= before[name] for name in before)
        assert seen[-1]["batches"] == 5 * EPOCHS + 1
        assert seen[-1]["plan_seconds"] > seen[1]["plan_seconds"] > 0.0
        _engine_of(session).reset_phase_timings()
        assert set(session.stats()["phases"].values()) == {0}


def test_noop_update_keeps_epoch_and_server(updateable):
    from repro.service.updates import EdgeChange

    with connect("inproc://cache=0", updateable) as session:
        engine = _engine_of(session)
        server = engine._server
        # a weight increase on a non-shortest-path edge dirties nobody
        u, v, w = max(updateable.graph.edges(), key=lambda e: e[2])
        report = session.apply_updates([EdgeChange("increase", u, v,
                                                   w * 10)])
        if report.mode == "noop":  # depends on the drawn graph
            assert session.epoch == 0 and engine._server is server
        else:
            assert session.epoch == 1 and engine._server is not server


def test_apply_updates_requires_updateable_engine(updateable):
    from repro.service.updates import EdgeChange

    with connect("inproc://cache=0", updateable.index) as session:
        with pytest.raises(ConfigError, match="serve an UpdateableIndex"):
            session.apply_updates([EdgeChange("set", 0, 1, 1.0)])
