"""Epoch-stamped hot swap under load (``apply_updates`` on a session).

The contract: a batch issued mid-update completes against **exactly one
epoch** — it either sees the whole old index or the whole new one, never
a torn mix — for batches answered in the calling thread and bulk
batches cut into pair ranges on the engine's pool (the CPU count
substituted through the ``cpus`` fixture).  An epoch is a store: the
engine's one thread pool serves every epoch, so at no moment — mid-swap
included — are more than ``cpus`` of its threads alive, a batch
submitted before a swap is still answered with the old epoch's bytes,
and ``close()`` leaves none.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graphs import assign_uniform_weights, erdos_renyi
from repro.service import (OracleServer, UpdateableIndex, connect,
                           sample_query_pairs, sample_weight_changes)
from repro.service.engine import RANGE_PAIRS, THREAD_POOL_PREFIX

EPOCHS = 3

#: the smallest batch the engine cuts (into 2 ranges)
BULK = 2 * RANGE_PAIRS


def _engine_of(session):
    """The engine behind an ``inproc://`` session."""
    return session._transport._server._engine


def _pool_threads() -> int:
    return sum(t.name.startswith(THREAD_POOL_PREFIX)
               for t in threading.enumerate())


@contextmanager
def pool_thread_peak():
    """Sample the live pool thread count for as long as the
    block runs — every half millisecond, so mid-swap too — and yield a
    one-item list holding the most seen at any sample point."""
    peak, done = [0], threading.Event()

    def sample():
        while not done.is_set():
            peak[0] = max(peak[0], _pool_threads())
            done.wait(0.0005)

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        yield peak
    finally:
        done.set()
        sampler.join()
        peak[0] = max(peak[0], _pool_threads())


@pytest.fixture()
def updateable():
    g = assign_uniform_weights(erdos_renyi(40, seed=101), seed=17)
    return UpdateableIndex(g, scheme="tz", seed=5, k=2, num_shards=4)


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


@pytest.mark.parametrize("ncpu", [1, 4])
def test_batch_mid_update_sees_exactly_one_epoch(updateable, ncpu, cpus,
                                                 serving_leftovers):
    cpus(ncpu)
    g = updateable.graph.copy()
    pairs = sample_query_pairs(g.n, BULK, seed=3)
    # replay on a twin to learn each epoch's expected answers up front
    twin = UpdateableIndex(g, scheme="tz", seed=5, k=2, num_shards=4)
    refs, batches = _epoch_references(twin, pairs)
    ref_bytes = {r.tobytes() for r in refs}
    assert len(ref_bytes) == EPOCHS + 1  # every epoch answers differently

    session = connect("inproc://cache=0", updateable)
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
        with pool_thread_peak() as peak:
            thread.start()
            for changes in batches:
                before = len(results)
                while len(results) < before + 3 and not failures:
                    time.sleep(0.001)  # every epoch serves some batches
                report = session.apply_updates(changes)
                assert report.mode in ("repair", "rebuild")
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
        assert _engine_of(session).index is updateable.index
        # one pool served every epoch: never more than ``cpus`` of its
        # threads at any sample point, swaps included
        assert peak[0] <= (ncpu if ncpu > 1 else 0)
        assert (peak[0] > 0) == (ncpu > 1)
    finally:
        stop.set()
        session.close()
    assert serving_leftovers() == []


def test_thread_plane_stream_mid_update_pins_each_batch_to_one_epoch(
        updateable, cpus, serving_leftovers):
    """Epoch swaps under cut batches are torn-read-free per batch: every
    chunk of a concurrent ``dist_stream`` is wholly one epoch's answer
    (the epoch current when that chunk was submitted — a stream is not
    pinned as a whole), on never more than four pool threads, none of
    which outlives the session."""
    cpus(4)
    g = updateable.graph.copy()
    pairs = sample_query_pairs(g.n, 3 * BULK, seed=3)
    twin = UpdateableIndex(g, scheme="tz", seed=5, k=2, num_shards=4)
    refs, batches = _epoch_references(twin, pairs)
    bounds = [(lo, lo + BULK) for lo in range(0, 3 * BULK, BULK)]
    # per chunk: the bytes each epoch answers it with, all distinct
    ref_slices = [{r[lo:hi].tobytes() for r in refs} for lo, hi in bounds]
    assert all(len(slices) == EPOCHS + 1 for slices in ref_slices)

    session = connect("inproc://cache=0", updateable)
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
        with pool_thread_peak() as peak:
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
        assert 0 < peak[0] <= 4
    finally:
        stop.set()
        session.close()
    assert serving_leftovers() == []


def test_suspended_stream_does_not_keep_a_retired_executor_alive(
        updateable, cpus, serving_leftovers):
    """A stream left suspended with a batch in flight pins nothing — no
    second pool exists for it to keep alive — and does not hold the
    swap up; the in-flight batch is still collected — its ticket holds
    the old store — as the old epoch's answer."""
    cpus(4)
    g = updateable.graph.copy()
    pairs = sample_query_pairs(g.n, 3 * BULK, seed=3)
    twin = UpdateableIndex(g, scheme="tz", seed=5, k=2, num_shards=4)
    refs, batches = _epoch_references(twin, pairs)
    chunks = [pairs[lo:lo + BULK] for lo in range(0, 3 * BULK, BULK)]
    with connect("inproc://cache=0", updateable) as session:
        engine = _engine_of(session)
        old_store = engine.index
        stream = session.dist_stream(iter(chunks))
        assert next(stream).tobytes() == refs[0][:BULK].tobytes()
        # suspended: chunk 1 is submitted to epoch 0 and uncollected
        session.apply_updates(batches[0])
        assert engine.index is updateable.index is not old_store
        assert 0 < _pool_threads() <= 4  # the same pool, still up
        assert next(stream).tobytes() == refs[0][BULK:2 * BULK].tobytes()
        assert session.last_result_epoch == 0 and session.epoch == 1
        assert next(stream).tobytes() == refs[1][2 * BULK:].tobytes()
        assert session.last_result_epoch == 1
    assert serving_leftovers() == []


def test_epoch_swap_invalidates_cache(updateable):
    with connect("inproc://cache=1024", updateable) as session:
        engine = _engine_of(session)
        pairs = sample_query_pairs(updateable.graph.n, 64, seed=1)
        before = session.dist_many(pairs)
        keys = pairs[:, 0] * engine.n + pairs[:, 1]
        resident = np.count_nonzero(np.isin(keys, engine._cache.keys))
        assert session.dist_many(pairs).tolist() == before.tolist()
        # served from cache: every row whose key stayed resident
        assert resident > 0
        assert session.stats()["cache"]["hits"] == resident
        changes = sample_weight_changes(updateable.graph, 3, seed=901,
                                        low=0.1, high=0.4)
        session.apply_updates(changes)
        after = session.dist_many(pairs)
        want = updateable.index.estimate_many(pairs[:, 0], pairs[:, 1])
        assert after.tolist() == want.tolist()  # no stale cache hits
        assert before.tolist() != after.tolist()


def test_cached_batches_mid_update_see_exactly_one_epoch(updateable):
    """Four threads share one cached in-process session while three
    epochs swap in, batches of 64 pairs and lone pairs in turn: no
    batch mixes a hit cached by one epoch with a miss computed by
    another, and what the cache holds after a swap belongs to the epoch
    then serving."""
    g = updateable.graph.copy()
    n = g.n
    every = np.stack(np.meshgrid(np.arange(n), np.arange(n),
                                 indexing="ij"), axis=-1).reshape(-1, 2)
    twin = UpdateableIndex(g, scheme="tz", seed=5, k=2, num_shards=4)
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
                # every other request a lone pair: the scalar query
                # behind the cache's array probe
                rows = rng.integers(0, len(every),
                                    size=64 if served[tid] % 2 else 1)
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
    finally:
        sys.setswitchinterval(interval)
        stop.set()
        server.close()


@pytest.mark.parametrize("ncpu", [1, 2])
def test_phase_timings_accumulate_across_swaps(updateable, ncpu, cpus):
    """``stats()["phases"]`` is cumulative over the session: a hot swap
    installs a new store, and batches on it keep adding to the engine's
    one set of counters — no counter ever steps back, whichever epoch
    ran the batch — and ``reset_phase_timings`` still zeroes it."""
    cpus(ncpu)
    # in-thread batches on one CPU, cut ones on two
    pairs = sample_query_pairs(updateable.graph.n,
                               64 if ncpu == 1 else BULK, seed=3)
    with connect("inproc://cache=0", updateable) as session:
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
        assert {"plan_seconds", "shard_answer_seconds", "kernel_seconds",
                "finish_seconds", "ipc_seconds", "batches"} <= set(seen[-1])
        assert seen[-1]["plan_seconds"] > seen[1]["plan_seconds"] > 0.0
        _engine_of(session).reset_phase_timings()
        assert set(session.stats()["phases"].values()) == {0}


#: effective hot swaps the lock-free snapshot test makes
SWAPS = 20


@pytest.mark.parametrize("cache_size", [0, 64])
def test_lone_pairs_read_a_consistent_snapshot_without_a_lock(
        updateable, cache_size):
    """Two reader threads take ``index_snapshot()`` and ask lone pairs
    while the main thread hot-swaps the live index :data:`SWAPS` times.
    The engine reads ``(store, epoch)`` without its lock, so every pair
    a reader sees must be one the engine installed together, and every
    answer must be the store's that ``last_result_epoch`` names."""
    pairs = sample_query_pairs(updateable.graph.n, 64, seed=12).tolist()
    server = OracleServer(updateable, cache_size=cache_size)
    engine = server._engine
    installed = {0: updateable.index}  # epoch -> the store it serves
    stop = threading.Event()
    seen: list[list] = [[], []]
    failures: list[BaseException] = []

    def reader(slot: int) -> None:
        session, i = server.client(), slot
        try:
            while not stop.is_set():
                seen[slot].append(("snap", engine.index_snapshot()))
                u, v = pairs[i % len(pairs)]
                i += 7
                seen[slot].append(("dist", u, v, session.dist(u, v),
                                   session.last_result_epoch))
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)
        finally:
            session.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=reader, args=(slot,))
               for slot in range(2)]
    try:
        for t in threads:
            t.start()
        seed = 2000
        while len(installed) <= SWAPS and seed < 2000 + 10 * SWAPS:
            changes = sample_weight_changes(updateable.graph, 2, seed=seed,
                                            low=0.1, high=0.4)
            seed += 1
            report = server.apply_updates(changes)
            if report.mode != "noop":
                installed[report.epoch] = updateable.index
            time.sleep(0.002)  # let the readers see this epoch
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=60.0)
        sys.setswitchinterval(interval)
        server.close()
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures[0]
    assert len(installed) == SWAPS + 1
    snaps = epochs = 0
    for record in seen[0] + seen[1]:
        if record[0] == "snap":
            store, epoch = record[1]
            assert installed[epoch] is store, epoch
            snaps += 1
        else:
            _, u, v, answer, epoch = record
            assert answer == installed[epoch].estimate(u, v), (u, v, epoch)
            epochs |= 1 << epoch
    assert snaps and bin(epochs).count("1") > 1  # served across swaps


def test_noop_update_keeps_epoch_and_server(updateable):
    from repro.service.updates import EdgeChange

    with connect("inproc://cache=0", updateable) as session:
        engine = _engine_of(session)
        store = engine.index
        # a weight increase on a non-shortest-path edge dirties nobody
        u, v, w = max(updateable.graph.edges(), key=lambda e: e[2])
        report = session.apply_updates([EdgeChange("increase", u, v,
                                                   w * 10)])
        if report.mode == "noop":  # depends on the drawn graph
            assert session.epoch == 0 and engine.index is store
        else:
            assert session.epoch == 1 and engine.index is not store


def test_apply_updates_requires_updateable_engine(updateable):
    from repro.service.updates import EdgeChange

    with connect("inproc://cache=0", updateable.index) as session:
        with pytest.raises(ConfigError, match="serve an UpdateableIndex"):
            session.apply_updates([EdgeChange("set", 0, 1, 1.0)])
