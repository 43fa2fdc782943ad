"""The engine's execution plane: a bulk batch cut into pair ranges.

A batch of q pairs runs as ``min(cpus, q // RANGE_PAIRS)`` contiguous
pair ranges on the engine's thread pool, and in the calling thread
below 2.  The acceptance bar: for every scheme and every shard count, a
:class:`~repro.service.engine.QueryEngine`'s answers are bit-identical
whether a batch runs in the calling thread or is cut into 2, 4 or 7
ranges — the CPU count substituted through the engine's one seam (the
``cpus`` fixture), so every runner takes each cut — and all equal the
plain ``estimate_many`` path, ``QueryError`` parity included.  The
pool exists only once a batch was cut; after ``close()`` nothing the
engine started is alive.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro import build_sketches
from repro.errors import ConfigError, QueryError
from repro.graphs import Graph
from repro.service import (OracleServer, QueryEngine, build_index, connect,
                           sample_query_pairs)
from repro.service.engine import RANGE_PAIRS, THREAD_POOL_PREFIX
from repro.tz import build_tz_sketches_centralized


@pytest.fixture(scope="module")
def built_sets(er_weighted, er_unit):
    tz, _ = build_tz_sketches_centralized(er_weighted, k=3, seed=11)
    return {
        "tz": tz,
        "stretch3": build_sketches(er_unit, scheme="stretch3", eps=0.3,
                                   seed=2).sketches,
        "cdg": build_sketches(er_unit, scheme="cdg", eps=0.3, k=2,
                              seed=3).sketches,
        "graceful": build_sketches(er_unit, scheme="graceful",
                                   seed=4).sketches,
    }


SCHEMES = ["tz", "stretch3", "cdg", "graceful"]

#: the smallest batch the engine cuts (into 2 ranges)
BULK = 2 * RANGE_PAIRS

#: components {0, 1} and {2, 3, 4}: cross-component pairs are unresolved
TWO_COMPONENTS = Graph(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0),
                           (2, 4, 2.0)])


@pytest.fixture(scope="module")
def disconnected_sets():
    """One sketch set per scheme over :data:`TWO_COMPONENTS` (nets pinned
    to one node per component, so cross-component pairs are unresolved
    for every scheme)."""
    from repro.slack.cdg import build_cdg_centralized
    from repro.slack.density_net import DensityNet
    from repro.slack.graceful import GracefulSketch
    from repro.slack.stretch3 import build_stretch3_centralized

    g = TWO_COMPONENTS
    net = DensityNet(eps=0.5, n=g.n, members=(0, 2))
    tz, _ = build_tz_sketches_centralized(g, k=2, seed=1)
    s3, _ = build_stretch3_centralized(g, 0.5, net=net)
    cdg, _, _ = build_cdg_centralized(g, 0.5, 2, seed=3, net=net)
    a, _, _ = build_cdg_centralized(g, 0.5, 1, seed=1, net=net)
    b, _, _ = build_cdg_centralized(g, 0.25, 2, seed=2, net=net)
    graceful = [GracefulSketch(node=u, components=(a[u], b[u]))
                for u in range(g.n)]
    return {"tz": tz, "stretch3": s3, "cdg": cdg, "graceful": graceful}


def _outcome(fn):
    """A pair's answer, or its QueryError text — what parity compares."""
    try:
        return float(fn())
    except QueryError as exc:
        return f"QueryError: {exc}"


def _single(sketches, u, v):
    """The scheme's own one-pair query — the reference every path equals."""
    return sketches[int(u)].estimate_to(sketches[int(v)])


def _cut_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith(THREAD_POOL_PREFIX)]


def _engine(index) -> QueryEngine:
    """A cache-less engine: every batch reaches the store."""
    return QueryEngine(index, cache_size=0)


def _pairs(us, vs) -> np.ndarray:
    return np.stack([us, vs], axis=1)


class TestShardServerIdentity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_jobs_1_equals_jobs_4_equals_inline(self, built_sets, scheme,
                                                cpus):
        """Local ``estimate_many`` == the single-pair query for S in
        {1, 4, 16}, an engine returns those floats, and a bulk batch cut
        into two ranges returns the in-thread bytes."""
        sketches = built_sets[scheme]
        pairs = sample_query_pairs(len(sketches), 300, seed=7)
        us, vs = pairs[:, 0], pairs[:, 1]
        single = [_single(sketches, u, v) for u, v in pairs]
        for shards in (1, 4, 16):
            index = build_index(sketches, num_shards=shards)
            want = index.estimate_many(us, vs)
            assert want.tolist() == single, shards  # exact, not approx
            with _engine(index) as engine:
                got = engine.dist_many(pairs)
                again = engine.dist_many(pairs)
            assert got.tolist() == single, shards
            assert again.tolist() == single, shards
        cpus(2)
        bulk = sample_query_pairs(len(sketches), BULK, seed=8)
        index = build_index(sketches, num_shards=1)
        want = index.estimate_many(bulk[:, 0], bulk[:, 1])
        with _engine(index) as engine:
            got = engine.dist_many(bulk)
            again = engine.dist_many(bulk)  # the pool is reusable
        assert got.tobytes() == want.tobytes()
        assert again.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_engine_jobs_matches_reference(self, built_sets, scheme, cpus):
        """Through a session: a cut bulk batch answers every row with
        the single-pair query's float."""
        cpus(3)
        sketches = built_sets[scheme]
        pairs = sample_query_pairs(len(sketches), 100, seed=9)
        single = [_single(sketches, u, v) for u, v in pairs]
        with connect("inproc://cache=0", sketches) as session:
            # the 100 pairs repeated: a bulk batch of known answers
            got = session.dist_many(np.resize(pairs, (BULK + 37, 2)))
            assert 1 <= len(_cut_threads()) <= 2
        assert got.tolist() == np.resize(single, BULK + 37).tolist()

    def test_dist_many_front_end(self, built_sets):
        index = build_index(built_sets["tz"], num_shards=2)
        with _engine(index) as engine:
            got = engine.dist_many([(0, 5), (5, 0), (3, 3)])
            assert got.tolist() == [index.estimate(0, 5),
                                    index.estimate(5, 0), 0.0]
            assert engine.dist_many(
                np.empty((0, 2), dtype=np.int64)).size == 0
            with pytest.raises(ConfigError):
                engine.dist_many(np.arange(6))


class TestThreadPlane:
    """A cut batch: a GIL-releasing ThreadPoolExecutor sharing the
    caller's address space — nothing copied, pickled or attached — with
    byte-identical answers."""

    # ``memory`` names where the served store's bytes live (heap-built
    # here; test_service_backings serves mmap-loaded ones)
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("memory", ["heap"])
    def test_thread_jobs_match_inline(self, built_sets, scheme, memory,
                                      cpus):
        cpus(2)
        sketches = built_sets[scheme]
        index = build_index(sketches, num_shards=4)
        pairs = sample_query_pairs(len(sketches), BULK, seed=17)
        want = index.estimate_many(pairs[:, 0], pairs[:, 1])
        with _engine(index) as engine:
            assert engine.index is index  # served as given
            got = engine.dist_many(pairs)
            assert _cut_threads()
        assert got.tobytes() == want.tobytes()  # exact, not approx

    def test_thread_plane_has_no_pool_and_no_rings(self, built_sets, cpus):
        """Cutting a batch starts no process and creates no
        shared-memory segment — only named threads, one per range."""
        import os

        cpus(4)
        shm = "/dev/shm"
        before = set(os.listdir(shm)) if os.path.isdir(shm) else set()
        index = build_index(built_sets["tz"], num_shards=4)
        with _engine(index) as engine:
            engine.dist_many(sample_query_pairs(index.n, BULK, seed=1))
            assert multiprocessing.active_children() == []
            assert 1 <= len(_cut_threads()) <= 2
            after = set(os.listdir(shm)) if os.path.isdir(shm) else set()
            assert after == before

    def test_close_shuts_the_executor_down(self, built_sets, cpus,
                                           serving_leftovers):
        """The pool's threads appear with the first cut batch, and none
        survives ``close()``."""
        cpus(2)
        index = build_index(built_sets["tz"], num_shards=2)
        engine = _engine(index)
        engine.dist_many(sample_query_pairs(index.n, 300, seed=2))
        assert _cut_threads() == []  # no bulk batch yet: no pool
        bulk = sample_query_pairs(index.n, BULK, seed=3)
        want = engine.dist_many(bulk)
        assert _cut_threads()
        engine.close()
        engine.close()  # idempotent
        assert serving_leftovers() == []
        # a closed engine still answers, in the calling thread
        assert engine.dist_many(bulk).tobytes() == want.tobytes()
        assert serving_leftovers() == []

    def test_the_cut_starts_at_two_ranges(self, built_sets, cpus):
        """``2·RANGE_PAIRS − 1`` pairs run in the calling thread and
        leave no pool behind; ``2·RANGE_PAIRS`` run as exactly two
        ranges, on pool threads."""
        cpus(7)
        caller = threading.current_thread().name
        index = build_index(built_sets["tz"], num_shards=2)
        pairs = sample_query_pairs(index.n, BULK, seed=4)
        want = index.estimate_many(pairs[:, 0], pairs[:, 1])
        seen = []
        kernel = index._probe

        def counting(keys):
            seen.append(threading.current_thread().name)
            return kernel(keys)

        index._probe = counting  # instance attribute shadows it
        with _engine(index) as engine:
            got = engine.dist_many(pairs[:-1])
            assert seen == [caller] and _cut_threads() == []
            assert got.tobytes() == want[:-1].tobytes()
            del seen[:]
            got = engine.dist_many(pairs)
            assert len(seen) == 2
            assert all(name.startswith(THREAD_POOL_PREFIX) for name in seen)
        assert got.tobytes() == want.tobytes()

    def test_one_cpu_never_cuts(self, built_sets, cpus):
        """With one CPU to run on even a 2²⁰-pair batch is answered in
        the calling thread, and no pool is made."""
        cpus(1)
        caller = threading.current_thread().name
        index = build_index(built_sets["tz"])
        pairs = sample_query_pairs(index.n, 1 << 20, seed=5)
        seen = []
        kernel = index._probe

        def counting(keys):
            seen.append(threading.current_thread().name)
            return kernel(keys)

        index._probe = counting
        with _engine(index) as engine:
            got = engine.dist_many(pairs)
            assert seen == [caller] and _cut_threads() == []
            assert engine._pool is None
        head = pairs[:1000]
        assert got[:1000].tobytes() == \
            build_index(built_sets["tz"]).estimate_many(
                head[:, 0], head[:, 1]).tobytes()

    def test_kernel_timing_accumulates(self, built_sets, cpus):
        cpus(2)
        index = build_index(built_sets["stretch3"], num_shards=4)
        pairs = sample_query_pairs(index.n, BULK, seed=23)
        with _engine(index) as engine:
            engine.dist_many(pairs)
            phases = engine.phase_timings()
            assert phases["kernel_seconds"] > 0.0
            # the critical path is never longer than the ranges' total
            assert phases["kernel_seconds"] <= \
                phases["shard_answer_seconds"] + 1e-12
            assert set(phases) == {
                "plan_seconds", "shard_answer_seconds", "finish_seconds",
                "ipc_seconds", "overlap_seconds", "kernel_seconds",
                "batches"}

    def test_ipc_is_not_the_callers_idle_time(self, built_sets, cpus):
        """``ipc_seconds`` is dispatch overhead — submit until the last
        range *ended* — so a consumer that thinks between ``next()``
        calls (while the window's next batch is already submitted) adds
        nothing to it."""
        cpus(2)
        index = build_index(built_sets["tz"], num_shards=2)
        pairs = sample_query_pairs(index.n, 4 * BULK, seed=37)
        chunks = [pairs[lo:lo + BULK] for lo in range(0, 4 * BULK, BULK)]
        with _engine(index) as engine:
            list(engine.dist_stream(chunks))  # the pool's threads exist
            before = engine.phase_timings()
            for _ in engine.dist_stream(chunks):
                time.sleep(0.2)
            after = engine.phase_timings()
        assert after["batches"] - before["batches"] == 4
        assert after["ipc_seconds"] - before["ipc_seconds"] < 0.1

    def test_stream_overlaps_on_the_thread_plane(self, built_sets, cpus):
        cpus(2)
        index = build_index(built_sets["cdg"], num_shards=4)
        pairs = sample_query_pairs(index.n, 3 * BULK, seed=29)
        batches = [pairs[lo:lo + BULK] for lo in range(0, 3 * BULK, BULK)]
        with _engine(index) as engine:
            want = [engine.dist_many(batch).tobytes() for batch in batches]
            engine.reset_phase_timings()
            got = [out.tobytes() for out in engine.dist_stream(batches)]
            assert engine.phase_timings()["overlap_seconds"] > 0.0
        assert got == want

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("ncpu", [1, 2, 4, 7])
    def test_query_error_parity_for_every_jobs(self, disconnected_sets,
                                               scheme, ncpu, cpus):
        """A disconnected graph: every ordered pair answers the
        single-pair query's float — or raises exactly where it raises,
        with the inline path's message; a mixed batch raises on the
        inline path's first offending row, and a bulk batch whose one
        bad pair sits in the last of ``ncpu`` ranges raises the inline
        error with its row counted in the whole batch.  The engine
        keeps answering afterwards."""
        cpus(ncpu)
        sketches = disconnected_sets[scheme]
        n = len(sketches)
        index = build_index(sketches, num_shards=4)
        pairs = [(u, v) for u in range(n) for v in range(n)]
        single = [_outcome(lambda: _single(sketches, u, v))
                  for u, v in pairs]
        want = [_outcome(lambda: index.estimate(u, v)) for u, v in pairs]
        assert any(isinstance(w, str) for w in want)  # some pairs raise
        assert any(isinstance(w, float) for w in want)  # and some answer
        assert [w if isinstance(w, float) else "raise" for w in want] == \
            [w if isinstance(w, float) else "raise" for w in single]
        us, vs = np.array([2, 0, 3]), np.array([4, 2, 0])
        with pytest.raises(QueryError) as inline:
            index.estimate_many(us, vs)
        assert inline.value.row == 1
        q = max(2, ncpu) * RANGE_PAIRS
        bulk = np.resize([(2, 4), (4, 3), (1, 0)], (q, 2))
        bulk[q - 2] = (0, 2)  # the last range's only unresolved pair
        with pytest.raises(QueryError) as bulk_inline:
            index.estimate_many(bulk[:, 0], bulk[:, 1])
        assert bulk_inline.value.row == q - 2
        with _engine(index) as engine:
            got = [_outcome(lambda: engine.dist(u, v)) for u, v in pairs]
            assert got == want
            with pytest.raises(QueryError) as err:
                engine.dist_many(_pairs(us, vs))
            assert str(err.value) == str(inline.value)
            assert err.value.row == inline.value.row
            with pytest.raises(QueryError) as err:
                engine.dist_many(bulk)
            assert type(err.value) is type(bulk_inline.value)
            assert str(err.value) == str(bulk_inline.value)
            assert err.value.row == q - 2
            # an idle pool thread may take a second range: at most ncpu
            assert (0 < len(_cut_threads()) <= ncpu) == (ncpu > 1)
            assert engine.dist_many(_pairs(us[:1], vs[:1])).tolist() == \
                index.estimate_many(us[:1], vs[:1]).tolist()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_query_many_equals_looped_query(self, disconnected_sets, scheme):
        """``BuiltSketches.query_many`` is the looped ``query``: the same
        floats, a ``QueryError`` exactly where the loop raises, and a
        mixed batch raises as a whole."""
        from repro.oracle.api import BuiltSketches
        from repro.oracle.schemes import get_scheme

        built = BuiltSketches(TWO_COMPONENTS, get_scheme(scheme),
                              "centralized", {}, disconnected_sets[scheme])
        n = TWO_COMPONENTS.n
        pairs = [(u, v) for u in range(n) for v in range(n)]
        looped = [_outcome(lambda: built.query(u, v)) for u, v in pairs]
        batched = [_outcome(lambda: built.query_many([(u, v)])[0])
                   for u, v in pairs]
        assert any(isinstance(w, str) for w in looped)
        assert [w if isinstance(w, float) else "raise" for w in batched] \
            == [w if isinstance(w, float) else "raise" for w in looped]
        with pytest.raises(QueryError):
            built.query_many(pairs)
        fine = [p for p, w in zip(pairs, looped) if isinstance(w, float)]
        assert built.query_many(fine).tolist() == \
            [w for w in looped if isinstance(w, float)]
        assert built.query_many([]).size == 0

    def test_jobs_says_which_thread_probes(self, built_sets, cpus):
        """One kernel pass per pair range, whatever the shard count: a
        batch below the cut probes once, in the calling thread; a bulk
        batch once per range — ``min(cpus, q // RANGE_PAIRS)`` of them
        — on the pool's named threads, never the caller's."""
        caller = threading.current_thread().name
        pairs = sample_query_pairs(len(built_sets["tz"]), 7 * RANGE_PAIRS,
                                   seed=31)
        us, vs = pairs[:, 0], pairs[:, 1]
        for shards in (1, 16):
            index = build_index(built_sets["tz"], num_shards=shards)
            want = index.estimate_many(us, vs)
            seen = []
            kernel = index._probe

            def counting(keys):
                seen.append(threading.current_thread().name)
                return kernel(keys)

            index._probe = counting  # instance attribute shadows it
            for ncpu, sizes in ((1, (BULK, 300)), (2, (BULK, 300)),
                                (7, (len(pairs), BULK))):
                cpus(ncpu)
                with _engine(index) as engine:
                    assert engine.cpus == ncpu  # no clamp to the shards
                    for q in sizes:
                        del seen[:]
                        got = engine.dist_many(pairs[:q])
                        assert got.tobytes() == want[:q].tobytes(), \
                            (shards, ncpu, q)
                        ranges = min(ncpu, q // RANGE_PAIRS)
                        if ranges < 2:
                            assert seen == [caller], (shards, ncpu, q)
                        else:
                            assert len(seen) == ranges, (shards, ncpu, q)
                            assert all(name.startswith(THREAD_POOL_PREFIX)
                                       for name in seen)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_lone_pair_is_answered_in_the_caller(self, built_sets, scheme,
                                                   cpus):
        """A batch of one is the store's scalar single-pair query, run in
        the calling thread whatever the CPU count (a dispatch would cost
        more than the answer) and booked as one batch of answer time."""
        caller = threading.current_thread().name
        index = build_index(built_sets[scheme], num_shards=4)
        pairs = sample_query_pairs(index.n, 20, seed=5)
        want = index.estimate_many(pairs[:, 0], pairs[:, 1])
        seen = []
        scalar = index._estimate_checked

        def counting(u, v):
            seen.append(threading.current_thread().name)
            return scalar(u, v)

        index._estimate_checked = counting  # instance attribute shadows it
        for ncpu in (1, 4):
            cpus(ncpu)
            with _engine(index) as engine:
                del seen[:]
                got = [engine.dist_many(pairs[i:i + 1])[0]
                       for i in range(len(pairs))]
                assert np.array(got).tobytes() == want.tobytes()
                assert seen == [caller] * len(pairs)
                phases = engine.phase_timings()
                assert phases["batches"] == len(pairs)
                assert phases["plan_seconds"] == phases["finish_seconds"] \
                    == phases["ipc_seconds"] == 0.0
                assert phases["kernel_seconds"] \
                    == phases["shard_answer_seconds"] > 0.0
                # a longer batch never takes the scalar path
                engine.dist_many(pairs[:2])
                assert len(seen) == len(pairs)

    def test_query_error_propagates_through_threads(self, cpus):
        cpus(2)
        sketches, _ = build_tz_sketches_centralized(TWO_COMPONENTS, k=2,
                                                    seed=1)
        good = np.resize([(2, 4)], (BULK, 2))
        bad = good.copy()
        bad[-1] = (0, 2)
        with connect("inproc://cache=0", sketches) as session:
            assert session.dist_many(good).size == BULK
            assert _cut_threads()
            with pytest.raises(QueryError):
                session.dist_many(bad)
            with pytest.raises(QueryError):
                list(session.dist_stream([good, bad]))
            assert session.dist_many(good).size == BULK  # still serving


class TestShardServerLifecycle:
    def test_jobs_do_not_depend_on_the_shard_count(self, built_sets, cpus,
                                                   serving_leftovers):
        """A shard is placement, not a unit of local work: a one-shard
        store still cuts a bulk batch into one range per CPU."""
        cpus(3)
        for shards in (1, 2):
            index = build_index(built_sets["tz"], num_shards=shards)
            with _engine(index) as engine:
                assert engine.cpus == 3
                engine.dist_many(
                    sample_query_pairs(index.n, 3 * RANGE_PAIRS, seed=6))
                assert 1 < len(_cut_threads()) <= 3
            assert serving_leftovers() == []

    def test_racing_first_cuts_make_one_pool(self, built_sets, cpus,
                                             monkeypatch, serving_leftovers):
        """The pool is created by whichever bulk batch gets there first:
        eight threads cutting their first batch at once, with a short
        switch interval, make exactly one pool, and ``close()`` joins
        every thread it started."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        made = []

        class Counting(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                time.sleep(0.01)  # widen the check-then-create window
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("repro.service.engine.ThreadPoolExecutor",
                            Counting)
        cpus(7)
        index = build_index(built_sets["tz"])
        pairs = sample_query_pairs(index.n, BULK, seed=8)
        want = index.estimate_many(pairs[:, 0], pairs[:, 1]).tobytes()
        engine = _engine(index)
        start = threading.Barrier(8)
        got = []

        def first_cut():
            start.wait(timeout=30)
            got.append(engine.dist_many(pairs).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=first_cut) for _ in range(8)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == [want] * 8
        assert len(made) == 1
        engine.close()
        assert serving_leftovers() == []

    def test_close_is_idempotent(self, built_sets):
        engine = _engine(build_index(built_sets["tz"], num_shards=2))
        engine.close()
        engine.close()

    def test_rejects_bad_jobs(self, built_sets, serving_leftovers):
        """``jobs`` is no knob any more: the engine and the server refuse
        it as an unknown keyword, ``inproc://`` as an unknown option
        (naming the one it takes)."""
        index = build_index(built_sets["tz"])
        with pytest.raises(TypeError):
            QueryEngine(index, jobs=2)
        with pytest.raises(TypeError):
            OracleServer(index, jobs=2)
        with pytest.raises(ConfigError, match="allowed: cache"):
            connect("inproc://jobs=2", built_sets["tz"])
        assert serving_leftovers() == []

    def test_source_is_validated_before_any_shard_server(self, built_sets,
                                                         monkeypatch):
        # everything that can be wrong with a source is found while it is
        # normalised to a store — before an engine (and its pool) exists
        from repro.graphs import random_geometric
        from repro.service import UpdateableIndex

        prebuilt = build_index(built_sets["tz"], num_shards=2)
        live = UpdateableIndex(random_geometric(24, seed=3), "tz", seed=1,
                               num_shards=2, k=2)
        mixed = built_sets["tz"][:3] + built_sets["stretch3"][3:6]

        def unreachable(*args, **kwargs):
            raise AssertionError("an engine's thread pool was constructed")

        monkeypatch.setattr("repro.service.engine.ThreadPoolExecutor",
                            unreachable)
        for source in (prebuilt, live):
            with pytest.raises(ConfigError, match="bakes its shard layout"):
                OracleServer(source, num_shards=4)
        # no store serves a mixed set
        with pytest.raises(ConfigError, match="no batched index"):
            connect("inproc://", mixed)

    def test_engine_close_is_idempotent(self, built_sets, cpus,
                                        serving_leftovers):
        cpus(2)
        session = connect("inproc://", built_sets["tz"])
        session.dist_many(sample_query_pairs(session.n, BULK, seed=7))
        assert _cut_threads()
        session.close()
        session.close()
        assert serving_leftovers() == []


class TestEstimateStream:
    """The double-buffered pipelined path: batch k+1's submit overlaps
    batch k's pair ranges — and never changes a single byte."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("memory", ["heap"])
    def test_stream_equals_per_batch_estimates(self, built_sets, scheme,
                                               memory, cpus):
        cpus(2)
        sketches = built_sets[scheme]
        index = build_index(sketches, num_shards=4)
        pairs = sample_query_pairs(len(sketches), 450, seed=13)
        chunks = [pairs[lo:lo + 150] for lo in range(0, 450, 150)]
        # bulk, small, bulk: the small one is submitted while the first
        # one's ranges run
        sizes = (BULK, 150, BULK)
        batches = [np.resize(c, (q, 2)) for c, q in zip(chunks, sizes)]
        with _engine(index) as engine:
            want = [np.resize(index.estimate_many(c[:, 0], c[:, 1]),
                              q).tobytes()
                    for c, q in zip(chunks, sizes)]
            got = [out.tobytes() for out in engine.dist_stream(batches)]
            phases = engine.phase_timings()
        assert got == want  # exact floats, exact batch order
        assert phases["batches"] == len(batches)
        # batches 2..k submitted while a predecessor was in flight
        assert phases["overlap_seconds"] > 0.0

    def test_stream_handles_empty_batches_in_order(self, built_sets):
        index = build_index(built_sets["tz"], num_shards=2)
        batches = [[(0, 5), (5, 0)], np.empty((0, 2), dtype=np.int64),
                   [(3, 4)]]
        with _engine(index) as engine:
            sizes = [out.size for out in engine.dist_stream(batches)]
        assert sizes == [2, 0, 1]

    def test_stream_in_process_has_no_overlap(self, built_sets):
        index = build_index(built_sets["tz"], num_shards=2)
        pairs = sample_query_pairs(index.n, 100, seed=3)
        batches = [pairs[:50], pairs[50:]]
        with _engine(index) as engine:
            want = np.concatenate([engine.dist_many(b) for b in batches])
            engine.reset_phase_timings()
            got = np.concatenate(list(engine.dist_stream(batches)))
            phases = engine.phase_timings()
            assert phases["overlap_seconds"] == 0.0
            assert phases["ipc_seconds"] == 0.0
        assert got.tolist() == want.tolist()

    def test_stream_abandoned_midway_drains_cleanly(self, built_sets, cpus,
                                                    monkeypatch):
        # a consumer that breaks out of the stream leaves one submitted
        # batch in flight; the generator's cleanup must collect exactly
        # that batch (not re-collect the yielded one), so no future is
        # left pending and the engine keeps answering
        cpus(2)
        index = build_index(built_sets["tz"], num_shards=2)
        pairs = sample_query_pairs(index.n, 3 * BULK, seed=9)
        batches = [pairs[i * BULK:(i + 1) * BULK] for i in range(3)]
        with _engine(index) as engine:
            want = [engine.dist_many(b).tobytes() for b in batches]
            futures = []
            submit = engine._pool.submit

            def recording_submit(*args):
                futures.append(submit(*args))
                return futures[-1]

            monkeypatch.setattr(engine._pool, "submit", recording_submit)
            stream = engine.dist_stream(batches)
            first = next(stream)
            stream.close()  # abandon with batch 1 submitted, uncollected
            assert len(futures) == 4  # two batches x two pair ranges
            assert all(f.done() for f in futures)
            assert first.tobytes() == want[0]
            # the engine still serves, sequentially and streamed
            assert engine.dist_many(batches[2]).tobytes() == want[2]
            again = [out.tobytes() for out in engine.dist_stream(batches)]
            assert again == want

    def test_engine_dist_stream_matches_dist_many(self, built_sets, cpus,
                                                  serving_leftovers):
        cpus(3)
        pairs = sample_query_pairs(len(built_sets["cdg"]), 3 * BULK,
                                   seed=21)
        chunks = [pairs[lo:lo + BULK] for lo in range(0, 3 * BULK, BULK)]
        with connect("inproc://cache=0", built_sets["cdg"]) as session:
            want = np.concatenate([session.dist_many(c) for c in chunks])
            got = np.concatenate(list(session.dist_stream(chunks)))
            # abandoning a session stream drains it too, so close() has
            # nothing left to wait for
            stream = session.dist_stream(chunks)
            next(stream)
            stream.close()
            phases = session.stats()["phases"]
        assert got.tobytes() == want.tobytes()
        assert phases["overlap_seconds"] > 0.0
        assert serving_leftovers() == []


class TestShardServerErrors:
    def test_query_error_propagates_through_workers(self, cpus):
        cpus(2)
        sketches, _ = build_tz_sketches_centralized(TWO_COMPONENTS, k=2,
                                                    seed=1)
        index = build_index(sketches, num_shards=2)
        good = np.resize([(2, 4)], (BULK, 2))
        bad = good.copy()
        bad[0] = (0, 2)
        with _engine(index) as engine:
            # same-component pairs answer fine...
            assert engine.dist_many(good).size == BULK
            # ...a cross-component pair raises exactly like the inline
            # path, from the first range
            with pytest.raises(QueryError) as err:
                engine.dist_many(bad)
            assert err.value.row == 0


class TestEffectiveJobsReporting:
    def test_engine_and_report_show_the_jobs_asked_for(self, built_sets):
        """How a batch is cut is the engine's own decision: a session's
        stats carry no ``jobs`` / ``pool`` / ``memory`` key, and name
        the store's shard count."""
        with connect("inproc://", built_sets["tz"]) as session:
            stats = session.stats()
            assert "jobs" not in stats and stats["shards"] == 1
        with connect("inproc://",
                     build_index(built_sets["tz"], num_shards=4)) as session:
            stats = session.stats()
        assert stats["shards"] == 4
        assert {"jobs", "pool", "memory"}.isdisjoint(stats)
