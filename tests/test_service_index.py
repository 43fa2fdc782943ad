"""Unit tests for the serving layer (repro.service): index and engine."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import build_sketches
from repro.errors import ConfigError, QueryError
from repro.graphs import ring
from repro.service import (OracleServer, QueryEngine, TZIndex, build_index,
                           connect, sample_query_pairs)
from repro.tz import build_tz_sketches_centralized, estimate_distance
from repro.tz.sketch import TZSketch


@pytest.fixture(scope="module")
def tz_sketches(er_weighted):
    sketches, _ = build_tz_sketches_centralized(er_weighted, k=3, seed=11)
    return sketches


@pytest.fixture(scope="module")
def indexed(tz_sketches):
    return TZIndex(tz_sketches)


class TestTZIndex:
    def test_nnz_counts_all_bunch_entries(self, tz_sketches, indexed):
        assert indexed.nnz() == sum(len(s.bunch) for s in tz_sketches)

    def test_shard_sizes_partition_subtop_entries(self, tz_sketches):
        idx = TZIndex(tz_sketches, num_shards=4)
        top = int(np.isfinite(idx.top_dist).sum())
        assert sum(idx.shard_sizes()) + top == idx.nnz()

    def test_estimate_matches_reference(self, tz_sketches, indexed):
        for u, v in [(0, 1), (3, 30), (17, 17), (35, 2)]:
            assert indexed.estimate(u, v) == estimate_distance(
                tz_sketches[u], tz_sketches[v])

    def test_iter_entries_is_sorted_and_complete(self, tz_sketches):
        idx = TZIndex(tz_sketches, num_shards=3)
        entries = list(idx.iter_entries())
        keys = [u * idx.n + w for u, w, _, _ in entries]
        assert keys == sorted(keys)
        assert len(entries) == idx.nnz()
        # the canonical view does not know the shard count
        assert all(map(np.array_equal, idx.entry_columns(),
                       TZIndex(tz_sketches).entry_columns()))
        assert entries == [
            (s.node, w, d, lvl) for s in tz_sketches
            for w, (d, lvl) in sorted(s.bunch.items())]

    def test_rejects_empty_and_mixed_k(self, tz_sketches):
        with pytest.raises(ConfigError):
            TZIndex([])
        other, _ = build_tz_sketches_centralized(ring(36), k=2, seed=1)
        with pytest.raises(ConfigError):
            TZIndex([tz_sketches[0], other[1]])
        with pytest.raises(ConfigError):
            TZIndex(tz_sketches, num_shards=0)

    def test_rejects_out_of_range_nodes(self, indexed):
        with pytest.raises(QueryError):
            indexed.estimate_many(np.array([0]), np.array([indexed.n]))
        with pytest.raises(QueryError):
            indexed.estimate_many(np.array([-1]), np.array([0]))
        # the scalar single-pair query checks its ids the same way
        for u, v in ((0, indexed.n), (-1, 0), (indexed.n, indexed.n)):
            with pytest.raises(QueryError, match=r"out of range \[0, "):
                indexed.estimate(u, v)

    def test_empty_batch(self, indexed):
        out = indexed.estimate_many(np.empty(0, dtype=np.int64),
                                    np.empty(0, dtype=np.int64))
        assert out.size == 0

    def test_mixed_level_landmarks_fall_back_to_sharded(self):
        # hand-crafted pathological set: landmark 1 appears at level 1 in
        # one bunch and level 0 in another — the dense top split would be
        # unsound, so the index must store everything sharded and still
        # answer exactly like the reference scan
        sketches = [
            TZSketch(node=0, k=2, pivots=((0, 0.0), (1, 2.0)),
                     bunch={1: (2.0, 1)}),
            TZSketch(node=1, k=2, pivots=((1, 0.0), (1, 0.0)),
                     bunch={1: (0.0, 1), 0: (2.0, 0)}),
            TZSketch(node=2, k=2, pivots=((2, 0.0), (1, 5.0)),
                     bunch={1: (5.0, 0)}),
        ]
        idx = TZIndex(sketches)
        assert not idx.dense_top
        for u in range(3):
            for v in range(3):
                try:
                    want = estimate_distance(sketches[u], sketches[v])
                except QueryError:
                    with pytest.raises(QueryError):
                        idx.estimate_many(np.array([u]), np.array([v]))
                    continue
                assert idx.estimate(u, v) == want


def _engine(sketches, **options):
    """The engine over a fresh one-shard store of ``sketches``."""
    return QueryEngine(build_index(sketches), **options)


class TestQueryEngine:
    def test_dist_and_dist_many_agree(self, tz_sketches):
        engine = _engine(tz_sketches)
        pairs = [(0, 4), (4, 0), (7, 7), (1, 30)]
        batch = engine.dist_many(pairs)
        assert [engine.dist(u, v) for u, v in pairs] == batch.tolist()

    def test_cache_hits_and_evictions(self, tz_sketches):
        # direct-mapped: two pairs whose keys share a slot evict each
        # other, however empty the rest of the table is
        engine = _engine(tz_sketches, cache_size=2)
        slot_of = engine._cache.slot_of
        v = next(v for v in range(2, engine.n)  # key of (0, v) is v
                 if slot_of(np.array([v])) == slot_of(np.array([1])))
        engine.dist(0, 1)
        engine.dist(0, 1)
        assert engine.stats.hits == 1 and engine.stats.misses == 1
        engine.dist(0, v)  # evicts (0, 1)
        assert engine.stats.evictions == 1 and engine.cache_entries == 1
        engine.dist(0, 1)  # evicts (0, v)
        assert engine.stats.evictions == 2 and engine.cache_entries == 1
        assert engine.stats.hits == 1 and engine.stats.misses == 3

    def test_cache_disabled(self, tz_sketches):
        engine = _engine(tz_sketches, cache_size=0)
        engine.dist(0, 1)
        engine.dist(0, 1)
        assert engine.stats.hits == 0 and engine.stats.misses == 0

    def test_ordered_pair_caching(self, tz_sketches):
        # (u, v) and (v, u) are distinct cache keys: the level scan is not
        # symmetric, and the contract is bit-identity with the single path
        engine = _engine(tz_sketches, cache_size=64)
        a = engine.dist(3, 30)
        b = engine.dist(30, 3)
        assert a == estimate_distance(tz_sketches[3], tz_sketches[30])
        assert b == estimate_distance(tz_sketches[30], tz_sketches[3])

    def test_slack_schemes_get_their_own_index(self, er_unit):
        from repro.service import Stretch3Index

        built = build_sketches(er_unit, scheme="stretch3", eps=0.3, seed=2)
        engine = _engine(built.sketches, cache_size=8)
        assert isinstance(engine.index, Stretch3Index)
        pairs = [(0, 5), (5, 0), (2, 2)]
        assert engine.dist_many(pairs).tolist() == [
            built.query(u, v) for u, v in pairs]

    def test_rejects_bad_pairs_shape(self, tz_sketches):
        engine = _engine(tz_sketches)
        with pytest.raises(ConfigError):
            engine.dist_many(np.arange(6))

    def test_rejects_out_of_range_ids(self, er_unit):
        built = build_sketches(er_unit, scheme="stretch3", eps=0.3, seed=2)
        engine = _engine(built.sketches, cache_size=0)
        with pytest.raises(QueryError):
            engine.dist(-1, 5)
        with pytest.raises(QueryError):
            engine.dist(0, engine.n)


def _cache_slot_changes(engine, pairs):
    """Run one batch; returns ``(answers, slots written, of those
    already occupied)`` read off the cache's key column."""
    before = engine._cache.keys.copy()
    answers = engine.dist_many(pairs)
    written = before != engine._cache.keys
    return (answers, int(np.count_nonzero(written)),
            int(np.count_nonzero(before[written] >= 0)))


class TestResultCache:
    """The direct-mapped result cache: whatever it keeps or evicts,
    answers and accounting stay exact."""

    def test_every_capacity_keeps_answers_and_accounting(self, tz_sketches):
        n = len(tz_sketches)
        table = np.array([[estimate_distance(su, sv) for sv in tz_sketches]
                          for su in tz_sketches])
        rng = np.random.default_rng(3)
        for capacity in range(1, 65):
            engine = _engine(tz_sketches, cache_size=capacity)
            cache = engine._cache
            assert cache.keys.size == capacity
            asked = inserted = evicted = 0
            for step in range(8):
                if step % 3 != 2:  # every third batch replays the last
                    pairs = rng.integers(0, n, size=(rng.integers(1, 24), 2))
                    # both directions of every pair, and in-batch repeats
                    pairs = np.concatenate([pairs, pairs[:, ::-1],
                                            pairs[:4]])
                got, written, overwritten = _cache_slot_changes(engine,
                                                                pairs)
                assert got.tolist() == table[pairs[:, 0],
                                             pairs[:, 1]].tolist()
                asked += len(pairs)
                inserted += written
                evicted += overwritten
                stats = engine.stats
                assert stats.hits + stats.misses == asked
                resident = cache.keys[cache.keys >= 0]
                assert engine.cache_entries == resident.size <= capacity
                assert (stats.evictions == evicted
                        == inserted - resident.size)
                # a key is stored once, in its own slot, with the value
                # of its pair
                assert np.unique(resident).size == resident.size
                slots = np.flatnonzero(cache.keys >= 0)
                assert (cache.slot_of(resident) == slots).all()
                assert (cache.vals[slots]
                        == table[resident // n, resident % n]).all()
            if capacity > 1:
                assert engine.stats.hits > 0

    def test_lone_pairs_between_batches_keep_answers_and_accounting(
            self, tz_sketches):
        n = len(tz_sketches)
        table = np.array([[estimate_distance(su, sv) for sv in tz_sketches]
                          for su in tz_sketches])
        rng = np.random.default_rng(8)
        for capacity in (1, 5, 64):
            engine = _engine(tz_sketches, cache_size=capacity)
            cache = engine._cache
            asked = inserted = 0
            for step in range(40):
                size = 1 if step % 4 else int(rng.integers(2, 12))
                pairs = rng.integers(0, n, size=(size, 2))
                if step % 8 == 3:
                    pairs = last  # a lone replay: a hit if still resident
                before = cache.keys.copy()
                hits = engine.stats.hits
                got = engine.dist_many(pairs)
                assert got.tolist() == table[pairs[:, 0],
                                             pairs[:, 1]].tolist()
                if size == 1 and step % 8 == 3:
                    assert engine.stats.hits == hits + int(
                        pairs[0, 0] * n + pairs[0, 1] in before)
                inserted += int(np.count_nonzero(before != cache.keys))
                asked += len(pairs)
                last = pairs[:1]
                stats = engine.stats
                assert stats.hits + stats.misses == asked
                resident = cache.keys[cache.keys >= 0]
                assert engine.cache_entries == resident.size <= capacity
                assert stats.evictions == inserted - resident.size

    def test_replay_within_capacity_is_all_hits(self, tz_sketches):
        # "within capacity" for a direct-mapped table: the four distinct
        # keys sit in four distinct slots of the eight
        engine = _engine(tz_sketches, cache_size=8)
        pairs = np.array([(0, 1), (1, 0), (2, 3), (0, 1), (7, 7)])
        keys = pairs[:, 0] * engine.n + pairs[:, 1]
        assert np.unique(engine._cache.slot_of(keys)).size == 4
        engine.dist_many(pairs)
        assert engine.cache_entries == 4  # the repeat is stored once
        resident = np.count_nonzero(np.isin(keys, engine._cache.keys))
        engine.dist_many(pairs)
        assert engine.stats.hits == resident == 5
        assert engine.stats.evictions == 0
        # a uniform workload in a table four times its size: keys that
        # share a slot keep one of them, and the replay hits exactly the
        # rows whose key the first pass left resident
        engine = _engine(tz_sketches, cache_size=4000)
        pairs = sample_query_pairs(engine.n, 1000, seed=9)
        engine.dist_many(pairs)
        keys = pairs[:, 0] * engine.n + pairs[:, 1]
        resident = int(np.count_nonzero(np.isin(keys, engine._cache.keys)))
        engine.dist_many(pairs)
        assert engine.stats.hits == resident > 0

    def test_stale_write_back_is_not_stored_twice(self, tz_sketches):
        # two batches that both missed the same key before either wrote
        # it back: the second write-back must find it resident
        engine = _engine(tz_sketches, cache_size=16)
        cache = engine._cache
        keys = np.array([7, 9])
        slots = cache.slot_of(keys)
        vals = np.array([1.5, 2.5])
        assert cache.insert(keys, slots, vals) == 0
        assert cache.insert(keys, slots, vals) == 0
        assert cache.entries == 2
        assert sorted(cache.keys[cache.keys >= 0].tolist()) == [7, 9]

    def test_keys_sharing_a_slot_leave_one_whole_entry(self, tz_sketches):
        # distinct keys of one write-back collide in every slot: each
        # slot ends up holding one of them *and that key's own value*.
        # NumPy does not say which repeat of an index a scatter keeps,
        # so the key and the value must be written by one claimed row.
        engine = _engine(tz_sketches, cache_size=4)
        cache = engine._cache

        def write_back(keys):
            return cache.insert(keys, cache.slot_of(keys), keys * 0.5 + 0.25)

        keys = np.arange(200, dtype=np.int64)
        assert write_back(keys) == 0
        assert cache.entries == 4  # one per slot, not one per row
        assert (cache.slot_of(cache.keys) == np.arange(4)).all()
        assert np.isin(cache.keys, keys).all()
        assert (cache.vals == cache.keys * 0.5 + 0.25).all()
        # a second such batch replaces every slot exactly once
        assert write_back(keys + 1000) == 4
        assert cache.entries == 4
        assert (cache.slot_of(cache.keys) == np.arange(4)).all()
        assert (cache.keys >= 1000).all()
        assert (cache.vals == cache.keys * 0.5 + 0.25).all()

    def test_server_stats_read_the_counters_under_the_engine_lock(
            self, tz_sketches):
        # a batch updates hits/misses and then evictions/entries under
        # the engine lock: a snapshot taken without it could mix them
        with OracleServer(tz_sketches, cache_size=8) as server:
            server.client().dist_many([(0, 1), (2, 3)])
            engine = server._engine
            done = threading.Event()
            seen: list = []

            def snapshot() -> None:
                seen.append(server.stats()["cache"])
                done.set()

            with engine._lock:
                reader = threading.Thread(target=snapshot, daemon=True)
                reader.start()
                assert not done.wait(0.2)  # blocked on the lock
            reader.join(timeout=10.0)
            assert seen == [{"hits": 0, "misses": 2, "evictions": 0,
                             "entries": 2}]

    @pytest.mark.parametrize("spec", ["inproc://", "inproc://cache=0"])
    def test_session_rejects_bad_ids_before_the_cache(self, tz_sketches,
                                                      spec):
        n = len(tz_sketches)
        with connect(spec, tz_sketches) as client:
            client.dist_many([(0, 1), (2, 3)])
            before = client.stats()["cache"]
            # (0, n + 1) would share the key 0·n + n + 1 with (1, 1)
            for bad in ([(1, 1), (0, n + 1)], [(0, -1)], [(n, 0)],
                        [(-1, n)]):
                with pytest.raises(QueryError) as err:
                    client.dist_many(bad)
                assert str(err.value) == f"node id out of range [0, {n})"
            assert client.stats()["cache"] == before


class TestBuiltSketchesIntegration:
    def test_query_many_matches_query(self, er_weighted):
        built = build_sketches(er_weighted, scheme="tz", k=2, seed=5)
        pairs = [(0, 9), (9, 0), (4, 4), (1, 35)]
        assert built.query_many(pairs).tolist() == [
            built.query(u, v) for u, v in pairs]
        # the one-shard store behind query_many is built once
        store = built.extras["_index"]
        built.query_many(pairs)
        assert built.extras["_index"] is store


class TestOnlineCostMany:
    def test_matches_scalar_closed_form(self):
        from repro.oracle import online_query_cost, online_query_cost_many

        hops = [0, 1, 3, 7]
        out = online_query_cost_many(hops, 30, bandwidth_words=6)
        for j, h in enumerate(hops):
            ref = online_query_cost(h, 30, bandwidth_words=6)
            assert out["chunks"][j] == ref.chunks
            assert out["rounds"][j] == ref.rounds_pipelined
            assert out["rounds_naive"][j] == ref.rounds_naive

    def test_broadcasts_and_validates(self):
        from repro.errors import ConfigError as CE
        from repro.oracle import online_query_cost_many

        out = online_query_cost_many([2, 4], [12, 24], bandwidth_words=6)
        assert out["rounds"].tolist() == [3, 7]
        with pytest.raises(CE):
            online_query_cost_many([-1], 3)


class TestDisconnectedGraphs:
    """The INF_KEY pivot sentinel (-1, inf) on disconnected graphs must not
    alias into the landmark tables (regression for a false top-level hit)."""

    def _disconnected(self):
        from repro.graphs import Graph

        # components {0, 1} and {2, 3, 4}; node 4 can be a top landmark
        return Graph(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0),
                         (2, 4, 2.0)])

    def test_cross_component_raises_like_reference(self):
        g = self._disconnected()
        for seed in range(8):
            sketches, _ = build_tz_sketches_centralized(g, k=2, seed=seed)
            idx = TZIndex(sketches)
            for u in range(g.n):
                for v in range(g.n):
                    try:
                        want = estimate_distance(sketches[u], sketches[v])
                    except QueryError:
                        with pytest.raises(QueryError):
                            idx.estimate_many(np.array([u]), np.array([v]))
                        continue
                    assert idx.estimate(u, v) == want


class TestSlackIndexes:
    """Unit tests for the stretch3/cdg/graceful stores (the scheme-specific
    batched==single property suites live in test_service_properties.py)."""

    @pytest.fixture(scope="class")
    def s3_built(self, er_unit):
        return build_sketches(er_unit, scheme="stretch3", eps=0.3, seed=2)

    @pytest.fixture(scope="class")
    def cdg_built(self, er_unit):
        return build_sketches(er_unit, scheme="cdg", eps=0.3, k=2, seed=3)

    @pytest.fixture(scope="class")
    def graceful_built(self, er_unit):
        return build_sketches(er_unit, scheme="graceful", seed=4)

    def _assert_matches_single(self, store_class, sketches):
        """Every ordered pair, batched by the store and by an engine
        over it, one shard and two: exact, not approx."""
        n = len(sketches)
        us, vs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        us, vs = us.ravel(), vs.ravel()
        single = [sketches[u].estimate_to(sketches[v])
                  for u, v in zip(us, vs)]
        for shards in (1, 2):
            index = store_class(sketches, num_shards=shards)
            assert index.estimate_many(us, vs).tolist() == single
            with QueryEngine(index, cache_size=0) as engine:
                assert engine.dist_many(
                    np.column_stack([us, vs])).tolist() == single

    def test_stretch3_matches_single(self, s3_built):
        from repro.service import Stretch3Index

        self._assert_matches_single(Stretch3Index, s3_built.sketches)

    def test_cdg_matches_single(self, cdg_built):
        from repro.service import CDGIndex

        self._assert_matches_single(CDGIndex, cdg_built.sketches)

    def test_graceful_matches_single(self, graceful_built):
        from repro.service import GracefulIndex

        self._assert_matches_single(GracefulIndex, graceful_built.sketches)

    @pytest.mark.parametrize("shards", [2, 5])
    def test_shard_count_never_changes_answers(self, s3_built, cdg_built,
                                               graceful_built, shards):
        from repro.service import build_index

        for built in (s3_built, cdg_built, graceful_built):
            n = len(built.sketches)
            us, vs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
            us, vs = us.ravel(), vs.ravel()
            base = build_index(built.sketches, num_shards=1)
            sharded = build_index(built.sketches, num_shards=shards)
            assert np.array_equal(base.estimate_many(us, vs),
                                  sharded.estimate_many(us, vs))
            assert sharded.nnz() == base.nnz()

    def test_shard_sizes_partition_entries(self, s3_built, graceful_built):
        from repro.service import build_index

        for built in (s3_built, graceful_built):
            idx = build_index(built.sketches, num_shards=4)
            assert len(idx.shard_sizes()) == 4
            assert all(s >= 0 for s in idx.shard_sizes())

    def test_engine_auto_detects_every_scheme(self, s3_built, cdg_built,
                                              graceful_built):
        from repro.service import CDGIndex, GracefulIndex, Stretch3Index

        for built, cls in ((s3_built, Stretch3Index), (cdg_built, CDGIndex),
                           (graceful_built, GracefulIndex)):
            assert isinstance(_engine(built.sketches).index, cls)

    def test_query_many_matches_query_all_schemes(self, s3_built, cdg_built,
                                                  graceful_built):
        pairs = [(0, 9), (9, 0), (4, 4), (1, 35)]
        for built in (s3_built, cdg_built, graceful_built):
            assert built.query_many(pairs).tolist() == [
                built.query(u, v) for u, v in pairs]

    def test_validation_errors(self, s3_built, cdg_built, graceful_built):
        from repro.service import (CDGIndex, GracefulIndex, Stretch3Index,
                                   build_index)

        for cls in (Stretch3Index, CDGIndex, GracefulIndex):
            with pytest.raises(ConfigError):
                cls([])
        with pytest.raises(ConfigError):
            Stretch3Index(s3_built.sketches, num_shards=0)
        with pytest.raises(ConfigError):
            Stretch3Index(cdg_built.sketches)  # wrong sketch type
        with pytest.raises(ConfigError):
            CDGIndex(graceful_built.sketches)
        with pytest.raises(ConfigError):
            GracefulIndex(s3_built.sketches)
        with pytest.raises(ConfigError):
            build_index([s3_built.sketches[0], cdg_built.sketches[1]])

    def test_out_of_range_ids_raise(self, s3_built, cdg_built,
                                    graceful_built):
        from repro.service import build_index

        for built in (s3_built, cdg_built, graceful_built):
            idx = build_index(built.sketches)
            with pytest.raises(QueryError):
                idx.estimate_many(np.array([0]), np.array([idx.n]))
            with pytest.raises(QueryError):
                idx.estimate_many(np.array([-1]), np.array([0]))

    def test_empty_batch_all_schemes(self, s3_built, cdg_built,
                                     graceful_built):
        from repro.service import build_index

        empty = np.empty(0, dtype=np.int64)
        for built in (s3_built, cdg_built, graceful_built):
            assert build_index(built.sketches).estimate_many(empty,
                                                             empty).size == 0

    def test_index_class_for(self, s3_built, cdg_built, graceful_built,
                             tz_sketches):
        from repro.service import index_class_for

        assert index_class_for(tz_sketches).scheme == "tz"
        assert index_class_for(s3_built.sketches).scheme == "stretch3"
        assert index_class_for(cdg_built.sketches).scheme == "cdg"
        assert index_class_for(graceful_built.sketches).scheme == "graceful"
        assert index_class_for([]) is None
        assert index_class_for([object()]) is None
        assert index_class_for([tz_sketches[0], s3_built.sketches[0]]) is None
