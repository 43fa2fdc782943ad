"""Backing equivalence: every IndexStore answers bit-identically
wherever its arrays live — built on the heap from sketches, or loaded
from an RPIX container as views over the bytes read (``heap``), over
one read-only mapping of the file (``mmap``), or over the container as
one byte string (a fetched index blob) — and whether the batch is
probed in the calling thread or by threads over that store.

This is the determinism contract of the container: it stores exact
bytes and the stores are pure logic over them, so *nothing* about
where the bytes live may leak into answers — including which pairs
raise :class:`~repro.errors.QueryError` on disconnected graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_sketches
from repro.errors import QueryError
from repro.graphs import Graph, assign_uniform_weights, erdos_renyi
from repro.oracle.serialization import (index_binary_bytes,
                                        load_index_binary, load_index_bytes,
                                        save_index_binary)
from repro.service import (
    QueryEngine,
    build_index,
    connect,
    sample_query_pairs,
)
from repro.service.buffers import tree_to_bytes
from repro.service.engine import RANGE_PAIRS
from repro.tz import build_tz_sketches_centralized

SCHEMES = ["tz", "stretch3", "cdg", "graceful"]
#: the three ways a container becomes a store
BACKINGS = ["heap", "mmap", "bytes"]


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


def _rpix_store(index, tmp_path, memory):
    """The store as ``repro serve idx.rpix --memory {heap,mmap}`` opens
    it — written to an RPIX container, then loaded with that backing —
    or, for ``"bytes"``, as ``fetch_index()`` materializes a blob."""
    if memory == "bytes":
        return load_index_bytes(index_binary_bytes(index))
    path = tmp_path / f"store-{memory}.rpix"
    save_index_binary(index, str(path))
    return load_index_binary(str(path), backing=memory)


def _response_bytes(store, request) -> bytes:
    """The whole response tree of one ``answer`` pass, canonically."""
    return tree_to_bytes(store.answer(request))


class TestPackEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("shards", [1, 3])
    def test_all_backings_bit_identical(self, built_sets, scheme, shards,
                                        tmp_path):
        sketches = built_sets[scheme]
        index = build_index(sketches, num_shards=shards)
        pairs = sample_query_pairs(len(sketches), 250, seed=13)
        us, vs = pairs[:, 0], pairs[:, 1]
        want = index.estimate_many(us, vs)
        _, (request,) = index.plan(us, vs)
        responses = _response_bytes(index, request)
        for backing in BACKINGS:
            store = _rpix_store(index, tmp_path, backing)
            got = store.estimate_many(us, vs)
            assert got.tolist() == want.tolist(), (scheme, backing)
            # not only the answers: every response byte, the
            # distance of an absent probe included
            assert _response_bytes(store, request) == responses
            # the loaded store is the same logical index
            assert store == index, (scheme, backing)
            assert store.nnz() == index.nnz()
            assert store.shard_sizes() == index.shard_sizes()
            # and the same physical one: views nobody can write through
            assert index_binary_bytes(store) == index_binary_bytes(index)
            assert not any(arr.flags.writeable
                           for arr in store.pack_arrays().values())

    @pytest.mark.parametrize("backing", BACKINGS)
    def test_pack_built_index_is_picklable(self, built_sets, backing,
                                           tmp_path):
        """A loaded store pickles: its arrays are views over the
        container's bytes, and numpy ships views by value."""
        import pickle

        index = build_index(built_sets["tz"], num_shards=2)
        store = _rpix_store(index, tmp_path, backing)
        clone = pickle.loads(pickle.dumps(store))
        pairs = sample_query_pairs(index.n, 60, seed=2)
        assert np.array_equal(
            clone.estimate_many(pairs[:, 0], pairs[:, 1]),
            index.estimate_many(pairs[:, 0], pairs[:, 1]))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bytes_loader_equivalence(self, built_sets, scheme):
        """The bytes path (container blob -> views over it -> store)
        answers like the original — how a fetched index is opened."""
        index = build_index(built_sets[scheme], num_shards=2)
        loaded = load_index_bytes(index_binary_bytes(index))
        pairs = sample_query_pairs(index.n, 120, seed=5)
        assert np.array_equal(
            loaded.estimate_many(pairs[:, 0], pairs[:, 1]),
            index.estimate_many(pairs[:, 0], pairs[:, 1]))

    def test_query_error_parity_on_disconnected_graphs(self, tmp_path):
        """A pair unresolved on the heap store is unresolved on every
        backing — same error, same (first) offending row."""
        g = Graph(6, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 4, 2.0),
                      (4, 5, 1.0)])
        sketches, _ = build_tz_sketches_centralized(g, k=2, seed=1)
        index = build_index(sketches, num_shards=2)
        us = np.asarray([0, 0, 2])
        vs = np.asarray([1, 5, 4])
        with pytest.raises(QueryError) as heap_err:
            index.estimate_many(us, vs)
        for backing in BACKINGS:
            store = _rpix_store(index, tmp_path, backing)
            with pytest.raises(QueryError) as err:
                store.estimate_many(us, vs)
            assert str(err.value) == str(heap_err.value)
            assert err.value.row == heap_err.value.row
            # the resolvable prefix still answers
            assert store.estimate_many(us[:1], vs[:1]).tolist() == \
                index.estimate_many(us[:1], vs[:1]).tolist()


class TestServerMemoryModes:
    """A server serves the store it is given; what the bytes live in was
    decided by whoever loaded it (``--memory`` on the CLI)."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("memory", ["mmap", "bytes"])
    def test_in_process_non_heap_serving(self, built_sets, scheme, memory,
                                         tmp_path):
        """An engine over a loaded container serves the bytes it was
        loaded over."""
        index = build_index(built_sets[scheme], num_shards=2)
        pairs = sample_query_pairs(index.n, 150, seed=7)
        want = index.estimate_many(pairs[:, 0], pairs[:, 1])
        store = _rpix_store(index, tmp_path, memory)
        with QueryEngine(store, cache_size=0) as engine:
            assert engine.index is store  # served as given, never re-packed
            got = engine.dist_many(pairs)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("memory", BACKINGS)
    def test_worker_pool_identity(self, built_sets, memory, tmp_path,
                                  cpus):
        """A batch cut into 4 pair ranges over either load mode produces
        the in-thread bytes, across repeated batches."""
        cpus(4)
        index = build_index(built_sets["tz"], num_shards=4)
        pairs = sample_query_pairs(index.n, 4 * RANGE_PAIRS, seed=9)
        want = index.estimate_many(pairs[:, 0], pairs[:, 1])
        with QueryEngine(_rpix_store(index, tmp_path, memory),
                         cache_size=0) as engine:
            first = engine.dist_many(pairs)
            again = engine.dist_many(pairs)
            small = engine.dist_many(pairs[:7])
        assert first.tobytes() == want.tobytes()
        assert again.tobytes() == want.tobytes()
        assert small.tobytes() == want[:7].tobytes()

    def test_worker_pool_query_error_parity(self, tmp_path, cpus):
        cpus(2)
        g = Graph(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 4, 2.0)])
        sketches, _ = build_tz_sketches_centralized(g, k=2, seed=1)
        store = _rpix_store(build_index(sketches, num_shards=2), tmp_path,
                            "mmap")
        good = np.tile([[2, 4]], (2 * RANGE_PAIRS, 1))
        bad = good.copy()
        bad[-1] = (0, 4)
        with QueryEngine(store, cache_size=0) as engine:
            with pytest.raises(QueryError):
                engine.dist_many(bad)
            # the pool survives the error and keeps serving
            assert set(engine.dist_many(good).tolist()) == {2.0}

    def test_engine_memory_modes_identical(self, built_sets, tmp_path,
                                           cpus):
        cpus(2)
        sketches = built_sets["stretch3"]
        pairs = sample_query_pairs(len(sketches), 2 * RANGE_PAIRS, seed=3)
        with connect("inproc://cache=0", sketches) as base:
            want = base.dist_many(pairs)
        index = build_index(sketches, num_shards=3)
        for memory in BACKINGS:
            with connect("inproc://cache=0",
                         _rpix_store(index, tmp_path, memory)) as session:
                assert session.dist_many(pairs).tobytes() == want.tobytes()

    def test_phase_timings_accumulate_and_reset(self, built_sets):
        index = build_index(built_sets["tz"], num_shards=2)
        with QueryEngine(index, cache_size=0) as engine:
            engine.dist_many(sample_query_pairs(index.n, 100, seed=1))
            t = engine.phase_timings()
            assert t["batches"] == 1
            assert min(t["plan_seconds"], t["shard_answer_seconds"],
                       t["finish_seconds"]) > 0.0
            assert t["ipc_seconds"] == 0.0  # in-thread: no dispatch
            engine.reset_phase_timings()
            assert engine.phase_timings()["batches"] == 0


class TestBackingProperty:
    """Small hypothesis sweep: random graphs x schemes x shard counts,
    every backing's answers equal (the nightly profile widens the example
    count)."""

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(16, 36), seed=st.integers(0, 1000),
           shards=st.integers(1, 4),
           scheme=st.sampled_from(SCHEMES))
    def test_backings_agree(self, n, seed, shards, scheme, tmp_path_factory):
        g = assign_uniform_weights(erdos_renyi(n, seed=seed), seed=seed + 1)
        kwargs = {"tz": {"k": 2}, "stretch3": {"eps": 0.35},
                  "cdg": {"eps": 0.35, "k": 2}, "graceful": {}}[scheme]
        sketches = build_sketches(g, scheme=scheme, seed=seed + 2,
                                  **kwargs).sketches
        index = build_index(sketches, num_shards=shards)
        pairs = sample_query_pairs(n, 80, seed=seed + 3)
        want = index.estimate_many(pairs[:, 0], pairs[:, 1])
        tmp = tmp_path_factory.mktemp("containers")
        for backing in BACKINGS:
            got = _rpix_store(index, tmp, backing).estimate_many(
                pairs[:, 0], pairs[:, 1])
            assert got.tolist() == want.tolist()
