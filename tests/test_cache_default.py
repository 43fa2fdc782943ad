"""Who sizes the result cache: the store, unless the caller says.

Each store class carries ``cache_slots``, the slot count a session over
it gets when no size is given — 0 where the cache's probe and
write-back cost more than the kernels they save (TZ, CDG), 65 536
where they pay (stretch-3, graceful); ``benchmarks/cache_crossover.py``
measures it.  This file checks that

* the default resolves per store class on every way a session opens:
  ``QueryEngine``, ``OracleServer``, ``connect("inproc://")``, an
  updateable source, and a ``repro serve`` daemon over tcp;
* an explicit size wins both ways (``cache=0`` on graceful,
  ``cache=64`` on tz);
* a default session and an explicit one answer bit for bit alike;
* a size is an integer: a bool or a non-integral number is a
  ``ConfigError``, never truncated.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_sketches
from repro.errors import ConfigError
from repro.graphs import assign_uniform_weights, erdos_renyi, write_edgelist
from repro.oracle.serialization import save_index_binary
from repro.service import (CDGIndex, GracefulIndex, OracleServer, QueryEngine,
                           Stretch3Index, TZIndex, UpdateableIndex,
                           build_index, connect, sample_query_pairs,
                           sample_weight_changes)
from scenario_harness import served_subprocess

SCHEME_PARAMS = {
    "tz": {"k": 2},
    "stretch3": {"eps": 0.4},
    "cdg": {"eps": 0.4, "k": 2},
    "graceful": {},
}

#: the slots each scheme's sessions get by default
DEFAULT = {"tz": 0, "cdg": 0, "stretch3": 65536, "graceful": 65536}


@pytest.fixture(scope="module")
def graph():
    return assign_uniform_weights(erdos_renyi(40, seed=11), seed=12)


@pytest.fixture(scope="module")
def stores(graph):
    return {scheme: build_index(build_sketches(
        graph, scheme=scheme, seed=7, **params).sketches)
        for scheme, params in SCHEME_PARAMS.items()}


@pytest.fixture(scope="module")
def traffic(graph):
    """A batch of distinct pairs: sent twice, the second pass hits
    exactly the keys the first left resident."""
    return np.unique(sample_query_pairs(graph.n, 300, seed=3), axis=0)


def test_each_store_class_carries_its_measured_default():
    assert {cls.scheme: cls.cache_slots for cls in
            (TZIndex, CDGIndex, Stretch3Index, GracefulIndex)} == DEFAULT


@pytest.mark.parametrize("scheme", sorted(SCHEME_PARAMS))
class TestTheDefaultIsTheStores:
    def test_query_engine(self, stores, scheme):
        with QueryEngine(stores[scheme]) as engine:
            assert engine.cache_size == DEFAULT[scheme]
            assert (engine._cache is None) == (DEFAULT[scheme] == 0)

    def test_oracle_server(self, stores, scheme):
        with OracleServer(stores[scheme]) as server:
            assert server.stats()["cache_size"] == DEFAULT[scheme]

    def test_connect_inproc(self, stores, scheme, traffic):
        with connect("inproc://", stores[scheme]) as client:
            client.dist_many(traffic)
            client.dist_many(traffic)
            stats = client.stats()
        assert stats["cache_size"] == DEFAULT[scheme]
        assert (stats["cache"]["hits"] > 0) == (DEFAULT[scheme] > 0)

    def test_connect_a_sketch_set(self, graph, scheme):
        built = build_sketches(graph, scheme=scheme, seed=7,
                               **SCHEME_PARAMS[scheme])
        with connect("inproc://", built) as client:
            assert client.stats()["cache_size"] == DEFAULT[scheme]


@pytest.mark.parametrize("scheme", ["tz", "stretch3"])
def test_an_updateable_source_keeps_its_default_across_swaps(graph, scheme):
    live = UpdateableIndex(graph.copy(), scheme=scheme, seed=5,
                           **SCHEME_PARAMS[scheme])
    with connect("inproc://", live) as client:
        assert client.stats()["cache_size"] == DEFAULT[scheme]
        client.apply_updates(sample_weight_changes(graph, 3, seed=44,
                                                   low=0.2, high=0.6))
        assert client.stats()["epoch"] == 1
        assert client.stats()["cache_size"] == DEFAULT[scheme]


@pytest.mark.parametrize("scheme", ["tz", "graceful"])
def test_repro_serve_takes_the_stores_default(tmp_path, stores, scheme):
    rpix = tmp_path / f"{scheme}.rpix"
    save_index_binary(stores[scheme], rpix)
    with served_subprocess(rpix, "--memory", "mmap") as addr:
        with connect(addr) as client:
            stats = client.stats()
            answer = client.dist(0, 1)
    assert stats["scheme"] == scheme
    assert stats["cache_size"] == DEFAULT[scheme]
    assert answer == stores[scheme].estimate(0, 1)


def test_repro_serve_updateable_takes_the_stores_default(tmp_path, graph):
    path = tmp_path / "net.edges"
    write_edgelist(graph, path)
    with served_subprocess(path, "--updateable", "--scheme", "tz",
                           "--k", "2", "--seed", "0") as addr:
        with connect(addr) as client:
            assert client.stats()["cache_size"] == 0


class TestAnExplicitSizeWins:
    def test_no_cache_on_graceful(self, stores, traffic):
        with connect("inproc://cache=0", stores["graceful"]) as client:
            client.dist_many(traffic)
            stats = client.stats()
        assert stats["cache_size"] == 0
        assert stats["cache"] == {"hits": 0, "misses": 0, "evictions": 0,
                                  "entries": 0}

    @pytest.mark.parametrize("how", ["spec", "keyword", "server"])
    def test_a_cache_on_tz(self, stores, traffic, how):
        store = stores["tz"]
        if how == "spec":
            client = connect("inproc://cache=64", store)
        elif how == "keyword":
            client = connect("inproc://", store, cache_size=64)
        else:
            client = OracleServer(store, cache_size=64).client(
                owns_server=True)
        with client:
            client.dist_many(traffic)
            resident = client.stats()["cache"]["entries"]
            client.dist_many(traffic)  # the resident keys hit
            stats = client.stats()
        assert stats["cache_size"] == 64
        assert 0 < resident <= 64
        assert stats["cache"]["hits"] == resident

    def test_a_numpy_integer_size(self, stores, traffic):
        with QueryEngine(stores["tz"], cache_size=np.int64(64)) as engine:
            engine.dist_many(traffic)
            resident = engine.cache_entries
            engine.dist_many(traffic)
            assert type(engine.cache_size) is int
            assert engine.cache_size == 64
            assert 0 < resident == engine.cache_counters()["hits"]


@pytest.mark.parametrize("scheme", sorted(SCHEME_PARAMS))
def test_default_and_explicit_sessions_answer_alike(stores, traffic, scheme):
    store = stores[scheme]
    outcomes = []
    for spec in ("inproc://", "inproc://cache=0", "inproc://cache=64",
                 "inproc://cache=65536"):
        with connect(spec, store) as client:
            outcomes.append((client.dist_many(traffic).tobytes(),
                             client.dist_many(traffic).tobytes(),
                             [client.dist(u, v)
                              for u, v in traffic[:50].tolist()]))
    assert all(out == outcomes[0] for out in outcomes[1:])
    want = store.estimate_many(traffic[:, 0], traffic[:, 1]).tobytes()
    assert outcomes[0][0] == want


@pytest.mark.parametrize("bad", [2.5, 2.0, True, False, "8"])
class TestASizeIsAnInteger:
    def test_query_engine(self, stores, bad):
        with pytest.raises(ConfigError, match="cache_size must be an "
                                              "integer"):
            QueryEngine(stores["tz"], cache_size=bad)

    def test_oracle_server(self, stores, bad):
        with pytest.raises(ConfigError, match="cache_size must be an "
                                              "integer"):
            OracleServer(stores["tz"], cache_size=bad)

    def test_connect(self, stores, bad):
        with pytest.raises(ConfigError, match="cache_size must be an "
                                              "integer"):
            connect("inproc://", stores["tz"], cache_size=bad)


def test_a_negative_size_is_refused(stores):
    with pytest.raises(ConfigError, match=">= 0"):
        QueryEngine(stores["graceful"], cache_size=-1)
    with pytest.raises(ConfigError, match=">= 0"):
        connect("inproc://cache=-1", stores["tz"])
