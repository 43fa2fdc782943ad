"""The session-oriented serving API (repro.service.client / .server).

Four claim families:

* **endpoint grammar** — ``parse_endpoint`` accepts exactly the
  documented ``inproc://cache=0`` /
  ``tcp://host:port`` forms and fails loudly on everything else — the
  deleted ``proc://`` transport and ``pool=`` / ``memory=`` /
  ``shards=`` / ``jobs=`` options included, at ``connect()`` time,
  before any index is built;
* **transport equivalence** — for every scheme, ``dist_many`` through
  ``inproc`` and tcp-loopback sessions — a bulk batch cut into pair
  ranges included — is bit-identical to
  the single-pair reference loop, including :class:`QueryError` parity
  on disconnected graphs, and post-``apply_updates`` epochs answer
  bit-identically to an inline twin applying the same changes;
* **the ISSUE 5 acceptance path** — ``connect("tcp://…")`` against a
  live ``python -m repro serve`` *process* returns bit-identical
  ``dist_many`` answers to ``connect("inproc://…")`` for all four
  schemes, and an ``apply_updates`` hot swap propagates to a connected
  TCP client without a reconnect;
* **wire codec** — the array-tree byte codec round-trips every message
  shape, and frame-level deprecation/ownership rules hold.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro import build_sketches
from repro.errors import ConfigError, QueryError
from repro.graphs import Graph, assign_uniform_weights, erdos_renyi
from repro.service import (OracleServer, UpdateableIndex, connect,
                           parse_endpoint, sample_query_pairs,
                           sample_weight_changes)
from repro.service.buffers import tree_from_bytes, tree_to_bytes
from repro.service.engine import RANGE_PAIRS
from scenario_harness import served_subprocess

#: scheme -> build params for the equivalence suites
SCHEME_PARAMS = {
    "tz": {"k": 2},
    "stretch3": {"eps": 0.4},
    "cdg": {"eps": 0.4, "k": 2},
    "graceful": {},
}

#: the topologies every scheme must serve identically — in-process and
#: tcp-loopback
TRANSPORT_SPECS = ("inproc://", "tcp")

#: the smallest batch an engine cuts (into 2 ranges)
BULK = 2 * RANGE_PAIRS


@pytest.fixture(scope="module")
def graph() -> Graph:
    return assign_uniform_weights(erdos_renyi(24, seed=11), seed=12)


@pytest.fixture(scope="module")
def builds(graph):
    return {name: build_sketches(graph, scheme=name, seed=7, **params)
            for name, params in SCHEME_PARAMS.items()}


@contextmanager
def session(spec: str, source):
    """One OracleClient per topology: local specs connect directly;
    ``"tcp"`` hosts the source on a loopback OracleServer first."""
    if spec != "tcp":
        client = connect(spec, source, cache_size=0)
        try:
            yield client
        finally:
            client.close()
        return
    with OracleServer(source, cache_size=0) as server:
        host, port = server.serve("127.0.0.1:0", block=False)
        client = connect(f"tcp://{host}:{port}")
        try:
            yield client
        finally:
            client.close()


# ----------------------------------------------------------------------
# endpoint grammar
# ----------------------------------------------------------------------
class TestEndpointGrammar:
    def test_inproc_defaults(self):
        ep = parse_endpoint("inproc://")
        assert ep.transport == "inproc" and ep.options == {}

    def test_inproc_options_round_trip(self):
        ep = parse_endpoint("inproc://cache=0")
        assert ep.transport == "inproc"
        assert ep.options == {"cache": 0}
        assert ep.describe() == "inproc://cache=0"
        assert parse_endpoint(ep.describe()) == ep

    @pytest.mark.parametrize("spec", ["inproc://cache=0;cache=5",
                                      "inproc://cache=5;cache=5"])
    def test_a_repeated_option_is_refused(self, spec):
        # otherwise the last value wins unseen: cache=0;cache=5 would
        # serve 5 slots
        with pytest.raises(ConfigError, match="'cache' is given twice"):
            parse_endpoint(spec)

    def test_tcp_host_port(self):
        ep = parse_endpoint("tcp://serving-box:7111")
        assert (ep.transport, ep.host, ep.port) == ("tcp", "serving-box",
                                                    7111)
        assert ep.describe() == "tcp://serving-box:7111"

    @pytest.mark.parametrize("bad", [
        "inproc",                      # no ://
        "udp://x:1",                   # unknown transport
        "tcp://noport",                # missing port
        "tcp://host:notaport",         # non-numeric port
        "tcp://host:70000",            # port out of range
        "proc://jobs",                 # proc is not a transport
        "proc://jobs=abc",
        "proc://bogus=1",
        "proc://pool=fiber",
        "inproc://pool=thread",        # pool is not an option
        "inproc://jobs",               # option without value
        "inproc://bogus=1",            # unknown option
    ])
    def test_bad_specs_fail_loudly(self, bad):
        with pytest.raises(ConfigError):
            parse_endpoint(bad)

    @pytest.mark.parametrize("spec", [
        "proc://jobs=2",               # not a transport, and no alias
        "inproc://pool=thread",        # not options: the engine cuts
        "inproc://memory=mmap",        # batches, loading picks the backing
        "inproc://shards=4",           # a layout parameter, not a session option
        "inproc://jobs=2",             # the engine decides how a batch runs
        "inproc://jobs=0",
        "inproc://jobs=x",
    ])
    def test_gone_at_connect(self, builds, spec, monkeypatch):
        """Each fails at ``connect()`` time, before any index is built."""
        def no_build(*args, **kwargs):
            raise AssertionError("an index was built for a bad spec")

        monkeypatch.setattr("repro.service.server.build_index", no_build)
        with pytest.raises(ConfigError):
            connect(spec, builds["tz"])

    def test_connect_requires_source_locally(self, builds):
        with pytest.raises(ConfigError, match="needs source="):
            connect("inproc://")
        with pytest.raises(ConfigError, match="server owns the index"):
            connect("tcp://127.0.0.1:1", builds["tz"])

    def test_connect_rejects_zero_jobs(self, builds):
        # jobs is no option at all: it fails at connect time, and the
        # error names the one option an inproc spec takes
        with pytest.raises(ConfigError,
                           match="does not take option 'jobs'.*cache"):
            connect("inproc://jobs=0", builds["tz"])


# ----------------------------------------------------------------------
# transport equivalence (the property suite)
# ----------------------------------------------------------------------
class TestTransportEquivalence:
    @pytest.mark.parametrize("scheme", sorted(SCHEME_PARAMS))
    def test_dist_many_bit_identical_everywhere(self, graph, builds,
                                                scheme, cpus):
        cpus(2)
        built = builds[scheme]
        pairs = sample_query_pairs(graph.n, 300, seed=5)
        ref = np.asarray([built.query(int(u), int(v)) for u, v in pairs])
        # the 300 pairs repeated: a bulk batch of known answers
        bulk, bulk_ref = np.resize(pairs, (BULK, 2)), np.resize(ref, BULK)
        for spec in TRANSPORT_SPECS:
            with session(spec, built) as client:
                # a bulk batch, cut into two pair ranges server-side
                assert client.dist_many(bulk).tobytes() == \
                    bulk_ref.tobytes(), spec
                assert client.n == graph.n and client.scheme == scheme
                got = client.dist_many(pairs)
                assert got.tolist() == ref.tolist(), spec  # exact floats
                # the stream path produces the same bytes, in order
                streamed = np.concatenate(list(client.dist_stream(
                    [pairs[:100], pairs[100:150], pairs[150:]])))
                assert streamed.tolist() == ref.tolist(), spec

    @pytest.mark.parametrize("scheme", sorted(SCHEME_PARAMS))
    def test_apply_updates_epochs_bit_identical(self, graph, scheme):
        params = SCHEME_PARAMS[scheme]
        changes = sample_weight_changes(graph, 3, seed=77, low=0.2,
                                        high=0.6)
        # the in-thread reference: an inline twin applying the same
        # batch (UpdateableIndex is deterministic in (graph, seed))
        twin = UpdateableIndex(graph, scheme=scheme, seed=9, **params)
        twin_report = twin.apply(changes)
        pairs = sample_query_pairs(graph.n, 200, seed=6)
        want = twin.index.estimate_many(pairs[:, 0], pairs[:, 1])
        for spec in TRANSPORT_SPECS:
            upd = UpdateableIndex(graph, scheme=scheme, seed=9, **params)
            with session(spec, upd) as client:
                report = client.apply_updates(changes)
                assert report.mode == twin_report.mode, spec
                assert report.epoch == twin_report.epoch, spec
                assert client.epoch == twin_report.epoch, spec
                got = client.dist_many(pairs)
                assert got.tolist() == want.tolist(), spec

    def test_query_error_parity_on_disconnected(self):
        from repro.slack.density_net import DensityNet
        from repro.slack.stretch3 import build_stretch3_centralized

        # components {0, 1} and {2, 3, 4}; net only in the big one, so
        # any pair touching {0, 1} raises — on every transport, with
        # the single-pair path's own message
        g = Graph(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 4, 2.0)])
        net = DensityNet(eps=0.5, n=g.n, members=(2,))
        sketches, _ = build_stretch3_centralized(g, 0.5, net=net)
        ok = np.array([[2, 3], [3, 4], [2, 4]])
        want = [sketches[u].estimate_to(sketches[v]) for u, v in ok]
        for spec in TRANSPORT_SPECS:
            with session(spec, sketches) as client:
                assert client.dist_many(ok).tolist() == want, spec
                with pytest.raises(QueryError, match="share no net node"):
                    client.dist_many(np.array([[0, 2]]))
                # the session survives the error and keeps answering
                assert client.dist_many(ok).tolist() == want, spec

    def test_stats_report_the_execution_plane(self, builds):
        # how a batch runs is the engine's decision, so no stats key
        # names it; a sketch source is indexed with one shard, a
        # pre-built store keeps its own
        with session("inproc://", builds["tz"]) as client:
            stats = client.stats()
            assert stats["shards"] == 1
            assert {"jobs", "pool", "memory"}.isdisjoint(stats)
        from repro.service import build_index

        index = build_index(builds["tz"].sketches, num_shards=2)
        with session("inproc://", index) as client:
            stats = client.stats()
            assert stats["shards"] == 2 and "jobs" not in stats

    def test_static_session_rejects_updates(self, builds):
        from repro.service import EdgeChange

        for spec in TRANSPORT_SPECS:
            with session(spec, builds["tz"]) as client:
                with pytest.raises(ConfigError,
                                   match="hosts a static one.*--updateable"):
                    client.apply_updates([EdgeChange("set", 0, 1, 2.0)])


# ----------------------------------------------------------------------
# the TCP frame protocol details
# ----------------------------------------------------------------------
class TestTcpProtocol:
    def test_epoch_bump_pushes_to_other_clients(self, graph):
        upd = UpdateableIndex(graph, scheme="tz", seed=9, k=2)
        with OracleServer(upd, cache_size=0) as server:
            host, port = server.serve("127.0.0.1:0", block=False)
            with connect(f"tcp://{host}:{port}") as writer, \
                    connect(f"tcp://{host}:{port}") as watcher:
                pairs = sample_query_pairs(graph.n, 100, seed=4)
                before = watcher.dist_many(pairs)
                changes = sample_weight_changes(graph, 3, seed=55,
                                                low=0.2, high=0.6)
                report = writer.apply_updates(changes)
                assert report.epoch == 1
                # no reconnect: the same watcher session serves the new
                # epoch and learns the bump from the pushed frame
                after = watcher.dist_many(pairs)
                want = upd.index.estimate_many(pairs[:, 0], pairs[:, 1])
                assert after.tolist() == want.tolist()
                assert watcher.epoch == 1
                assert before.tolist() != after.tolist()

    def test_fetch_index_is_the_binary_container(self, builds, tmp_path):
        built = builds["tz"]
        with session("tcp", built) as client:
            path = tmp_path / "fetched.rpix"
            store = client.fetch_index(str(path))
            # byte-identical to what save_index_binary writes locally
            from repro.oracle.serialization import index_binary_bytes
            from repro.service import build_index

            local = build_index(built.sketches, num_shards=1)
            assert path.read_bytes() == index_binary_bytes(local)
            pairs = sample_query_pairs(client.n, 100, seed=8)
            assert np.array_equal(
                store.estimate_many(pairs[:, 0], pairs[:, 1]),
                local.estimate_many(pairs[:, 0], pairs[:, 1]))
            del store  # release the mapping before tmp_path vanishes

    def test_stats_and_hello_describe_the_server(self, builds):
        with session("tcp", builds["cdg"]) as client:
            stats = client.stats()
            assert stats["transport"] == "tcp"
            assert stats["scheme"] == "cdg" and stats["n"] == client.n
            assert stats["connections"] >= 1
            assert "phases" in stats and "cache" in stats

    def test_connect_refused_fails_cleanly(self):
        # a port nothing listens on (bound but not accepting: closed)
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        with pytest.raises(ConfigError, match="cannot connect"):
            connect(f"tcp://127.0.0.1:{port}", timeout=2.0)

    def test_serve_rejects_bad_listen_address(self, builds):
        with OracleServer(builds["tz"].sketches) as server:
            for bad in ("127.0.0.1:99999", "127.0.0.1:-1", "noport"):
                with pytest.raises(ConfigError, match="listen address"):
                    server.serve(bad, block=False)

    def test_server_rejects_conflicting_shard_count(self, builds):
        from repro.service import build_index

        index = build_index(builds["tz"].sketches, num_shards=3)
        with pytest.raises(ConfigError, match="bakes its shard layout"):
            OracleServer(index, num_shards=5)


# ----------------------------------------------------------------------
# the wire codec
# ----------------------------------------------------------------------
class TestTreeWireCodec:
    @pytest.mark.parametrize("tree", [
        np.arange(6, dtype=np.int64).reshape(3, 2),
        (np.arange(4.0), np.array([], dtype=np.int32)),
        ((np.array([1.5]), np.arange(3)), (np.zeros((2, 2)),)),
        np.empty(0, dtype=np.float64),
    ], ids=["array", "pair", "nested", "empty"])
    def test_round_trip(self, tree):
        def flat(node):
            if isinstance(node, tuple):
                return [leaf for child in node for leaf in flat(child)]
            return [node]

        back = tree_from_bytes(tree_to_bytes(tree))
        for a, b in zip(flat(tree), flat(back)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
            assert not b.flags.writeable  # views over the wire buffer

    def test_truncated_message_fails_loudly(self):
        blob = tree_to_bytes(np.arange(10))
        with pytest.raises(ConfigError):
            tree_from_bytes(blob[:3])


# ----------------------------------------------------------------------
# deprecation hygiene
# ----------------------------------------------------------------------
class TestDeprecationShims:
    def test_connect_paths_do_not_warn(self, builds):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with connect("inproc://", builds["tz"], cache_size=0) as c:
                c.dist(0, 1)
            builds["tz"].query_many([(0, 1)])


# ----------------------------------------------------------------------
# ISSUE 5 acceptance: a live `python -m repro serve` process
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served_files(tmp_path_factory, graph, builds):
    from repro.graphs import write_edgelist
    from repro.oracle.serialization import save_index_binary
    from repro.service import build_index

    tmp = tmp_path_factory.mktemp("serve-acceptance")
    write_edgelist(graph, tmp / "net.edges")
    for name, built in builds.items():
        save_index_binary(build_index(built.sketches), tmp / f"{name}.rpix")
    return tmp


class TestLiveServeProcess:
    """connect("tcp://…") against `python -m repro serve` — the
    acceptance criterion, all four schemes."""

    @pytest.mark.parametrize("scheme", sorted(SCHEME_PARAMS))
    def test_tcp_equals_inproc_for_every_scheme(self, served_files,
                                                builds, scheme):
        pairs = sample_query_pairs(builds[scheme].graph.n, 200, seed=3)
        with served_subprocess(served_files / f"{scheme}.rpix") as addr, \
                connect(addr) as remote, \
                connect("inproc://", builds[scheme], cache_size=0) as local:
            assert remote.scheme == scheme
            assert remote.dist_many(pairs).tolist() == \
                local.dist_many(pairs).tolist()

    def test_mmap_rpix_with_shard_threads_over_live_tcp(self, served_files,
                                                        builds):
        """``serve idx.rpix --memory mmap``: the container is opened
        memory-mapped, and the bytes equal an inproc session's — for a
        bulk batch too, which the daemon cuts into pair ranges on a
        host with two CPUs or more."""
        from repro.oracle.serialization import save_index_binary
        from repro.service import build_index

        built = builds["stretch3"]
        save_index_binary(build_index(built.sketches, num_shards=2),
                          str(served_files / "s3.rpix"))
        pairs = sample_query_pairs(built.graph.n, 200, seed=3)
        bulk = sample_query_pairs(built.graph.n, BULK, seed=4)
        with served_subprocess(served_files / "s3.rpix", "--memory", "mmap",
                               "--cache-size", "0") as addr, \
                connect(addr) as remote, \
                connect("inproc://cache=0", built) as local:
            stats = remote.stats()
            assert stats["shards"] == 2 and "jobs" not in stats
            assert remote.dist_many(pairs).tolist() == \
                local.dist_many(pairs).tolist()
            assert remote.dist_many(bulk).tobytes() == \
                local.dist_many(bulk).tobytes()

    def test_hot_swap_propagates_over_live_tcp(self, served_files, graph):
        # an inline twin of the served UpdateableIndex — same graph
        # file, same seed, so bit-identical epochs
        twin = UpdateableIndex(graph, scheme="tz", seed=9, k=2)
        changes = sample_weight_changes(graph, 3, seed=41, low=0.2,
                                        high=0.6)
        pairs = sample_query_pairs(graph.n, 150, seed=2)
        with served_subprocess(served_files / "net.edges", "--updateable",
                               "--scheme", "tz", "--k", "2",
                               "--seed", "9") as addr, \
                connect(addr) as watcher, connect(addr) as writer:
            before = watcher.dist_many(pairs)
            assert before.tolist() == twin.index.estimate_many(
                pairs[:, 0], pairs[:, 1]).tolist()
            report = writer.apply_updates(changes)
            twin_report = twin.apply(changes)
            assert (report.mode, report.epoch) == \
                (twin_report.mode, twin_report.epoch)
            # the watcher session — opened before the swap, never
            # reconnected — serves the new epoch
            after = watcher.dist_many(pairs)
            assert after.tolist() == twin.index.estimate_many(
                pairs[:, 0], pairs[:, 1]).tolist()
            assert watcher.epoch == report.epoch
            assert before.tolist() != after.tolist()


# ----------------------------------------------------------------------
# nightly: the tcp-loopback property profile
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestTcpLoopbackExhaustive:
    """Nightly-scale equivalence: random graphs, every ordered pair,
    served over tcp-loopback — scaled up by the nightly hypothesis
    profile like the other exhaustive suites."""

    def test_all_pairs_over_loopback(self):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        @st.composite
        def connected_graphs(draw, max_n=12):
            n = draw(st.integers(min_value=2, max_value=max_n))
            weights = st.integers(min_value=1, max_value=12)
            g = Graph(n)
            for v in range(1, n):
                u = draw(st.integers(min_value=0, max_value=v - 1))
                g.add_edge(u, v, float(draw(weights)))
            return g

        @settings(deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(g=connected_graphs(),
               seed=st.integers(min_value=0, max_value=10**6))
        def check(g, seed):
            built = build_sketches(g, scheme="tz", k=2, seed=seed)
            us, vs = np.meshgrid(np.arange(g.n), np.arange(g.n),
                                 indexing="ij")
            pairs = np.stack([us.ravel(), vs.ravel()], axis=1)
            ref = [built.query(int(u), int(v)) for u, v in pairs]
            with session("tcp", built) as client:
                assert client.dist_many(pairs).tolist() == ref

        check()
