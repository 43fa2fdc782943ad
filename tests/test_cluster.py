"""The fleet subsystem: shard fan-out serving and scatter/gather builds.

What is locked down here:

* the ``cluster://host:port,host:port`` endpoint grammar and the
  :class:`~repro.service.cluster.ClusterSpec` / ``even_ranges``
  placement layer,
* :func:`~repro.service.index.restrict_index_shards` — every scheme's
  restricted store answers identically on the shards it keeps, and
  restriction is idempotent byte-for-byte,
* **bit-identity**: a fleet of 2 and 4 shard-range hosts answers every
  scheme's ``dist_many`` and pipelined ``dist_stream`` exactly like one
  full host — including :class:`~repro.errors.QueryError` parity on
  disconnected graphs and post-``apply_updates`` epochs,
* typed :class:`~repro.errors.ClusterError` degradation: a dead host
  fails fast with the host named, survivors stay live, and a fresh
  session over a still-covering remnant keeps answering bitwise,
* distributed construction: :func:`build_distributed` blobs are
  byte-identical to restricting one full build of the same seed,
* the CLI surface: ``serve --port 0`` prints the bound address,
  ``build --shard-range`` writes a host slice, ``cluster-bench`` runs
  with identity asserted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ClusterError, ConfigError, QueryError
from repro.graphs import Graph, erdos_renyi, random_geometric
from repro.oracle.api import build_sketches
from repro.oracle.serialization import index_binary_bytes
from repro.service import (ClusterClient, ClusterSpec, OracleServer,
                           build_distributed,
                           build_index, build_shard_range, connect,
                           even_ranges, loopback_fleet,
                           restrict_index_shards, sample_query_pairs)
from repro.service.cluster import run_cluster_benchmark
from repro.service.client import parse_endpoint
from repro.service.updates import UpdateableIndex, sample_weight_changes

SHARDS = 4
SCHEME_PARAMS = {
    "tz": {"k": 3},
    "stretch3": {"eps": 0.4},
    "cdg": {"eps": 0.4, "k": 2},
    "graceful": {},
}


@pytest.fixture(scope="module")
def graph() -> Graph:
    return random_geometric(60, seed=808)


@pytest.fixture(scope="module")
def indexes(graph):
    return {scheme: build_index(
        build_sketches(graph, scheme, seed=9, **params).sketches,
        num_shards=SHARDS)
        for scheme, params in SCHEME_PARAMS.items()}


@pytest.fixture(scope="module")
def reference(graph, indexes):
    """Single-full-host answers per scheme — the identity baseline."""
    pairs = sample_query_pairs(graph.n, 150, seed=4)
    out = {}
    for scheme, index in indexes.items():
        with OracleServer(index) as server:
            host, port = server.serve("127.0.0.1:0", block=False)
            with connect(f"tcp://{host}:{port}") as session:
                out[scheme] = (pairs, session.dist_many(pairs))
    return out


# ----------------------------------------------------------------------
# grammar and placement
# ----------------------------------------------------------------------
class TestEndpointGrammar:
    def test_parse_cluster_endpoint(self):
        ep = parse_endpoint("cluster://a:1,b:2,c:3")
        assert ep.transport == "cluster"
        assert ep.options["hosts"] == (("a", 1), ("b", 2), ("c", 3))
        assert ep.describe() == "cluster://a:1,b:2,c:3"

    def test_trailing_semicolon_tolerated(self):
        ep = parse_endpoint("cluster://a:1,b:2;")
        assert ep.options["hosts"] == (("a", 1), ("b", 2))

    def test_empty_host_rejected(self):
        with pytest.raises(ConfigError):
            parse_endpoint("cluster://a:1,,b:2")
        with pytest.raises(ConfigError):
            parse_endpoint("cluster://")

    def test_cluster_spec_parse_forms(self):
        want = (("a", 1), ("b", 2))
        assert ClusterSpec.parse("cluster://a:1,b:2").hosts == want
        assert ClusterSpec.parse("a:1,b:2").hosts == want
        assert ClusterSpec.parse([("a", 1), ("b", 2)]).hosts == want
        assert ClusterSpec.parse("tcp://a:1").hosts == (("a", 1),)
        spec = ClusterSpec.parse(want)
        assert ClusterSpec.parse(spec) is spec
        assert spec.describe() == "cluster://a:1,b:2"

    def test_cluster_spec_rejects_junk(self):
        with pytest.raises(ConfigError):
            ClusterSpec.parse("inproc://")
        with pytest.raises(ConfigError):
            ClusterSpec.parse([])

    def test_even_ranges(self):
        assert even_ranges(8, 2) == [(0, 4), (4, 8)]
        assert even_ranges(7, 3) == [(0, 3), (3, 5), (5, 7)]
        assert even_ranges(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert even_ranges(5, 1) == [(0, 5)]
        with pytest.raises(ConfigError):
            even_ranges(2, 3)
        with pytest.raises(ConfigError):
            even_ranges(4, 0)


# ----------------------------------------------------------------------
# shard restriction
# ----------------------------------------------------------------------
class TestRestrictIndexShards:
    @pytest.mark.parametrize("scheme", sorted(SCHEME_PARAMS))
    def test_idempotent_and_full_range_identity(self, indexes, scheme):
        index = indexes[scheme]
        assert restrict_index_shards(index, 0, SHARDS) is index
        part = restrict_index_shards(index, 1, 3)
        again = restrict_index_shards(part, 1, 3)
        assert index_binary_bytes(part) == index_binary_bytes(again)

    @pytest.mark.parametrize("scheme", sorted(SCHEME_PARAMS))
    def test_restricted_shards_answer_identically(self, graph, indexes,
                                                  scheme):
        """For the shards it owns, the restricted store's responses —
        one shard at a time or the whole range in one pass — match the
        full store's byte for byte, absent probes included: the
        property the fleet combiner rests on."""
        index = indexes[scheme]
        pairs = sample_query_pairs(graph.n, 80, seed=12)
        _, requests = index.route(*index.plan(pairs[:, 0], pairs[:, 1]))
        assert len(requests) == SHARDS
        for lo, hi in [(0, 2), (1, 3), (3, 4)]:
            part = restrict_index_shards(index, lo, hi)
            owned = range(lo, hi)
            full = index.answer(owned, requests[lo:hi])
            assert _tree_equal(tuple(part.answer(owned, requests[lo:hi])),
                               tuple(full)), (scheme, lo, hi)
            for s, want in zip(owned, full):
                assert _tree_equal(part.shard_answer(s, requests[s]),
                                   want), (scheme, s)

    def test_bad_ranges_rejected(self, indexes):
        index = indexes["tz"]
        for lo, hi in [(-1, 2), (2, 2), (3, 2), (0, SHARDS + 1)]:
            with pytest.raises(ConfigError):
                restrict_index_shards(index, lo, hi)


def _tree_equal(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (isinstance(a, tuple) and isinstance(b, tuple)
                and len(a) == len(b)
                and all(_tree_equal(x, y) for x, y in zip(a, b)))
    return np.array_equal(np.asarray(a), np.asarray(b))


# ----------------------------------------------------------------------
# fleet bit-identity
# ----------------------------------------------------------------------
class TestFleetIdentity:
    @pytest.mark.parametrize("scheme", sorted(SCHEME_PARAMS))
    @pytest.mark.parametrize("num_hosts", [2, 4])
    def test_bit_identical_to_single_host(self, indexes, reference,
                                          scheme, num_hosts):
        pairs, want = reference[scheme]
        with loopback_fleet(indexes[scheme], num_hosts) as (spec, servers):
            assert len(servers) == num_hosts
            with connect(spec) as session:
                got = session.dist_many(pairs)
                assert got.tolist() == want.tolist()
                batches = [pairs[i:i + 40] for i in range(0, len(pairs), 40)]
                streamed = list(session.dist_stream(batches))
                assert np.concatenate(streamed).tolist() == want.tolist()
                # single-pair path and stats ride the same machinery
                u, v = int(pairs[0, 0]), int(pairs[0, 1])
                assert session.dist(u, v) == want[0]
                stats = session.stats()
                assert len(stats["hosts"]) == num_hosts
                assert stats["scheme"] == scheme

    def test_placement_covers_every_shard_once(self, indexes):
        with loopback_fleet(indexes["tz"], 2) as (spec, _servers):
            with ClusterClient(spec) as fleet:
                owned = sorted(s for shards in fleet.placement().values()
                               for s in shards)
                assert owned == list(range(SHARDS))

    def test_query_error_parity_on_disconnected(self):
        from repro.slack.density_net import DensityNet
        from repro.slack.stretch3 import build_stretch3_centralized

        # components {0, 1} and {2, 3, 4}; net only in the big one, so
        # any pair touching {0, 1} raises — with the single-host
        # message, and the fleet session survives to answer again
        g = Graph(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 4, 2.0)])
        net = DensityNet(eps=0.5, n=g.n, members=(2,))
        sketches, _ = build_stretch3_centralized(g, 0.5, net=net)
        index = build_index(sketches, num_shards=2)
        ok = np.array([[2, 3], [3, 4], [2, 4]])
        want = [sketches[u].estimate_to(sketches[v]) for u, v in ok]
        with loopback_fleet(index, 2) as (spec, _servers):
            with connect(spec) as session:
                assert session.dist_many(ok).tolist() == want
                with pytest.raises(QueryError, match="share no net node"):
                    session.dist_many(np.array([[0, 2]]))
                assert session.dist_many(ok).tolist() == want

    def test_range_host_refuses_whole_batch_queries(self, indexes):
        with loopback_fleet(indexes["tz"], 2) as (spec, servers):
            host, port = servers[0].address
            with connect(f"tcp://{host}:{port}") as direct:
                with pytest.raises(ConfigError, match="cluster://"):
                    direct.dist_many(np.array([[0, 1]]))

    def test_fetch_index_needs_a_full_host(self, indexes):
        index = indexes["tz"]
        with loopback_fleet(index, 2) as (spec, _servers):
            with ClusterClient(spec) as fleet:
                with pytest.raises(ConfigError, match="no.*whole index"):
                    fleet.fetch_index(None)
        with loopback_fleet(index, 1) as (spec, _servers):
            with ClusterClient(spec) as fleet:
                fetched = fleet.fetch_index(None)
                assert (index_binary_bytes(fetched)
                        == index_binary_bytes(index))


# ----------------------------------------------------------------------
# degradation: dead hosts are named, survivors keep serving
# ----------------------------------------------------------------------
class TestPartialFleetDegradation:
    def test_connect_to_dead_host_names_it(self, indexes):
        with loopback_fleet(indexes["tz"], 2) as (spec, servers):
            dead = f"{servers[1].address[0]}:{servers[1].address[1]}"
            servers[1].close()
            with pytest.raises(ClusterError, match=dead.replace(".", r"\.")):
                ClusterClient(spec)

    def test_kill_one_host_mid_stream(self, graph, indexes, reference):
        """Satellite 3: host A serves every shard, B and C split them.
        A owns all placement; killing A mid-``dist_stream`` raises a
        typed ClusterError naming A, B and C stay live, and a fresh
        session over the survivors answers bit-identically for the
        shards they own (all of them)."""
        index = indexes["tz"]
        pairs, want = reference["tz"]
        mid = SHARDS // 2
        a = OracleServer(index)
        b = OracleServer(index, shard_range=(0, mid))
        c = OracleServer(index, shard_range=(mid, SHARDS))
        try:
            for srv in (a, b, c):
                srv.serve("127.0.0.1:0", block=False)
            key = {srv: f"{srv.address[0]}:{srv.address[1]}"
                   for srv in (a, b, c)}
            spec = "cluster://" + ",".join(key[s] for s in (a, b, c))
            with ClusterClient(spec, pipeline_depth=1) as fleet:
                # A advertises [0, S) and is listed first: it owns all
                assert fleet.placement() == {key[a]: list(range(SHARDS))}
                batches = [pairs[:50], pairs[50:100], pairs[100:]]
                stream = fleet.dist_stream(iter(batches))
                assert next(stream).tolist() == want[:50].tolist()
                a.close()
                with pytest.raises(ClusterError) as err:
                    list(stream)
                assert key[a] in str(err.value)
                assert key[a] in err.value.causes
            # B and C survived and still cover every shard
            survivors = f"cluster://{key[b]},{key[c]}"
            with ClusterClient(survivors) as fleet:
                assert sorted(s for ss in fleet.placement().values()
                              for s in ss) == list(range(SHARDS))
                assert fleet.dist_many(pairs).tolist() == want.tolist()
        finally:
            for srv in (a, b, c):
                srv.close()

    def test_uncovered_shards_rejected_at_connect(self, indexes):
        index = indexes["tz"]
        a = OracleServer(index, shard_range=(0, 1))
        b = OracleServer(index, shard_range=(1, 2))
        try:
            for srv in (a, b):
                srv.serve("127.0.0.1:0", block=False)
            spec = "cluster://" + ",".join(
                f"{s.address[0]}:{s.address[1]}" for s in (a, b))
            with pytest.raises(ClusterError, match="no host serves"):
                ClusterClient(spec)
        finally:
            for srv in (a, b):
                srv.close()

    def test_mismatched_fleets_rejected(self, graph, indexes):
        other = build_index(
            build_sketches(graph, "tz", k=2, seed=1).sketches,
            num_shards=2)
        a = OracleServer(indexes["tz"])
        b = OracleServer(other)
        try:
            for srv in (a, b):
                srv.serve("127.0.0.1:0", block=False)
            spec = "cluster://" + ",".join(
                f"{s.address[0]}:{s.address[1]}" for s in (a, b))
            with pytest.raises(ClusterError, match="disagree"):
                ClusterClient(spec)
        finally:
            for srv in (a, b):
                srv.close()


# ----------------------------------------------------------------------
# updates across the fleet
# ----------------------------------------------------------------------
class TestFleetUpdates:
    @pytest.fixture()
    def updateable_fleet(self, graph):
        def factory(i, lo, hi):
            return UpdateableIndex(graph, scheme="tz", seed=9,
                                   num_shards=SHARDS, k=3)

        with loopback_fleet(factory, 2, num_shards=SHARDS) as out:
            yield out

    def test_fleet_apply_updates_bit_identical(self, graph,
                                               updateable_fleet):
        spec, _servers = updateable_fleet
        changes = sample_weight_changes(graph, 3, seed=77, low=0.2,
                                        high=0.6)
        twin = UpdateableIndex(graph, scheme="tz", seed=9,
                               num_shards=SHARDS, k=3)
        twin_report = twin.apply(changes)
        pairs = sample_query_pairs(graph.n, 120, seed=5)
        want = twin.index.estimate_many(pairs[:, 0], pairs[:, 1])
        with connect(spec) as session:
            report = session.apply_updates(changes)
            assert report.mode == twin_report.mode
            assert report.epoch == twin_report.epoch
            assert session.epoch == twin_report.epoch
            assert session.dist_many(pairs).tolist() == want.tolist()

    def test_stale_session_replans_after_foreign_apply(self, graph,
                                                       updateable_fleet):
        """A session whose routing store predates another session's
        apply must notice the epoch disagreement in the probe replies,
        refresh, and answer from the new epoch — never combine mixed
        partials."""
        spec, _servers = updateable_fleet
        changes = sample_weight_changes(graph, 3, seed=78, low=0.2,
                                        high=0.6)
        twin = UpdateableIndex(graph, scheme="tz", seed=9,
                               num_shards=SHARDS, k=3)
        twin.apply(changes)
        pairs = sample_query_pairs(graph.n, 100, seed=6)
        want = twin.index.estimate_many(pairs[:, 0], pairs[:, 1])
        with connect(spec) as stale, connect(spec) as writer:
            before = stale.dist_many(pairs)  # pins the old router
            report = writer.apply_updates(changes)
            got = stale.dist_many(pairs)
            assert got.tolist() == want.tolist()
            assert stale.last_result_epoch == report.epoch
            assert not np.array_equal(before, got) or report.mode == "noop"

    def test_scenario_oracle_over_a_fleet(self, graph):
        """The churn scenario runner drives a cluster:// endpoint
        unchanged: churn scatters through the fleet, reader sessions
        race the writer, and the oracle asserts every consumed answer
        is bit-identical to a legally observable epoch."""
        from repro.service.scenario import run_named_scenario

        def factory(i, lo, hi):
            return UpdateableIndex(graph, scheme="tz", seed=9,
                                   num_shards=SHARDS, k=3)

        with loopback_fleet(factory, 2, num_shards=SHARDS) as (spec, _s):
            result = run_named_scenario(
                "steady-mix", graph, scheme="tz", seed=9,
                endpoint=spec, num_shards=SHARDS, rounds=3, k=3)
        assert result.ok, result.violations


# ----------------------------------------------------------------------
# distributed construction
# ----------------------------------------------------------------------
class TestDistributedBuild:
    @pytest.mark.parametrize("scheme", sorted(SCHEME_PARAMS))
    def test_blobs_byte_identical_to_restricted_full_build(self, graph,
                                                           scheme):
        params = SCHEME_PARAMS[scheme]
        full = build_index(
            build_sketches(graph, scheme, seed=11, **params).sketches,
            num_shards=SHARDS)
        blobs = build_distributed(graph, scheme, num_hosts=2,
                                  num_shards=SHARDS, seed=11, jobs=1,
                                  **params)
        assert [r for r, _ in blobs] == even_ranges(SHARDS, 2)
        for (lo, hi), blob in blobs:
            want = index_binary_bytes(restrict_index_shards(full, lo, hi))
            assert blob == want, (scheme, lo, hi)

    def test_process_pool_scatter_matches_serial(self, graph):
        serial = build_distributed(graph, "tz", num_hosts=2,
                                   num_shards=SHARDS, seed=11, jobs=1,
                                   k=3)
        pooled = build_distributed(graph, "tz", num_hosts=2,
                                   num_shards=SHARDS, seed=11, jobs=2,
                                   k=3)
        assert serial == pooled

    def test_blobs_serve_as_a_fleet(self, graph, reference, tmp_path):
        """The end-to-end loop: scatter the build, serve each blob as a
        shard-range host, and the fleet answers like the full index."""
        from repro.oracle.serialization import load_index_binary

        pairs, want = reference["tz"]
        blobs = build_distributed(graph, "tz", num_hosts=2,
                                  num_shards=SHARDS, seed=9, jobs=1, k=3)
        servers = []
        try:
            for (lo, hi), blob in blobs:
                path = tmp_path / f"host_{lo}_{hi}.rpix"
                path.write_bytes(blob)
                srv = OracleServer(load_index_binary(str(path)),
                                   shard_range=(lo, hi))
                srv.serve("127.0.0.1:0", block=False)
                servers.append(srv)
            spec = "cluster://" + ",".join(
                f"{s.address[0]}:{s.address[1]}" for s in servers)
            with connect(spec) as session:
                assert session.dist_many(pairs).tolist() == want.tolist()
        finally:
            for srv in servers:
                srv.close()

    @pytest.mark.parametrize("scheme", ["stretch3", "cdg", "graceful"])
    def test_scatter_shares_one_draw_without_a_seed(self, graph, scheme):
        """The artifacts are sampled once and shipped, for every scheme:
        handed the artifacts of seed 11, a seedless scatter gives the
        blobs of ``seed=11`` (serial and process-pool); handed nothing,
        its hosts still agree on the routing state every blob carries
        in full — they plan a batch into the same requests."""
        import pickle

        from repro.oracle.schemes import get_scheme
        from repro.oracle.serialization import load_index_bytes

        params = SCHEME_PARAMS[scheme]
        seeded = build_distributed(graph, scheme, num_hosts=2,
                                   num_shards=SHARDS, seed=11, jobs=1,
                                   **params)
        artifacts = get_scheme(scheme).sample(graph, 11, params)
        for jobs in (1, 2):
            assert build_distributed(graph, scheme, num_hosts=2,
                                     num_shards=SHARDS, seed=None,
                                     jobs=jobs, **artifacts) == seeded
        pairs = sample_query_pairs(graph.n, 64, seed=2)
        blobs = build_distributed(graph, scheme, num_hosts=2,
                                  num_shards=SHARDS, seed=None, jobs=1,
                                  **params)
        stores = [load_index_bytes(blob) for _, blob in blobs]
        routing = {pickle.dumps((store.plan(pairs[:, 0], pairs[:, 1])[1],
                                 store.pack_arrays().get("net_ids")))
                   for store in stores}
        assert len(routing) == 1

    def test_build_shard_range_validates(self, graph):
        with pytest.raises(ConfigError):
            build_shard_range(graph, "tz", lo=2, hi=2, num_shards=4, k=2)
        with pytest.raises(ConfigError, match="needs k"):
            build_shard_range(graph, "tz", lo=0, hi=1, num_shards=4)

    def test_build_shard_range_refuses_what_a_build_refuses(self, graph):
        """A keyword the scheme does not read is refused with the
        message ``build_sketches`` gives, here and through the scatter
        built on it."""
        with pytest.raises(ConfigError) as want:
            build_sketches(graph, "tz", seed=1, k=2, epsilon=0.3)
        with pytest.raises(ConfigError) as got:
            build_shard_range(graph, "tz", lo=0, hi=1, num_shards=2,
                              seed=1, k=2, epsilon=0.3)
        assert str(got.value) == str(want.value)
        with pytest.raises(ConfigError) as scattered:
            build_distributed(graph, "tz", num_hosts=2, num_shards=2,
                              seed=1, jobs=1, k=2, epsilon=0.3)
        assert str(scattered.value) == str(want.value)


# ----------------------------------------------------------------------
# the benchmark harness is itself the correctness oracle
# ----------------------------------------------------------------------
def test_run_cluster_benchmark_small(graph, indexes):
    report = run_cluster_benchmark(indexes["tz"], hosts=(1, 2),
                                   queries=120, batch=40, seed=3)
    assert [r["hosts"] for r in report["rows"]] == [0, 1, 2]
    assert all(r["identical"] for r in report["rows"])
    assert report["num_shards"] == SHARDS


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestClusterCli:
    @pytest.fixture(scope="class")
    def graph_file(self, tmp_path_factory):
        from repro.graphs import write_edgelist

        path = tmp_path_factory.mktemp("fleet") / "g.edges"
        write_edgelist(erdos_renyi(40, seed=101), str(path))
        return str(path)

    @pytest.fixture(scope="class")
    def index_file(self, graph_file, tmp_path_factory):
        from repro.cli import main

        path = tmp_path_factory.mktemp("fleet") / "idx.rpix"
        rc = main(["build", graph_file, "--scheme", "tz", "--k", "2",
                   "--seed", "5", "--format", "binary", "--shards", "4",
                   "-o", str(path)])
        assert rc == 0
        return str(path)

    def test_build_shard_range_slice(self, graph_file, index_file,
                                     tmp_path, capsys):
        from repro.cli import main
        from repro.oracle.serialization import load_index_binary

        out = tmp_path / "slice.rpix"
        rc = main(["build", graph_file, "--scheme", "tz", "--k", "2",
                   "--seed", "5", "--format", "binary", "--shards", "4",
                   "--shard-range", "0:2", "-o", str(out)])
        assert rc == 0
        assert "shard range [0:2)" in capsys.readouterr().out
        full = load_index_binary(index_file)
        assert (out.read_bytes()
                == index_binary_bytes(restrict_index_shards(full, 0, 2)))

    def test_build_shard_range_needs_binary(self, graph_file, tmp_path,
                                            capsys):
        from repro.cli import main

        rc = main(["build", graph_file, "--scheme", "tz", "--k", "2",
                   "--shard-range", "0:1",
                   "-o", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "--format binary" in capsys.readouterr().err

    def test_serve_port_zero_prints_bound_address(self, index_file):
        """Satellite 1: ``--port 0`` binds a free port and prints the
        actual ``tcp://host:port`` on stdout before serving."""
        import os
        import subprocess
        import sys
        import time
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", index_file,
             "--port", "0", "--shard-range", "0:2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        try:
            deadline = time.monotonic() + 60
            line = ""
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if " on tcp://" in line or not line:
                    break
            assert " on tcp://" in line, line
            assert "range=[0:2)" in line
            addr = line.rsplit(" on ", 1)[1].strip()
            assert not addr.endswith(":0")
            # the advertised socket answers probes for its range
            from repro.service.client import _TcpTransport

            t = _TcpTransport(parse_endpoint(addr), timeout=10)
            try:
                assert t.shard_range == (0, 2)
            finally:
                t.close()
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_cluster_bench_cli(self, index_file, capsys):
        import json

        from repro.cli import main

        rc = main(["cluster-bench", index_file, "--hosts", "1", "2",
                   "--queries", "80", "--batch", "40"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["hosts"] for r in report["rows"]] == [0, 1, 2]
        assert all(r["identical"] for r in report["rows"])

    def test_query_connect_cluster(self, index_file, capsys):
        from repro.cli import main
        from repro.oracle.serialization import load_index_binary

        index = load_index_binary(index_file)
        with loopback_fleet(index, 2) as (spec, _servers):
            rc = main(["query", "--connect", spec,
                       "--pairs", "0:1", "3:7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0:1 estimate=" in out and "3:7 estimate=" in out
