"""The command-line interface (repro.cli)."""

import json
import re

import pytest

from repro.cli import main
from repro.graphs import read_edgelist


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "net.edges"
    rc = main(["gen", "--family", "er", "--n", "32", "--weights", "uniform",
               "--seed", "1", "-o", str(path)])
    assert rc == 0
    return path


@pytest.fixture()
def index_file(tmp_path, graph_file):
    path = tmp_path / "idx.rpix"
    rc = main(["build", str(graph_file), "--scheme", "tz", "--k", "2",
               "--seed", "3", "-o", str(path)])
    assert rc == 0
    return path


class TestGen:
    def test_writes_connected_graph(self, graph_file):
        g = read_edgelist(graph_file)
        assert g.n == 32 and g.is_connected()

    def test_weight_schemes(self, tmp_path):
        path = tmp_path / "w.edges"
        main(["gen", "--family", "ring", "--n", "12", "--weights",
              "exponential", "--seed", "2", "-o", str(path)])
        g = read_edgelist(path)
        assert any(w > 1.0 for _, _, w in g.edges())

    def test_families(self, tmp_path):
        for fam in ("ba", "geo", "grid", "ring", "star_path"):
            path = tmp_path / f"{fam}.edges"
            rc = main(["gen", "--family", fam, "--n", "20", "--seed", "4",
                       "-o", str(path)])
            assert rc == 0
            assert read_edgelist(path).is_connected()


class TestStats:
    def test_json_report(self, graph_file, capsys):
        assert main(["stats", str(graph_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 32
        assert report["shortest_path_diameter"] >= report["hop_diameter"]


class TestBuild:
    def test_build_writes_sketches(self, capsys, tmp_path, index_file,
                                   graph_file):
        from repro.oracle.serialization import load_index_binary

        store = load_index_binary(index_file)
        assert store.n == 32
        # one RPIX file and nothing else
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "idx.rpix", "net.edges"]
        # a centralized build says where its time went, one line
        out = capsys.readouterr().out
        assert re.search(
            r"^built in [\d.]+ s — pivots [\d.]+ s, clusters [\d.]+ s "
            rf"\({store.nnz()} bunch entries, \d+ frontier rounds\), "
            r"assemble [\d.]+ s$", out, re.M)
        assert out.endswith(f"wrote a binary TZIndex ({store.nnz()} "
                            f"entries, 1 shards) to {index_file}\n")

    def test_distributed_build_reports_cost(self, tmp_path, graph_file,
                                            capsys):
        path = tmp_path / "d.rpix"
        rc = main(["build", str(graph_file), "--scheme", "tz", "--k", "2",
                   "--mode", "distributed", "--seed", "3", "-o", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        # the paper's cost next to the engine's, then one line per phase
        assert re.search(
            r"^cost: \d+ rounds, \d+ messages, \d+ words \(max \d+ in "
            r"flight\); simulated in [\d.]+ s — [\d.]+ µs/message, "
            r"\d+ wake-ups$", out, re.M)
        assert re.findall(r"^  (phase-\d): \d+ rounds, \d+ messages, "
                          r"\d+ words$", out, re.M) == ["phase-1", "phase-0"]

    def test_slack_scheme(self, tmp_path, graph_file):
        path = tmp_path / "s3.rpix"
        rc = main(["build", str(graph_file), "--scheme", "stretch3",
                   "--eps", "0.3", "--seed", "5", "-o", str(path)])
        assert rc == 0

    @pytest.mark.parametrize("sync", [[], ["--sync", "oracle"],
                                      ["--sync", "echo"]])
    def test_s_without_known_smax_is_refused(self, tmp_path, graph_file,
                                             capsys, sync):
        path = tmp_path / "x.rpix"
        rc = main(["build", str(graph_file), "--scheme", "tz", "--k", "2",
                   "--mode", "distributed", *sync, "--S", "4",
                   "-o", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "only with sync='known_smax'" in err
        assert not path.exists()

    def test_missing_params_fail_cleanly(self, tmp_path, graph_file, capsys):
        path = tmp_path / "x.rpix"
        rc = main(["build", str(graph_file), "--scheme", "tz",
                   "-o", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestQuery:
    def test_query_pairs(self, graph_file, index_file, capsys):
        rc = main(["query", str(graph_file), str(index_file),
                   "--pairs", "0:31", "5:9"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("0:31 estimate=")

    def test_query_with_exact(self, graph_file, index_file, capsys):
        rc = main(["query", str(graph_file), str(index_file), "--exact",
                   "--pairs", "0:31"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exact=" in out and "stretch=" in out

    def test_bad_pair_syntax(self, graph_file, index_file, capsys):
        rc = main(["query", str(graph_file), str(index_file),
                   "--pairs", "0-31"])
        assert rc == 2

    @pytest.mark.parametrize("pair", ["-1:5", "32:5"],
                             ids=["negative", "equal-n"])
    def test_out_of_range_id_is_a_usage_error(self, graph_file,
                                              index_file, pair, capsys):
        """A local query range-checks its ids the way a session does:
        no answer for Python's negative index, no IndexError traceback."""
        rc = main(["query", str(graph_file), str(index_file), "--exact",
                   f"--pairs={pair}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: node id out of range [0, 32)\n"


class TestEval:
    def test_stretch_report(self, graph_file, index_file, capsys):
        rc = main(["eval", str(graph_file), str(index_file)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["underestimates"] == 0
        assert 1.0 <= report["max_stretch"] <= 3.0  # k=2 bound

    def test_eps_filter(self, graph_file, index_file, capsys):
        rc = main(["eval", str(graph_file), str(index_file),
                   "--eps", "0.5", "--max-pairs", "100"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pairs"] <= 100

    def test_mismatched_sketch_set(self, tmp_path, graph_file, index_file,
                                   capsys):
        other = tmp_path / "small.edges"
        main(["gen", "--family", "ring", "--n", "5", "-o", str(other)])
        rc = main(["eval", str(other), str(index_file)])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: 32 sketches for a 5-node graph\n"


class TestBuildJobs:
    """``build`` takes no ``--jobs``: the process fan-out is gone (and
    no command takes one: the serving engine cuts its own batches)."""

    def test_jobs_rejected_for_tz(self, tmp_path, graph_file, capsys):
        with pytest.raises(SystemExit) as usage:
            main(["build", str(graph_file), "--scheme", "tz", "--k", "2",
                  "--jobs", "2", "-o", str(tmp_path / "x.rpix")])
        assert usage.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_rejected_for_slack_scheme(self, tmp_path, graph_file,
                                            capsys):
        with pytest.raises(SystemExit) as usage:
            main(["build", str(graph_file), "--scheme", "stretch3",
                  "--eps", "0.3", "--jobs", "2",
                  "-o", str(tmp_path / "x.rpix")])
        assert usage.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestConnectFlows:
    """`query --connect` against a live transport endpoint (the `serve`
    daemon itself is exercised end-to-end in
    tests/test_service_transport.py)."""

    @pytest.fixture()
    def live_server(self, index_file):
        from repro.oracle.serialization import load_index_binary
        from repro.service.server import OracleServer

        server = OracleServer(load_index_binary(index_file), cache_size=0)
        host, port = server.serve("127.0.0.1:0", block=False)
        try:
            yield f"tcp://{host}:{port}", server
        finally:
            server.close()

    def test_query_connect(self, live_server, index_file, capsys):
        spec, server = live_server
        rc = main(["query", "--connect", spec, "--pairs", "0:31", "5:9"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and lines[0].startswith("0:31 estimate=")

    def test_query_connect_rejects_sketch_file_too(self, live_server,
                                                   graph_file, index_file,
                                                   capsys):
        spec, _ = live_server
        rc = main(["query", str(graph_file), str(index_file),
                   "--connect", spec, "--pairs", "0:1"])
        assert rc == 2
        assert "server owns the index" in capsys.readouterr().err

    def test_query_connect_exact_out_of_range(self, live_server, graph_file,
                                              monkeypatch, capsys):
        """An id outside GRAPH fails the ``--exact`` check with the local
        query's message, and the connection is closed anyway."""
        import repro.service.client as client_mod

        spec, _ = live_server
        opened, closed = [], []
        connect = client_mod.connect

        def recording(*args, **kwargs):
            client = connect(*args, **kwargs)
            close = client.close
            client.close = lambda: (closed.append(client), close())
            opened.append(client)
            return client

        monkeypatch.setattr(client_mod, "connect", recording)
        rc = main(["query", str(graph_file), "--connect", spec, "--exact",
                   "--pairs", "0:1", "32:5"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: node id out of range [0, 32)\n"
        assert len(opened) == 1 and closed == opened

    def test_query_without_files_or_connect(self, capsys):
        rc = main(["query", "--pairs", "0:1"])
        assert rc == 2
        assert "--connect" in capsys.readouterr().err

    @pytest.mark.parametrize("served", [
        "sketches", "sketches-shards2", "sketches-shards3-cache64",
        "rpix-heap", "rpix-mmap", "stretch3"])
    def test_served_answers_equal_local_query(self, served, tmp_path,
                                              graph_file, index_file,
                                              capsys):
        """Whatever the server holds — the build's sketches at any shard
        count and cache size, an RPIX opened on the heap or mapped, a
        slack scheme's sketches — ``query --connect`` prints exactly
        what a local ``query`` of the built RPIX prints, and the session
        names the layout it serves and no thread count."""
        from repro.oracle.api import build_sketches
        from repro.oracle.serialization import (load_index_binary,
                                                save_index_binary)
        from repro.service import build_index
        from repro.service.client import connect
        from repro.service.server import OracleServer

        scheme, cache, params = "tz", 0, {"k": 2, "seed": 3}
        if served == "stretch3":
            scheme, params = "stretch3", {"eps": 0.3, "seed": 5}
            index_file = tmp_path / "s3.rpix"
            assert main(["build", str(graph_file), "--scheme", "stretch3",
                         "--eps", "0.3", "--seed", "5",
                         "-o", str(index_file)]) == 0
        if served.startswith("rpix"):
            # a two-shard container, written through the Python API
            path = tmp_path / "idx2.rpix"
            save_index_binary(build_index(build_sketches(
                read_edgelist(graph_file), scheme, **params).sketches,
                num_shards=2), path)
            source = load_index_binary(path, backing=served[len("rpix-"):])
            server = OracleServer(source, cache_size=cache)
            shards = 2  # baked into the container
        else:
            shards = {"sketches-shards2": 2,
                      "sketches-shards3-cache64": 3}.get(served, 1)
            cache = 64 if served.endswith("cache64") else 0
            built = build_sketches(read_edgelist(graph_file), scheme,
                                   **params)
            server = OracleServer(list(built.sketches), num_shards=shards,
                                  cache_size=cache)
        capsys.readouterr()
        pairs = [f"{u}:{(7 * u + 5) % 32}" for u in range(32)] + ["9:9"]
        pairs += pairs[:8]  # repeats: a cache, if any, answers these
        assert main(["query", str(graph_file), str(index_file),
                     "--pairs", *pairs]) == 0
        local = capsys.readouterr().out
        host, port = server.serve("127.0.0.1:0", block=False)
        try:
            spec = f"tcp://{host}:{port}"
            assert main(["query", "--connect", spec, "--pairs", *pairs]) == 0
            assert capsys.readouterr().out == local
            client = connect(spec)
            try:
                stats = client.stats()
            finally:
                client.close()
        finally:
            server.close()
        assert len(local.splitlines()) == len(pairs)
        assert stats["transport"] == "tcp" and stats["scheme"] == scheme
        assert stats["shards"] == shards and stats["cache_size"] == cache
        assert "jobs" not in stats
        assert (stats["cache"]["hits"] > 0) == (cache > 0)


#: one small parameter set per scheme: what ``build`` is given as flags
SCHEME_FLAGS = {
    "tz": {"k": 2, "seed": 3},
    "stretch3": {"eps": 0.3, "seed": 5},
    "cdg": {"eps": 0.3, "k": 2, "seed": 7},
    "graceful": {"seed": 9},
}


@pytest.mark.parametrize("scheme", sorted(SCHEME_FLAGS))
def test_local_query_answers_as_the_two_sketches_do(scheme, tmp_path,
                                                    graph_file, capsys):
    """``query GRAPH idx.rpix`` answers through the store, and prints for
    every ordered pair what the paper's two-sketch query of the same
    seeded build gives (``estimate_to``); an id outside the graph is a
    usage error after the pairs before it were answered."""
    from repro.oracle.api import build_sketches

    flags = SCHEME_FLAGS[scheme]
    path = tmp_path / f"{scheme}.rpix"
    argv = [f"--{name}={value}" for name, value in flags.items()]
    assert main(["build", str(graph_file), "--scheme", scheme, *argv,
                 "-o", str(path)]) == 0
    sketches = build_sketches(read_edgelist(graph_file), scheme,
                              **flags).sketches
    pairs = [(u, v) for u in range(32) for v in range(32)]
    want = "".join(f"{u}:{v} estimate="
                   f"{sketches[u].estimate_to(sketches[v]):g}\n"
                   for u, v in pairs)
    capsys.readouterr()
    assert main(["query", str(graph_file), str(path),
                 "--pairs", *(f"{u}:{v}" for u, v in pairs)]) == 0
    assert capsys.readouterr().out == want
    assert main(["query", str(graph_file), str(path),
                 "--pairs", "0:1", "3:32", "1:0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == want.splitlines(keepends=True)[1]
    assert captured.err == "error: node id out of range [0, 32)\n"


class TestSchemesCommand:
    def test_json_matrix(self, capsys):
        assert main(["schemes"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["scheme"] for r in rows} == {"tz", "stretch3", "cdg",
                                               "graceful"}
        # every transport hosts every scheme
        assert all(r["transports"] == ["inproc", "tcp"]
                   for r in rows)

    def test_markdown_matrix_matches_registry(self, capsys):
        from repro.oracle.schemes import SCHEMES, schemes_markdown

        assert main(["schemes", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == schemes_markdown()
        for name in SCHEMES:
            assert f"`{name}`" in out


class TestBuildFormatAndMemoryPlane:
    @pytest.fixture()
    def binary_index_file(self, tmp_path, graph_file):
        path = tmp_path / "idx.rpix"
        rc = main(["build", str(graph_file), "--scheme", "tz", "--k", "2",
                   "--seed", "3", "-o", str(path)])
        assert rc == 0
        return path

    def test_build_index_matches_an_in_process_build(self,
                                                     binary_index_file,
                                                     graph_file):
        from repro.oracle.api import build_sketches
        from repro.oracle.serialization import load_index_binary
        from repro.service import build_index

        from_cli = load_index_binary(binary_index_file)
        built = build_sketches(read_edgelist(graph_file), "tz", k=2, seed=3)
        assert from_cli == build_index(built.sketches)
        assert from_cli.num_shards == 1

    @pytest.mark.parametrize("scheme", sorted(SCHEME_FLAGS))
    def test_build_applies_updates(self, tmp_path, graph_file, scheme,
                                   capsys):
        """``--apply-updates`` works for every scheme (stretch3 repairs,
        the others rebuild): the written index is the one a build of
        the mutated graph with the same seed gives."""
        from repro.oracle.api import build_sketches
        from repro.oracle.serialization import load_index_binary
        from repro.service import build_index
        from repro.service.updates import (sample_weight_changes,
                                           save_changes_jsonl)

        g = read_edgelist(graph_file)
        changes = sample_weight_changes(g, 3, seed=8, low=0.2, high=0.6)
        save_changes_jsonl(changes, tmp_path / "changes.jsonl")
        path = tmp_path / f"{scheme}.rpix"
        flags = SCHEME_FLAGS[scheme]
        rc = main(["build", str(graph_file), "--scheme", scheme,
                   *(f"--{name}={value}" for name, value in flags.items()),
                   "--apply-updates", str(tmp_path / "changes.jsonl"),
                   "-o", str(path)])
        assert rc == 0
        assert "applied 3 changes" in capsys.readouterr().out
        for c in changes:
            g.set_weight(c.u, c.v, c.weight)
        assert load_index_binary(path) == build_index(
            build_sketches(g, scheme, **flags).sketches)

    @pytest.mark.parametrize("argv", [
        ["--pool", "thread"],      # not an option
        ["--memory", "shared"],    # not a choice
        ["--jobs", "2"],           # the engine decides how a batch runs
        ["--rebuild-threshold", "0.5"],  # a scheme repairs or rebuilds
        ["--format", "json"],      # RPIX is the one sketch file
        ["--format", "binary"],
        ["--shards", "2"],         # a layout no answer or cost depends on
    ], ids=["pool", "shared", "jobs", "rebuild-threshold", "format-json",
            "format-binary", "shards"])
    @pytest.mark.parametrize("command", ["serve", "serve-bench", "build"])
    def test_deleted_flags_are_usage_errors(self, tmp_path, index_file,
                                            command, argv, capsys):
        output = tmp_path / "out.rpix"
        with pytest.raises(SystemExit) as exc:
            main([command, str(index_file), *argv, "-o", str(output)]
                 if command == "build" else [command, str(index_file), *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        # a command that exists names the flag it refuses
        assert command == "serve-bench" or argv[0] in err
        assert not output.exists()

    @pytest.mark.parametrize("command", ["serve-bench", "update-bench",
                                         "scenario"],
                             ids=["serve", "update", "scenario"])
    def test_deleted_commands_are_usage_errors(self, index_file, command,
                                               capsys):
        """Serving speed is measured by ``bench/run.py``: the
        ``<verb>-bench`` subcommands are unknown commands.  So is
        ``scenario``: the churn replay lives in the test suite."""
        with pytest.raises(SystemExit) as exc:
            main([command, str(index_file)])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_serve_mmap_wants_a_binary_index(self, graph_file, capsys):
        """The ``--updateable`` form serves a graph, which ``--memory
        mmap`` cannot map: the error names the command that writes a
        container."""
        rc = main(["serve", str(graph_file), "--updateable", "--scheme",
                   "tz", "--memory", "mmap"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--memory mmap" in err and "repro build" in err

    @pytest.mark.parametrize("argv, addr, port", [
        (["--port", "99999"], "127.0.0.1:99999", "99999"),
        (["--addr", "127.0.0.1:-5"], "127.0.0.1:-5", "-5"),
    ], ids=["port", "addr"])
    def test_serve_names_a_port_out_of_range(self, index_file, argv, addr,
                                             port, capsys):
        """A well-formed listen address whose port is out of range is
        refused for its port, not for its form."""
        rc = main(["serve", str(index_file), *argv])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: listen address {addr!r}: port "
                                f"{port} is outside [0, 65535]\n")

    @pytest.mark.parametrize("argv", [
        ["serve", "{sk}", "--port", "0"],
        ["serve", "{sk}", "--port", "0", "--memory", "mmap"],
        ["query", "{graph}", "{sk}", "--pairs", "0:1"],
        ["eval", "{graph}", "{sk}"],
    ], ids=["serve", "serve-mmap", "query", "eval"])
    def test_a_json_lines_sketch_set_names_repro_build(self, tmp_path,
                                                       graph_file, argv,
                                                       capsys):
        """A sketch set in the retired JSON-lines format is no index:
        every verb that reads one refuses it with the command that
        writes one, and no traceback."""
        sk = tmp_path / "sk.jsonl"
        sk.write_text('{"type":"tz","v":1,"node":0,"k":1,'
                      '"pivots":[[0,0.0]],"bunch":[]}\n')
        rc = main([arg.format(sk=sk, graph=graph_file) for arg in argv])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: not a binary index container "
                                "(repro build writes one)\n")


class TestUnreadableFiles:
    """A file that cannot be read or written is a usage error: one
    ``error:`` line naming the path, exit 2, no traceback."""

    @pytest.mark.parametrize("argv", [
        ["build", "{missing}", "--k", "2", "-o", "{tmp}/x.rpix"],
        ["stats", "{missing}"],
        ["eval", "{missing}", "{index}"],
        ["query", "{missing}", "{index}", "--pairs", "0:1", "--exact"],
        ["serve", "{missing}", "--updateable", "--k", "2", "--port", "0"],
    ], ids=["build", "stats", "eval", "query-exact", "serve-updateable"])
    def test_a_missing_graph(self, tmp_path, index_file, argv, capsys):
        self._refused(tmp_path, index_file, argv, capsys)

    @pytest.mark.parametrize("argv", [
        ["query", "{graph}", "{missing}", "--pairs", "0:1"],
        ["eval", "{graph}", "{missing}"],
        ["serve", "{missing}", "--port", "0"],
        ["serve", "{missing}", "--port", "0", "--memory", "mmap"],
    ], ids=["query", "eval", "serve", "serve-mmap"])
    def test_a_missing_index(self, tmp_path, index_file, argv, capsys):
        self._refused(tmp_path, index_file, argv, capsys)

    def test_a_missing_changes_file(self, tmp_path, index_file, capsys):
        self._refused(tmp_path, index_file,
                      ["build", "{graph}", "--k", "2", "--apply-updates",
                       "{missing}", "-o", "{tmp}/x.rpix"], capsys)
        assert not (tmp_path / "x.rpix").exists()

    def test_an_unwritable_output(self, tmp_path, index_file, capsys):
        out = tmp_path / "no-such-dir" / "x.rpix"
        rc = main(["build", str(index_file.with_name("net.edges")),
                   "--k", "2", "-o", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: No such file or directory\n"
        assert captured.out == ""  # refused before the build ran

    def test_a_read_only_output_folder(self, tmp_path, index_file, capsys,
                                       monkeypatch):
        out = tmp_path / "x.rpix"
        monkeypatch.setattr("repro.cli.os.access", lambda path, mode: False)
        rc = main(["build", str(index_file.with_name("net.edges")),
                   "--k", "2", "-o", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: Permission denied\n"
        assert captured.out == "" and not out.exists()

    @staticmethod
    def _refused(tmp_path, index_file, argv, capsys):
        missing = tmp_path / "missing.file"
        rc = main([arg.format(missing=missing, tmp=tmp_path,
                              index=index_file,
                              graph=index_file.with_name("net.edges"))
                   for arg in argv])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {missing}: No such file or "
                                f"directory\n")
        assert "Traceback" not in captured.out


class TestMalformedEdgeFiles:
    """A bad line of an edge file is a usage error naming ``PATH:LINE``:
    one ``error:`` line, exit 2, no traceback."""

    @pytest.mark.parametrize("text,where,message", [
        ("# nodes 3\n0 1 1.0\n1 x 2.0\n", ":3", "expected 'u v w'"),
        ("# nodes 3\n0 1 abc\n", ":2", "expected 'u v w'"),
        ("# nodes 3\n0 1 1.0\n1 2\n", ":3", "expected 'u v w'"),
        ("# nodes three\n0 1 1.0\n", "",
         "malformed header '# nodes three'"),
        ("# nodes 3\n0 1 1.0\n\n1 5 2.0\n", ":4",
         "node 5 out of range [0, 3)"),
        ("# nodes 3\n0 1 1.0\n99999999999999999999 1 2.0\n", ":3",
         "node 99999999999999999999 out of range [0, 3)"),
        ("# nodes 3\n0 1 1.0\n2 2 1.0\n", ":3",
         "self-loops are not allowed (node 2)"),
        ("# nodes 3\n0 1 1.0\n1 2 -1\n", ":3",
         "edge weight must be positive and finite, got -1.0"),
    ], ids=["bad-id", "bad-weight", "two-fields", "bad-header",
            "out-of-range", "past-int64", "self-loop", "negative-weight"])
    def test_stats_names_the_line(self, tmp_path, capsys, text, where,
                                  message):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        assert main(["stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}{where}: {message}\n"
