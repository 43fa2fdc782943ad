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
def sketch_file(tmp_path, graph_file):
    path = tmp_path / "sk.jsonl"
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
    def test_build_writes_sketches(self, capsys, sketch_file, graph_file):
        from repro.oracle.serialization import load_sketch_set

        sketches = load_sketch_set(sketch_file)
        assert len(sketches) == 32
        # a centralized build says where its time went, one line
        entries = sum(len(s.bunch) for s in sketches)
        assert re.search(
            r"^built in [\d.]+ s — pivots [\d.]+ s, clusters [\d.]+ s "
            rf"\({entries} bunch entries, \d+ frontier rounds\), "
            r"assemble [\d.]+ s$", capsys.readouterr().out, re.M)

    def test_distributed_build_reports_cost(self, tmp_path, graph_file,
                                            capsys):
        path = tmp_path / "d.jsonl"
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
        path = tmp_path / "s3.jsonl"
        rc = main(["build", str(graph_file), "--scheme", "stretch3",
                   "--eps", "0.3", "--seed", "5", "-o", str(path)])
        assert rc == 0

    def test_missing_params_fail_cleanly(self, tmp_path, graph_file, capsys):
        path = tmp_path / "x.jsonl"
        rc = main(["build", str(graph_file), "--scheme", "tz",
                   "-o", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestQuery:
    def test_query_pairs(self, graph_file, sketch_file, capsys):
        rc = main(["query", str(graph_file), str(sketch_file),
                   "--pairs", "0:31", "5:9"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("0:31 estimate=")

    def test_query_with_exact(self, graph_file, sketch_file, capsys):
        rc = main(["query", str(graph_file), str(sketch_file), "--exact",
                   "--pairs", "0:31"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exact=" in out and "stretch=" in out

    def test_bad_pair_syntax(self, graph_file, sketch_file, capsys):
        rc = main(["query", str(graph_file), str(sketch_file),
                   "--pairs", "0-31"])
        assert rc == 2

    @pytest.mark.parametrize("pair", ["-1:5", "32:5"],
                             ids=["negative", "equal-n"])
    def test_out_of_range_id_is_a_usage_error(self, graph_file,
                                              sketch_file, pair, capsys):
        """A local query range-checks its ids the way a session does:
        no answer for Python's negative index, no IndexError traceback."""
        rc = main(["query", str(graph_file), str(sketch_file), "--exact",
                   f"--pairs={pair}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: node id out of range [0, 32)\n"


class TestEval:
    def test_stretch_report(self, graph_file, sketch_file, capsys):
        rc = main(["eval", str(graph_file), str(sketch_file)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["underestimates"] == 0
        assert 1.0 <= report["max_stretch"] <= 3.0  # k=2 bound

    def test_eps_filter(self, graph_file, sketch_file, capsys):
        rc = main(["eval", str(graph_file), str(sketch_file),
                   "--eps", "0.5", "--max-pairs", "100"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pairs"] <= 100

    def test_mismatched_sketch_set(self, tmp_path, graph_file, sketch_file,
                                   capsys):
        other = tmp_path / "small.edges"
        main(["gen", "--family", "ring", "--n", "5", "-o", str(other)])
        rc = main(["eval", str(other), str(sketch_file)])
        assert rc == 2


class TestBuildJobs:
    """``build`` takes no ``--jobs``: the process fan-out is gone (and
    no command takes one: the serving engine cuts its own batches)."""

    def test_jobs_rejected_for_tz(self, tmp_path, graph_file, capsys):
        with pytest.raises(SystemExit) as usage:
            main(["build", str(graph_file), "--scheme", "tz", "--k", "2",
                  "--jobs", "2", "-o", str(tmp_path / "x.jsonl")])
        assert usage.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_rejected_for_slack_scheme(self, tmp_path, graph_file,
                                            capsys):
        with pytest.raises(SystemExit) as usage:
            main(["build", str(graph_file), "--scheme", "stretch3",
                  "--eps", "0.3", "--jobs", "2",
                  "-o", str(tmp_path / "x.jsonl")])
        assert usage.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestConnectFlows:
    """`query --connect` against a live transport endpoint (the `serve`
    daemon itself is exercised end-to-end in
    tests/test_service_transport.py)."""

    @pytest.fixture()
    def live_server(self, sketch_file):
        from repro.oracle.serialization import load_sketch_set
        from repro.service.server import OracleServer

        server = OracleServer(load_sketch_set(sketch_file), cache_size=0)
        host, port = server.serve("127.0.0.1:0", block=False)
        try:
            yield f"tcp://{host}:{port}", server
        finally:
            server.close()

    def test_query_connect(self, live_server, sketch_file, capsys):
        spec, server = live_server
        rc = main(["query", "--connect", spec, "--pairs", "0:31", "5:9"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and lines[0].startswith("0:31 estimate=")

    def test_query_connect_rejects_sketch_file_too(self, live_server,
                                                   graph_file, sketch_file,
                                                   capsys):
        spec, _ = live_server
        rc = main(["query", str(graph_file), str(sketch_file),
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
                                              graph_file, sketch_file,
                                              capsys):
        """Whatever the server holds — a sketch set at any shard count
        and cache size, an RPIX opened on the heap or mapped, a slack
        scheme's sketches — ``query --connect`` prints exactly what a
        local ``query`` of the same sketches prints, and the session
        names the layout it serves and no thread count."""
        from repro.oracle.serialization import (load_index_binary,
                                                load_sketch_set)
        from repro.service.client import connect
        from repro.service.server import OracleServer

        scheme, cache = "tz", 0
        if served == "stretch3":
            scheme, sketch_file = "stretch3", tmp_path / "s3.jsonl"
            assert main(["build", str(graph_file), "--scheme", "stretch3",
                         "--eps", "0.3", "--seed", "5",
                         "-o", str(sketch_file)]) == 0
        if served.startswith("rpix"):
            path = tmp_path / "idx.rpix"
            assert main(["build", str(graph_file), "--scheme", "tz",
                         "--k", "2", "--seed", "3", "--format", "binary",
                         "--shards", "2", "-o", str(path)]) == 0
            source = load_index_binary(path, backing=served[len("rpix-"):])
            server = OracleServer(source, cache_size=cache)
            shards = 2  # baked into the container
        else:
            shards = {"sketches-shards2": 2,
                      "sketches-shards3-cache64": 3}.get(served, 1)
            cache = 64 if served.endswith("cache64") else 0
            server = OracleServer(load_sketch_set(sketch_file),
                                  num_shards=shards, cache_size=cache)
        capsys.readouterr()
        pairs = [f"{u}:{(7 * u + 5) % 32}" for u in range(32)] + ["9:9"]
        pairs += pairs[:8]  # repeats: a cache, if any, answers these
        assert main(["query", str(graph_file), str(sketch_file),
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
                   "--seed", "3", "--format", "binary", "--shards", "2",
                   "-o", str(path)])
        assert rc == 0
        return path

    def test_build_binary_matches_jsonl_build(self, sketch_file,
                                              binary_index_file, capsys):
        from repro.oracle.serialization import (is_binary_index,
                                                load_index_binary,
                                                load_sketch_set)
        from repro.service import build_index

        assert is_binary_index(binary_index_file)
        assert not is_binary_index(sketch_file)
        from_cli = load_index_binary(binary_index_file)
        rebuilt = build_index(load_sketch_set(sketch_file), num_shards=2)
        assert from_cli == rebuilt

    def test_build_graceful_applies_updates(self, tmp_path, graph_file,
                                            capsys):
        """``--apply-updates`` works for every scheme the matrix says
        repairs — graceful included: the written index is the one a
        from-scratch build on the mutated graph gives."""
        from repro.oracle.serialization import load_index_binary
        from repro.service.updates import (UpdateableIndex,
                                           sample_weight_changes,
                                           save_changes_jsonl)

        g = read_edgelist(graph_file)
        changes = sample_weight_changes(g, 3, seed=8, low=0.2, high=0.6)
        save_changes_jsonl(changes, tmp_path / "changes.jsonl")
        path = tmp_path / "graceful.rpix"
        rc = main(["build", str(graph_file), "--scheme", "graceful",
                   "--seed", "3", "--format", "binary", "--apply-updates",
                   str(tmp_path / "changes.jsonl"), "-o", str(path)])
        assert rc == 0
        assert "applied 3 changes" in capsys.readouterr().out
        twin = UpdateableIndex(g, "graceful", seed=3)
        twin.apply(changes)
        assert load_index_binary(path) == twin.rebuild_reference()

    @pytest.mark.parametrize("argv", [
        ["--pool", "thread"],      # not an option
        ["--memory", "shared"],    # not a choice
        ["--jobs", "2"],           # the engine decides how a batch runs
        ["--rebuild-threshold", "0.5"],  # each scheme's row decides
    ], ids=["pool", "shared", "jobs", "rebuild-threshold"])
    @pytest.mark.parametrize("command", ["serve", "serve-bench"])
    def test_deleted_flags_are_usage_errors(self, sketch_file, command,
                                            argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, str(sketch_file), *argv])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve-bench", "update-bench",
                                         "scenario"],
                             ids=["serve", "update", "scenario"])
    def test_deleted_commands_are_usage_errors(self, sketch_file, command,
                                               capsys):
        """Serving speed is measured by ``bench/run.py``: the
        ``<verb>-bench`` subcommands are unknown commands.  So is
        ``scenario``: the churn replay lives in the test suite."""
        with pytest.raises(SystemExit) as exc:
            main([command, str(sketch_file)])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_serve_mmap_wants_a_binary_index(self, sketch_file, graph_file,
                                             capsys):
        """``serve sk.jsonl --memory mmap`` names the fix; so does the
        ``--updateable`` form, whose source is a graph."""
        rc = main(["serve", str(sketch_file), "--memory", "mmap"])
        assert rc == 2
        assert "build --format binary" in capsys.readouterr().err
        rc = main(["serve", str(graph_file), "--updateable", "--scheme",
                   "tz", "--memory", "mmap"])
        assert rc == 2
        assert "build --format binary" in capsys.readouterr().err

    def test_serve_binary_shards_mismatch(self, binary_index_file, capsys):
        """A binary index bakes its shard layout in; asking ``serve`` for
        another count fails loudly before anything listens, instead of
        silently serving the baked one."""
        rc = main(["serve", str(binary_index_file), "--shards", "8"])
        assert rc == 2
        assert "bakes its shard layout" in capsys.readouterr().err

    def test_build_shards_requires_binary_format(self, tmp_path, graph_file,
                                                 capsys):
        rc = main(["build", str(graph_file), "--scheme", "tz", "--k", "2",
                   "--seed", "3", "--shards", "4",
                   "-o", str(tmp_path / "sk.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--format binary" in err and "repro serve --shards" in err
