"""The churn scenario harness (``repro.service.scenario``).

Three claim families:

* **trace model** — every named generator is seeded-deterministic
  (same inputs → byte-identical JSONL), traces round-trip through
  ``save_jsonl`` / ``load_jsonl``, and malformed traces are rejected at
  construction, not at replay;
* **correctness under fire** — every scenario replayed over every local
  transport topology (``inproc://`` and the real-socket ``tcp://``
  sentinel) with the oracle armed finishes with **zero** violations:
  each consumed answer was bit-identical to an epoch the session could
  legally observe, including ``QueryError`` parity while a
  disconnect-heal victim is cut;
* **acceptance topology** — a live ``python -m repro serve`` subprocess
  driven over TCP verifies clean too (the oracle twin is built from the
  same edge-list *file* the daemon reads), and the ``repro scenario``
  CLI runs end to end in-process.

A nightly long-trace run rides the ``slow`` marker.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigError
from repro.graphs import (assign_uniform_weights, erdos_renyi,
                          read_edgelist, write_edgelist)
from repro.service import (SCENARIOS, QueryEvent, Trace, generate_trace,
                           run_named_scenario, run_scenario,
                           served_subprocess)

K = 2  # tz needs k; k=2 keeps the small builds fast
ROUNDS = 5


@pytest.fixture(scope="module")
def churn_graph():
    """Small weighted ER graph — big enough for every generator's
    structure (regions, victims, flappers), small enough that ten
    oracle-armed replays stay in seconds."""
    return assign_uniform_weights(erdos_renyi(20, seed=31), seed=32)


def _dump(trace: Trace, path) -> str:
    trace.save_jsonl(path)
    return path.read_text(encoding="ascii")


# ----------------------------------------------------------------------
# trace model
# ----------------------------------------------------------------------
class TestTraceModel:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_generator_deterministic(self, name, churn_graph, tmp_path):
        t1 = generate_trace(name, churn_graph, seed=5, rounds=6)
        t2 = generate_trace(name, churn_graph, seed=5, rounds=6)
        assert _dump(t1, tmp_path / "a.jsonl") == \
            _dump(t2, tmp_path / "b.jsonl")
        assert t1.name == name
        assert t1.n == churn_graph.n
        assert t1.query_events and all(
            0 <= e.round < t1.rounds for e in t1.events)

    def test_different_seeds_differ(self, churn_graph, tmp_path):
        t1 = generate_trace("steady-mix", churn_graph, seed=1, rounds=6)
        t2 = generate_trace("steady-mix", churn_graph, seed=2, rounds=6)
        assert _dump(t1, tmp_path / "a.jsonl") != \
            _dump(t2, tmp_path / "b.jsonl")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_jsonl_round_trip(self, name, churn_graph, tmp_path):
        t1 = generate_trace(name, churn_graph, seed=9, rounds=6)
        text = _dump(t1, tmp_path / "trace.jsonl")
        t2 = Trace.load_jsonl(tmp_path / "trace.jsonl")
        assert (t2.name, t2.n, t2.rounds, t2.seed, t2.meta) == \
            (t1.name, t1.n, t1.rounds, t1.seed, t1.meta)
        assert len(t2.events) == len(t1.events)
        assert _dump(t2, tmp_path / "again.jsonl") == text

    def test_unknown_scenario_rejected(self, churn_graph):
        with pytest.raises(ConfigError, match="unknown scenario"):
            generate_trace("thundering-herd", churn_graph)

    def test_trace_validation(self):
        q = QueryEvent(0, ((0, 1),))
        with pytest.raises(ConfigError, match=">= 1 round"):
            Trace("t", 4, 0, 0, [q])
        with pytest.raises(ConfigError, match="outside"):
            Trace("t", 4, 2, 0, [QueryEvent(5, ((0, 1),))])
        with pytest.raises(ConfigError, match="empty query"):
            Trace("t", 4, 2, 0, [QueryEvent(0, ())])
        with pytest.raises(ConfigError, match="outside the 4-node"):
            Trace("t", 4, 2, 0, [QueryEvent(0, ((0, 9),))])

    def test_by_round_keeps_event_ids(self, churn_graph):
        t = generate_trace("steady-mix", churn_graph, seed=3, rounds=6)
        seen = [idx for r in sorted(t.by_round())
                for idx, _ in t.by_round()[r]]
        assert sorted(seen) == list(range(len(t.events)))
        for r, pairs in t.by_round().items():
            assert all(ev.round == r for _, ev in pairs)

    def test_load_rejects_non_trace_file(self, tmp_path):
        p = tmp_path / "bogus.jsonl"
        p.write_text('{"kind":"sketches"}\n', encoding="ascii")
        with pytest.raises(ConfigError, match="not a trace file"):
            Trace.load_jsonl(p)


# ----------------------------------------------------------------------
# correctness under fire: every scenario x every local topology
# ----------------------------------------------------------------------
class TestScenarioRuns:
    @pytest.mark.parametrize("endpoint", ["inproc://", "tcp://"])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_oracle_clean(self, name, endpoint, churn_graph):
        result = run_named_scenario(name, churn_graph, seed=3,
                                    rounds=ROUNDS, endpoint=endpoint,
                                    k=K)
        assert result.oracle_report is not None
        assert result.ok, (name, endpoint, result.violations[:3])
        assert result.oracle_report["checked"] > 0
        s = result.summary()
        assert s["queries"]["records"] >= len(result.trace.query_events)
        assert s["hotswap"]["applies"] == len(result.trace.churn_events)
        assert s["staleness"]["results"] > 0

    def test_disconnect_heal_errors_are_legal(self, churn_graph):
        """While a victim is cut, queries touching it raise — the
        oracle proves the errors match some legal epoch bit-for-bit."""
        result = run_named_scenario("disconnect-heal", churn_graph,
                                    seed=3, rounds=8, k=K)
        assert result.ok, result.violations[:3]
        assert any(r.error is not None for r in result.queries)

    def test_trace_size_mismatch_rejected(self, churn_graph):
        other = erdos_renyi(8, seed=1)
        trace = generate_trace("steady-mix", other, seed=0, rounds=4)
        with pytest.raises(ConfigError, match="n=8"):
            run_named_scenario("steady-mix", churn_graph, trace=trace,
                               k=K)

    def test_endpoint_source_rules(self, churn_graph):
        trace = generate_trace("steady-mix", churn_graph, seed=0,
                               rounds=4)
        with pytest.raises(ConfigError, match="pass source="):
            run_scenario(trace, "tcp://")  # sentinel needs a source
        with pytest.raises(ConfigError, match="needs a source"):
            run_scenario(trace, "inproc://")

    @pytest.mark.slow
    def test_long_trace_nightly(self, er_weighted):
        """Nightly: a long steady-state trace over real sockets with
        checkpoints on — the endurance version of the smoke runs."""
        result = run_named_scenario("steady-mix", er_weighted, seed=11,
                                    rounds=24, endpoint="tcp://",
                                    query_threads=3, k=K)
        assert result.ok, result.violations[:3]
        assert result.oracle_report["checkpoints"] > 0


# ----------------------------------------------------------------------
# acceptance topology: a live serve subprocess, then the CLI
# ----------------------------------------------------------------------
class TestServedSubprocess:
    def test_spawned_daemon_zero_violations(self, churn_graph, tmp_path):
        gp = tmp_path / "graph.edges"
        write_edgelist(churn_graph, gp)
        disk = read_edgelist(gp)  # %.12g — the file is the ground truth
        with served_subprocess(gp, scheme="tz", seed=0, k=K) as addr:
            assert addr.startswith("tcp://")
            result = run_named_scenario("flash-crowd", disk, seed=0,
                                        rounds=ROUNDS, endpoint=addr,
                                        k=K)
        assert result.ok, result.violations[:3]
        assert result.oracle_report["checked"] > 0


class TestScenarioCLI:
    @pytest.fixture()
    def graph_path(self, churn_graph, tmp_path):
        gp = tmp_path / "graph.edges"
        write_edgelist(churn_graph, gp)
        return gp

    def test_generate_save_and_replay(self, graph_path, tmp_path,
                                      capsys):
        tp = tmp_path / "trace.jsonl"
        rc = cli_main(["scenario", str(graph_path), "--trace",
                       "steady-mix", "--rounds", "4", "--k", str(K),
                       "--save-trace", str(tp)])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["oracle"]["violations"] == []
        assert payload["trace"]["name"] == "steady-mix"
        assert tp.exists()

        rc = cli_main(["scenario", str(graph_path), "--load-trace",
                       str(tp), "--k", str(K)])
        assert rc == 0
        replay = json.loads(capsys.readouterr().out)
        assert replay["oracle"]["violations"] == []
        assert replay["trace"]["events"] == payload["trace"]["events"]

    def test_requires_exactly_one_trace_source(self, graph_path,
                                               capsys):
        rc = cli_main(["scenario", str(graph_path), "--k", str(K)])
        assert rc == 2
        assert "exactly one trace source" in capsys.readouterr().err
        rc = cli_main(["scenario", str(graph_path), "--trace",
                       "steady-mix", "--load-trace", "x.jsonl",
                       "--k", str(K)])
        assert rc == 2


# ----------------------------------------------------------------------
# oracle sharpness: a wrong answer or an illegal epoch must be flagged
# ----------------------------------------------------------------------
class TestOracleSharpness:
    def test_oracle_is_single_use(self, churn_graph):
        from repro.service import ScenarioOracle

        trace = generate_trace("steady-mix", churn_graph, seed=2,
                               rounds=4)
        oracle = ScenarioOracle(churn_graph, seed=2, k=K)
        result = run_scenario(trace, "inproc://",
                              source=_source(churn_graph, seed=2),
                              oracle=oracle)
        assert result.ok
        with pytest.raises(ConfigError, match="already verified"):
            oracle.verify(trace, result)

    def test_oracle_flags_tampered_answer(self, churn_graph):
        from repro.service import ScenarioOracle

        trace = generate_trace("steady-mix", churn_graph, seed=2,
                               rounds=4)
        result = run_scenario(trace, "inproc://",
                              source=_source(churn_graph, seed=2))
        victim = next(r for r in result.queries if r.error is None)
        victim.answers[0] += 1.0  # corrupt one consumed float
        report = ScenarioOracle(churn_graph, seed=2, k=K).verify(
            trace, result)
        kinds = {v["kind"] for v in report["violations"]}
        assert "bitwise-mismatch" in kinds

    def test_oracle_flags_illegal_epoch(self, churn_graph):
        from repro.service import ScenarioOracle

        trace = generate_trace("steady-mix", churn_graph, seed=2,
                               rounds=4)
        result = run_scenario(trace, "inproc://",
                              source=_source(churn_graph, seed=2))
        victim = next(r for r in result.queries if r.error is None)
        victim.epoch_observed = 999  # an epoch that never existed
        report = ScenarioOracle(churn_graph, seed=2, k=K).verify(
            trace, result)
        kinds = {v["kind"] for v in report["violations"]}
        assert "unknown-epoch" in kinds


def _source(graph, *, seed):
    from repro.service import UpdateableIndex

    return UpdateableIndex(graph, "tz", seed=seed, k=K)
