"""The churn scenario harness (``tests/scenario_harness.py``).

Three claim families:

* **trace model** — every named generator is seeded-deterministic (same
  inputs → equal ``Trace`` objects), and malformed traces are rejected
  at construction, not at replay;
* **correctness under fire** — every scenario replayed over every local
  transport topology (``inproc://`` and the real-socket ``tcp://``
  sentinel) with the oracle armed finishes with **zero** violations:
  each consumed answer was bit-identical to an epoch the session could
  legally observe, including ``QueryError`` parity while a
  disconnect-heal victim is cut — on small ER graphs and on a random
  geometric graph of a few hundred nodes driven by three readers.
  Every replay keeps a result cache on (``scenario_harness.CACHE``
  slots; a TZ store's default is none), so a cached answer that
  outlived its epoch would be flagged too;
* **acceptance topology** — a live ``python -m repro serve`` subprocess
  driven over TCP verifies clean too (the oracle twin is built from the
  same edge-list *file* the daemon reads).

The n = 800 geometric replays and a long trace ride the ``slow`` marker.
"""

from __future__ import annotations

import functools
import zlib

import pytest

from repro.errors import ConfigError
from repro.graphs import (assign_uniform_weights, erdos_renyi,
                          random_geometric, read_edgelist, write_edgelist)
from scenario_harness import (CACHE, INPROC, K, SCENARIOS, QueryEvent,
                              ScenarioOracle, Trace, generate_trace,
                              run_named_scenario, run_scenario,
                              served_subprocess, tz_index)

ROUNDS = 5


@functools.lru_cache(maxsize=None)
def _graph(family: str, n: int):
    """``("er", n)``: a weighted ER graph, big enough for every
    generator's structure (regions, victims, flappers) at n = 20 and
    small enough that the oracle-armed replays stay in seconds.
    ``("geo", n)``: the random geometric graph the experiment suite's
    ``workload("geo", n)`` builds (``benchmarks/_workloads.py``)."""
    if family == "er":
        return assign_uniform_weights(erdos_renyi(n, seed=31), seed=32)
    return random_geometric(
        n, seed=20120625 + zlib.crc32(repr(("geo", n, False)).encode())
        % 100_000)


@pytest.fixture(scope="module")
def churn_graph():
    return _graph("er", 20)


#: test_oracle_clean's inputs: (scenario, endpoint, graph, seed, rounds,
#: reader threads)
_CLEAN_CASES = [
    pytest.param(name, endpoint, ("er", 20), 3, ROUNDS, 2,
                 id=f"{name}-{label}")
    for label, endpoint in (("inproc://", INPROC), ("tcp://", "tcp://"))
    for name in sorted(SCENARIOS)
] + [
    pytest.param("weight-flap", INPROC, ("er", 24), 0, 6, 2,
                 id="weight-flap-inproc://-er24"),
] + [
    pytest.param(name, "tcp://", ("geo", n), 61, rounds, 3,
                 id=f"{name}-tcp://-geo{n}", marks=marks)
    for n, rounds, marks in ((300, 8, ()), (800, 10, pytest.mark.slow))
    for name in ("flash-crowd", "weight-flap", "steady-mix")
]


# ----------------------------------------------------------------------
# trace model
# ----------------------------------------------------------------------
class TestTraceModel:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_generator_deterministic(self, name, churn_graph):
        t1 = generate_trace(name, churn_graph, seed=5, rounds=6)
        t2 = generate_trace(name, churn_graph, seed=5, rounds=6)
        assert t1 == t2
        assert t1.name == name
        assert t1.n == churn_graph.n
        assert t1.query_events and all(
            0 <= e.round < t1.rounds for e in t1.events)

    def test_different_seeds_differ(self, churn_graph):
        t1 = generate_trace("steady-mix", churn_graph, seed=1, rounds=6)
        t2 = generate_trace("steady-mix", churn_graph, seed=2, rounds=6)
        assert t1 != t2

    def test_unknown_scenario_rejected(self, churn_graph):
        with pytest.raises(ConfigError, match="unknown scenario"):
            generate_trace("thundering-herd", churn_graph, seed=0,
                           rounds=4)

    def test_trace_validation(self):
        q = QueryEvent(0, ((0, 1),))
        with pytest.raises(ConfigError, match=">= 1 round"):
            Trace("t", 4, 0, [q])
        with pytest.raises(ConfigError, match="outside"):
            Trace("t", 4, 2, [QueryEvent(5, ((0, 1),))])
        with pytest.raises(ConfigError, match="empty query"):
            Trace("t", 4, 2, [QueryEvent(0, ())])
        with pytest.raises(ConfigError, match="outside the 4-node"):
            Trace("t", 4, 2, [QueryEvent(0, ((0, 9),))])

    def test_by_round_keeps_event_ids(self, churn_graph):
        t = generate_trace("steady-mix", churn_graph, seed=3, rounds=6)
        seen = [idx for r in sorted(t.by_round())
                for idx, _ in t.by_round()[r]]
        assert sorted(seen) == list(range(len(t.events)))
        for r, pairs in t.by_round().items():
            assert all(ev.round == r for _, ev in pairs)


# ----------------------------------------------------------------------
# correctness under fire: every scenario x every local topology
# ----------------------------------------------------------------------
class TestScenarioRuns:
    @pytest.mark.parametrize(
        "name, endpoint, graph, seed, rounds, threads", _CLEAN_CASES)
    def test_oracle_clean(self, name, endpoint, graph, seed, rounds,
                          threads):
        result = run_named_scenario(name, _graph(*graph), seed=seed,
                                    rounds=rounds, endpoint=endpoint,
                                    query_threads=threads)
        assert result.oracle_report is not None
        assert result.ok, (name, endpoint, result.violations[:3])
        assert result.oracle_report["checked"] > 0
        assert len(result.queries) >= len(result.trace.query_events)
        assert len(result.applies) == len(result.trace.churn_events)
        assert result.staleness_results > 0

    def test_disconnect_heal_errors_are_legal(self, churn_graph):
        """While a victim is cut, queries touching it raise — the
        oracle proves the errors match some legal epoch bit-for-bit."""
        result = run_named_scenario("disconnect-heal", churn_graph,
                                    seed=3, rounds=8)
        assert result.ok, result.violations[:3]
        assert any(r.error is not None for r in result.queries)

    def test_trace_size_mismatch_rejected(self, churn_graph):
        other = erdos_renyi(8, seed=1)
        trace = generate_trace("steady-mix", other, seed=0, rounds=4)
        with pytest.raises(ConfigError, match="n=8"):
            run_scenario(trace, INPROC,
                         source=tz_index(churn_graph, 0))

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
                                    query_threads=3)
        assert result.ok, result.violations[:3]
        assert result.oracle_report["checkpoints"] > 0


# ----------------------------------------------------------------------
# acceptance topology: a live serve subprocess
# ----------------------------------------------------------------------
class TestServedSubprocess:
    def test_spawned_daemon_zero_violations(self, tmp_path):
        for n, rounds in ((20, ROUNDS), (24, 6)):
            gp = tmp_path / f"er{n}.edges"
            write_edgelist(_graph("er", n), gp)
            disk = read_edgelist(gp)  # %.12g — the file is the ground truth
            with served_subprocess(gp, "--updateable", "--scheme", "tz",
                                   "--k", str(K), "--seed", "0",
                                   "--cache-size", CACHE) as addr:
                assert addr.startswith("tcp://")
                result = run_named_scenario("flash-crowd", disk, seed=0,
                                            rounds=rounds, endpoint=addr)
            assert result.ok, (n, result.violations[:3])
            assert result.oracle_report["checked"] > 0


# ----------------------------------------------------------------------
# oracle sharpness: a wrong answer or an illegal epoch must be flagged
# ----------------------------------------------------------------------
class TestOracleSharpness:
    def test_oracle_is_single_use(self, churn_graph):
        trace = generate_trace("steady-mix", churn_graph, seed=2,
                               rounds=4)
        oracle = ScenarioOracle(churn_graph, seed=2)
        result = run_scenario(trace, INPROC,
                              source=tz_index(churn_graph, 2),
                              oracle=oracle)
        assert result.ok
        with pytest.raises(ConfigError, match="already verified"):
            oracle.verify(trace, result)

    def test_oracle_flags_tampered_answer(self, churn_graph):
        trace = generate_trace("steady-mix", churn_graph, seed=2,
                               rounds=4)
        result = run_scenario(trace, INPROC,
                              source=tz_index(churn_graph, 2))
        victim = next(r for r in result.queries if r.error is None)
        victim.answers[0] += 1.0  # corrupt one consumed float
        report = ScenarioOracle(churn_graph, seed=2).verify(trace, result)
        kinds = {v["kind"] for v in report["violations"]}
        assert "bitwise-mismatch" in kinds

    def test_oracle_flags_illegal_epoch(self, churn_graph):
        trace = generate_trace("steady-mix", churn_graph, seed=2,
                               rounds=4)
        result = run_scenario(trace, INPROC,
                              source=tz_index(churn_graph, 2))
        victim = next(r for r in result.queries if r.error is None)
        victim.epoch_observed = 999  # an epoch that never existed
        report = ScenarioOracle(churn_graph, seed=2).verify(trace, result)
        kinds = {v["kind"] for v in report["violations"]}
        assert "unknown-epoch" in kinds
