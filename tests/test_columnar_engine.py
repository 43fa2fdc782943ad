"""The columnar round engine simulates the same protocol as the per-node
programs.

``build_tz_sketches_distributed`` runs :class:`repro.congest.columnar.
PhasedBellmanFord`; :func:`reference_build` runs the per-node
``TZOracleProgram`` / ``TZKnownSProgram`` / ``TZEchoProgram`` under
:class:`~repro.congest.network.Simulator` exactly as the build did before
the engine existed.  Everything observable must agree: sketches, the full
:class:`RunMetrics` (wake-ups and phase rows included), the queue maximum,
the tree depth, the caller's generator afterwards, and the exception (type
and message) when a run fails.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import RunMetrics, Simulator
from repro.errors import ProtocolError, SimulationError
from repro.graphs import (Graph, assign_uniform_weights, erdos_renyi,
                          path_graph, shortest_path_diameter)
from repro.tz import sample_hierarchy
from repro.tz.distributed import (TZEchoProgram, TZKnownSProgram,
                                  TZOracleProgram, build_tz_sketches_distributed,
                                  phase_budgets)


def reference_build(graph, hierarchy, sync="oracle", seed=None, S=None,
                    budget="whp", max_rounds=5_000_000):
    """The per-node build: ``(sketches, metrics, max_queue_len, depth)``."""
    kk, levels, n = hierarchy.k, hierarchy.level, graph.n
    metrics = RunMetrics()
    if sync == "oracle":
        def factory(u):
            return TZOracleProgram(u, kk, int(levels[u]),
                                   phase_marker=metrics if u == 0 else None)
    elif sync == "known_smax":
        budgets = (phase_budgets(n, kk, S, mode=budget,
                                 universe_size=int(hierarchy.universe().size))
                   if isinstance(budget, str) else list(budget))

        def factory(u):
            return TZKnownSProgram(u, kk, int(levels[u]), budgets,
                                   phase_marker=metrics if u == 0 else None)
    else:
        def factory(u):
            return TZEchoProgram(u, n, kk, int(levels[u]),
                                 phase_marker=metrics if u == n - 1 else None)
    res = Simulator(graph, factory, seed=seed, metrics=metrics).run(
        max_rounds=max_rounds)
    depth = (max(p.tree.depth for p in res.programs) if sync == "echo"
             else None)
    return ([p.sketch() for p in res.programs], res.metrics,
            max(p.max_queue_len for p in res.programs), depth)


def _same_run(graph, hierarchy, sync, **kw):
    seed_a, seed_b = np.random.default_rng(5), np.random.default_rng(5)
    res = build_tz_sketches_distributed(graph, hierarchy=hierarchy, sync=sync,
                                        seed=seed_a, **kw)
    sketches, metrics, max_q, depth = reference_build(graph, hierarchy, sync,
                                                      seed=seed_b, **kw)
    assert res.sketches == sketches
    # bunch iteration order too: a bunch lists entries as first accepted
    assert [list(s.bunch) for s in res.sketches] == \
        [list(s.bunch) for s in sketches]
    assert res.metrics == metrics
    assert res.metrics.phases == metrics.phases
    assert res.metrics.wakeups == metrics.wakeups
    assert res.metrics.wall_s > 0
    assert (res.max_queue_len, res.tree_depth) == (max_q, depth)
    assert seed_a.integers(1 << 62) == seed_b.integers(1 << 62)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    # a random spanning tree plus random chords: connected by construction
    edges = {(int(rng.integers(u)), u) for u in range(1, n)}
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = sorted(rng.choice(n, 2, replace=False).tolist())
        edges.add((u, v))
    weights = draw(st.sampled_from(["unit", "small", "float"]))
    g = Graph(n)
    for u, v in sorted(edges):
        w = (1.0 if weights == "unit"
             else float(rng.integers(1, 4)) if weights == "small"
             else float(rng.uniform(0.5, 10.0)))
        g.add_edge(u, v, w)
    k = draw(st.integers(1, 4))
    return g, sample_hierarchy(n, k, seed=draw(st.integers(0, 2**31)))


class TestDifferential:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inst=instances(), sync=st.sampled_from(["oracle", "echo"]))
    def test_oracle_and_echo(self, inst, sync):
        g, h = inst
        _same_run(g, h, sync)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inst=instances(), budget=st.sampled_from(["whp", "safe"]))
    def test_known_smax(self, inst, budget):
        g, h = inst
        _same_run(g, h, "known_smax", S=shortest_path_diameter(g),
                  budget=budget)

    @pytest.mark.slow
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(inst=instances(),
           mode=st.sampled_from(["oracle", "echo", "whp", "safe"]))
    def test_every_mode_at_the_profile_budget(self, inst, mode):
        # the loaded hypothesis profile sets the example count (the
        # nightly profile runs 300)
        g, h = inst
        if mode in ("whp", "safe"):
            _same_run(g, h, "known_smax", S=shortest_path_diameter(g),
                      budget=mode)
        else:
            _same_run(g, h, mode)

    @pytest.mark.parametrize("sync", ["oracle", "known_smax", "echo"])
    def test_a_larger_instance(self, sync):
        g = erdos_renyi(80, seed=3)
        h = sample_hierarchy(g.n, 3, seed=4)
        kw = {"S": shortest_path_diameter(g)} if sync == "known_smax" else {}
        _same_run(g, h, sync, **kw)

    def test_the_benchmark_shape(self):
        # congest-build's instances: ER at p = 2 ln n / n, n = 200,
        # weights U[1, 10], k = 3, echo termination
        g = assign_uniform_weights(erdos_renyi(200, seed=11), 1.0, 10.0,
                                   seed=12)
        _same_run(g, sample_hierarchy(g.n, 3, seed=13), "echo")

    def test_a_path(self):
        # long COMPLETE / START chains: many rounds carry only control
        # messages, or only ECHOs
        g = path_graph(60)
        _same_run(g, sample_hierarchy(g.n, 3, seed=14), "echo")

    @pytest.mark.slow
    @pytest.mark.parametrize("sync", ["echo", "known_smax"])
    def test_a_thousand_nodes(self, sync):
        # the per-message work dominates at this size
        g = assign_uniform_weights(erdos_renyi(1000, seed=15), 1.0, 10.0,
                                   seed=16)
        kw = {"S": shortest_path_diameter(g)} if sync == "known_smax" else {}
        _same_run(g, sample_hierarchy(g.n, 2, seed=17), sync, **kw)

    @pytest.mark.parametrize("sync", ["oracle", "echo"])
    def test_single_node(self, sync):
        _same_run(Graph(1), sample_hierarchy(1, 1, seed=0), sync)


def _same_error(graph, hierarchy, sync, **kw):
    with pytest.raises(Exception) as new:
        build_tz_sketches_distributed(graph, hierarchy=hierarchy, sync=sync,
                                      seed=1, **kw)
    with pytest.raises(Exception) as old:
        reference_build(graph, hierarchy, sync, seed=1, **kw)
    assert type(new.value) is type(old.value)
    assert str(new.value) == str(old.value)
    return new.value


class TestErrorParity:
    @pytest.fixture
    def net(self):
        g = erdos_renyi(40, seed=7)
        return g, sample_hierarchy(g.n, 3, seed=8)

    def test_straggler_across_a_phase_boundary(self, net):
        g, h = net
        err = _same_error(g, h, "known_smax", S=1, budget=[2, 2, 2])
        assert isinstance(err, ProtocolError)
        assert "too small" in str(err) and "budget for phase" in str(err)

    def test_message_after_protocol_end(self, net):
        g, h = net
        # generous early phases, a last phase too short for its traffic
        budgets = [1, 200, 200]
        err = _same_error(g, h, "known_smax", S=1, budget=budgets)
        assert "message after protocol end" in str(err)

    @pytest.mark.parametrize("sync", ["oracle", "known_smax", "echo"])
    def test_max_rounds(self, net, sync):
        g, h = net
        kw = {"S": shortest_path_diameter(g)} if sync == "known_smax" else {}
        err = _same_error(g, h, sync, max_rounds=6, **kw)
        assert isinstance(err, SimulationError)
        assert "did not quiesce within 6 rounds" in str(err)


def test_phase_rows_are_copied_by_addition():
    a = RunMetrics()
    a.begin_phase("x")
    c = a + RunMetrics()
    c.record_round(1, 1)
    assert a.phases[0].rounds == 0 and c.phases[0].rounds == 1
    assert a.rounds == 0


def test_idle_rounds_charge_like_empty_rounds():
    a, b = RunMetrics(), RunMetrics()
    for m in (a, b):
        m.begin_phase("p")
        m.record_round(3, 12)
    a.record_idle(5)
    for _ in range(5):
        b.record_round(0, 0)
    assert a == b and a.phases == b.phases


def test_sketch_values_are_plain_python():
    g = erdos_renyi(20, seed=1)
    res = build_tz_sketches_distributed(g, k=2, seed=2)
    for s in res.sketches:
        for node, dist in s.pivots:
            assert type(node) is int and type(dist) is float
        for v, (d, lvl) in s.bunch.items():
            assert (type(v), type(d), type(lvl)) == (int, float, int)
            assert not math.isnan(d)
