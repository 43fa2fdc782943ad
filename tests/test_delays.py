"""Bounded-delay asynchrony (repro.congest.delays).

The tests demonstrate the module docstring's three claims: BF-family
protocols are delay-oblivious in their results; oracle-synchronized phase
protocols stay correct; and the Section 3.3 ECHO detector is causally
correct under delays once its (only) round-counted component — the
election horizon — is scaled.
"""

import numpy as np
import pytest

from repro.algorithms.bellman_ford import BellmanFordProgram
from repro.algorithms.supersource import SuperSourceBFProgram
from repro.congest.delays import DelayedSimulator
from repro.congest.metrics import RunMetrics
from repro.errors import ConfigError
from repro.graphs import apsp
from repro.tz import build_tz_sketches_centralized, sample_hierarchy
from repro.tz.distributed import TZEchoProgram, TZOracleProgram


class TestMechanics:
    def test_validation(self, er_weighted):
        with pytest.raises(ConfigError):
            DelayedSimulator(er_weighted, lambda u: BellmanFordProgram(u, 0),
                             max_delay=0)

    def test_delay_one_is_synchronous(self, er_weighted):
        from repro.congest import Simulator

        sync = Simulator(er_weighted,
                         lambda u: BellmanFordProgram(u, 0), seed=1).run()
        delayed = DelayedSimulator(er_weighted,
                                   lambda u: BellmanFordProgram(u, 0),
                                   seed=1, max_delay=1, delay_seed=2).run()
        assert [p.result()[0] for p in sync.programs] == \
            [p.result()[0] for p in delayed.programs]
        assert delayed.metrics.rounds == sync.metrics.rounds

    def test_link_clock_is_the_runs_round_not_the_accumulators(self):
        """With a pre-charged ``metrics=`` every hop used to wait for the
        local round to catch up with the accumulator (20 rounds for a
        4-node path instead of 4)."""
        from repro.graphs import path_graph

        def run(metrics):
            sim = DelayedSimulator(
                path_graph(4), lambda u: BellmanFordProgram(u, 0), seed=1,
                max_delay=1, delay_seed=2, metrics=metrics)
            before = metrics.rounds
            res = sim.run()
            return ([p.result()[0] for p in res.programs],
                    metrics.rounds - before, sim.max_observed_delay)

        fresh, charged = run(RunMetrics()), run(RunMetrics(rounds=4))
        assert fresh == ([0.0, 1.0, 2.0, 3.0], 4, 1)
        assert charged == fresh

    def test_fifo_preserved_per_edge(self, small_ring):
        # a chatty protocol where reordering would corrupt sequence numbers
        from repro.congest.node import NodeProgram

        class Sequencer(NodeProgram):
            def __init__(self, node):
                self.node = node
                self.to_send = list(range(10)) if node == 0 else []
                self.seen = []

            def on_start(self, ctx):
                self._pump(ctx)

            def _pump(self, ctx):
                if self.to_send:
                    ctx.send(1, ("seq", self.to_send.pop(0)))

            def on_round(self, ctx, inbox):
                for payload in inbox.values():
                    if payload[0] == "seq" and self.node == 1:
                        self.seen.append(payload[1])
                self._pump(ctx)

            def has_pending(self):
                return bool(self.to_send)

        res = DelayedSimulator(small_ring, Sequencer, seed=3, max_delay=4,
                               delay_seed=4).run()
        assert res.programs[1].seen == list(range(10))


class TestDelayObliviousProtocols:
    def test_bellman_ford_exact(self, er_weighted):
        d = apsp(er_weighted)
        res = DelayedSimulator(er_weighted,
                               lambda u: BellmanFordProgram(u, 0),
                               seed=5, max_delay=4, delay_seed=6).run()
        assert np.allclose([p.result()[0] for p in res.programs], d[0])

    def test_supersource_exact(self, er_weighted):
        members = frozenset({1, 9, 20})
        d = apsp(er_weighted)
        res = DelayedSimulator(
            er_weighted, lambda u: SuperSourceBFProgram(u, members),
            seed=7, max_delay=3, delay_seed=8).run()
        want = d[:, sorted(members)].min(axis=1)
        assert np.allclose([p.result()[0] for p in res.programs], want)

    def test_rounds_inflate_at_most_linearly(self, small_grid):
        from repro.congest import Simulator

        base = Simulator(small_grid,
                         lambda u: BellmanFordProgram(u, 0), seed=9).run()
        slow = DelayedSimulator(small_grid,
                                lambda u: BellmanFordProgram(u, 0),
                                seed=9, max_delay=5, delay_seed=10).run()
        assert slow.metrics.rounds <= 5 * base.metrics.rounds + 5


class TestPhaseProtocolsUnderDelay:
    def test_oracle_tz_correct(self, er_weighted):
        h = sample_hierarchy(er_weighted.n, 2, seed=11)
        cs, _ = build_tz_sketches_centralized(er_weighted, hierarchy=h)
        sim = DelayedSimulator(
            er_weighted,
            lambda u: TZOracleProgram(u, 2, int(h.level[u])),
            seed=12, max_delay=3, delay_seed=13)
        res = sim.run()
        for a, p in zip(cs, res.programs):
            b = p.sketch()
            assert a.pivots == b.pivots and a.bunch == b.bunch

    def test_echo_tz_correct_with_scaled_horizon(self, small_grid):
        # the election is the ONLY round-counted component: scale its
        # horizon by max_delay and the whole Section 3.3 machinery runs
        # correctly asynchronously
        g = small_grid
        max_delay = 3
        h = sample_hierarchy(g.n, 2, seed=14)
        cs, _ = build_tz_sketches_centralized(g, hierarchy=h)
        sim = DelayedSimulator(
            g,
            lambda u: TZEchoProgram(u, g.n, 2, int(h.level[u]),
                                    horizon=max_delay * (g.n + 2),
                                    settle=max_delay),
            seed=15, max_delay=max_delay, delay_seed=16)
        res = sim.run()
        for a, p in zip(cs, res.programs):
            b = p.sketch()
            assert a.pivots == b.pivots and a.bunch == b.bunch
