"""Failure injection (repro.congest.faults, repro.algorithms.reliable_bf).

The paper's conclusion names failure-prone settings as future work; these
tests exercise the library's first step in that direction: message-loss
and crash injection, plus the retransmitting Bellman-Ford that restores
correctness under loss (and a demonstration that the fragile Algorithm 1
visibly fails under the same faults).
"""

import math

import numpy as np
import pytest

from repro.algorithms.bellman_ford import BellmanFordProgram
from repro.algorithms.reliable_bf import (
    ReliableBellmanFordProgram,
    reliable_single_source_distances,
)
from repro.congest.faults import FaultModel, FaultySimulator
from repro.congest.metrics import RunMetrics
from repro.errors import ConfigError
from repro.graphs import apsp, path_graph, ring


class TestFaultModel:
    def test_loss_rate_validation(self):
        with pytest.raises(ConfigError):
            FaultModel(loss_rate=1.0)
        with pytest.raises(ConfigError):
            FaultModel(loss_rate=-0.1)

    def test_zero_loss_delivers_everything(self):
        fm = FaultModel(loss_rate=0.0, seed=1)
        assert all(fm.delivers(0, 1, r) for r in range(100))
        assert fm.dropped == 0

    def test_loss_is_metered_and_seeded(self):
        a = FaultModel(loss_rate=0.5, seed=2)
        b = FaultModel(loss_rate=0.5, seed=2)
        fates_a = [a.delivers(0, 1, r) for r in range(200)]
        fates_b = [b.delivers(0, 1, r) for r in range(200)]
        assert fates_a == fates_b
        assert a.dropped == fates_a.count(False)
        assert 40 <= a.dropped <= 160  # ~100 expected

    def test_crash_blocks_both_directions(self):
        fm = FaultModel(crashes={3: 5})
        assert fm.delivers(3, 1, 4)       # before the crash round
        assert not fm.delivers(3, 1, 5)   # crashed sender
        assert not fm.delivers(1, 3, 7)   # crashed receiver
        assert fm.blocked == 2


class TestLossySimulation:
    def test_plain_bf_fails_visibly_under_loss(self):
        """Algorithm 1 without retransmission quiesces with WRONG
        distances when messages vanish — the failure is detectable
        (infinite estimates), not silent corruption."""
        g = path_graph(12)
        fm = FaultModel(loss_rate=0.6, seed=3)
        sim = FaultySimulator(g, lambda u: BellmanFordProgram(u, 0),
                              seed=4, fault_model=fm)
        res = sim.run()
        dists = [p.result()[0] for p in res.programs]
        assert any(math.isinf(d) or d > i for i, d in enumerate(dists))

    def test_reliable_bf_exact_under_heavy_loss(self, er_weighted):
        # patience must scale with the loss rate: each extra period is one
        # more independent retransmission, so P(edge never delivers) decays
        # exponentially in patience
        d = apsp(er_weighted)
        for loss, patience in ((0.2, 8), (0.5, 25)):
            dists, fm, _ = reliable_single_source_distances(
                er_weighted, 0, loss_rate=loss, seed=5, fault_seed=6,
                patience=patience)
            assert np.allclose(dists, d[0])
            assert fm.dropped > 0  # the faults actually happened

    def test_reliable_bf_no_loss_matches_plain(self, er_weighted):
        d = apsp(er_weighted)
        dists, fm, _ = reliable_single_source_distances(er_weighted, 7,
                                                        seed=8)
        assert np.allclose(dists, d[7])
        assert fm.dropped == 0

    def test_reliable_bf_terminates(self):
        g = ring(10)
        _, _, metrics = reliable_single_source_distances(
            g, 0, loss_rate=0.3, seed=9, fault_seed=10)
        # termination despite clock-driven retransmission
        assert metrics.rounds < 10_000

    def test_crash_partitions_reachability(self):
        # path 0-1-2-3-4; node 2 crashes immediately: 3 and 4 never learn
        g = path_graph(5)
        dists, fm, _ = reliable_single_source_distances(
            g, 0, crashes={2: 0}, seed=11)
        assert dists[1] == 1.0
        assert math.isinf(dists[3]) and math.isinf(dists[4])
        assert fm.blocked > 0

    def test_late_crash_after_convergence_is_harmless(self):
        g = path_graph(6)
        dists, _, _ = reliable_single_source_distances(
            g, 0, crashes={3: 50}, seed=12)
        assert dists == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


class TestFaultClock:
    def test_crash_round_is_the_runs_round_not_the_accumulators(self):
        """``metrics=`` may arrive pre-charged (it sums constructions);
        a crash scheduled for round 4 must still happen at round 4 of
        *this* run — node 3 hears its distance at round 3, before it."""
        def run(metrics):
            fm = FaultModel(crashes={3: 4})
            sim = FaultySimulator(
                path_graph(4), lambda u: ReliableBellmanFordProgram(u, 0),
                seed=13, fault_model=fm, metrics=metrics)
            before = metrics.rounds
            res = sim.run()
            return ([p.result() for p in res.programs],
                    metrics.rounds - before, fm.blocked, fm.dropped)

        fresh, charged = run(RunMetrics()), run(RunMetrics(rounds=5))
        assert fresh[0] == [0.0, 1.0, 2.0, 3.0]
        assert charged == fresh


class TestProgramValidation:
    def test_bad_period_rejected(self):
        with pytest.raises(ConfigError):
            ReliableBellmanFordProgram(0, 0, period=0)

    def test_bad_patience_rejected(self):
        with pytest.raises(ConfigError):
            ReliableBellmanFordProgram(0, 0, patience=0)
