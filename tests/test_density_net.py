"""ε-density nets (repro.slack.density_net, Lemma 4.2)."""

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.slack.density_net import (
    DensityNet,
    ball_radii,
    build_density_net_distributed,
    cdg_original_net,
    sample_density_net,
    sampling_probability,
    verify_density_net,
)


class TestSamplingProbability:
    def test_formula(self):
        assert sampling_probability(100, 0.5) == pytest.approx(
            5 * math.log(100) / (0.5 * 100))

    def test_capped_at_one(self):
        assert sampling_probability(10, 0.01) == 1.0

    def test_eps_validation(self):
        with pytest.raises(ConfigError):
            sampling_probability(10, 0.0)
        with pytest.raises(ConfigError):
            sampling_probability(10, 1.5)


class TestSampling:
    def test_nonempty(self):
        for seed in range(10):
            assert sample_density_net(50, 0.3, seed=seed).size() > 0

    def test_tiny_eps_takes_everyone(self):
        net = sample_density_net(20, 0.01, seed=1)
        assert net.size() == 20  # p = 1

    def test_members_sorted_unique(self):
        net = sample_density_net(100, 0.2, seed=2)
        assert list(net.members) == sorted(set(net.members))

    def test_reproducible(self):
        assert sample_density_net(60, 0.25, seed=3).members == \
            sample_density_net(60, 0.25, seed=3).members

    def test_size_concentrates(self):
        # E|N| = 5 ln n / eps; check within factor ~2.5 at n=2000
        n, eps = 2000, 0.1
        net = sample_density_net(n, eps, seed=4)
        expected = 5 * math.log(n) / eps
        assert expected / 2.5 <= net.size() <= 2.5 * expected


class TestBallRadii:
    def test_monotone_in_eps(self, er_weighted, er_weighted_apsp):
        r_small = ball_radii(er_weighted_apsp, 0.1)
        r_big = ball_radii(er_weighted_apsp, 0.9)
        assert np.all(r_small <= r_big)

    def test_tiny_eps_radius_zero(self, er_weighted_apsp):
        # ceil(eps*n) = 1 -> the ball {u} itself suffices
        r = ball_radii(er_weighted_apsp, 1e-9)
        assert np.all(r == 0.0)

    def test_eps_one_is_eccentricity(self, er_weighted_apsp):
        r = ball_radii(er_weighted_apsp, 1.0)
        assert np.allclose(r, er_weighted_apsp.max(axis=1))

    def test_definition_exact(self, er_weighted_apsp):
        # |B(u, R(u, eps))| >= eps*n, and no smaller radius works
        eps = 0.3
        n = er_weighted_apsp.shape[0]
        need = math.ceil(eps * n)
        r = ball_radii(er_weighted_apsp, eps)
        for u in range(n):
            within = np.sum(er_weighted_apsp[u] <= r[u])
            assert within >= need
            strictly_within = np.sum(er_weighted_apsp[u] < r[u])
            assert strictly_within < need


class TestVerification:
    def test_lemma42_holds_whp(self, er_weighted, er_weighted_apsp):
        ok = 0
        trials = 20
        for seed in range(trials):
            net = sample_density_net(er_weighted.n, 0.25, seed=seed)
            rep = verify_density_net(er_weighted_apsp, net)
            ok += rep["coverage_ok"] and rep["size_ok"]
        assert ok >= trials - 2  # w.h.p., allow rare failures

    def test_report_fields(self, er_weighted_apsp):
        net = sample_density_net(er_weighted_apsp.shape[0], 0.25, seed=1)
        rep = verify_density_net(er_weighted_apsp, net)
        assert set(rep) >= {"coverage_ok", "size_ok", "size", "size_bound"}

    def test_full_net_always_valid(self, er_weighted_apsp):
        n = er_weighted_apsp.shape[0]
        net = DensityNet(eps=0.5, n=n, members=tuple(range(n)))
        rep = verify_density_net(er_weighted_apsp, net)
        assert rep["coverage_ok"]


class TestDistributedConstruction:
    def test_assignments_match_centralized(self, er_weighted,
                                           er_weighted_apsp, nearest_in_set):
        net, assignments, metrics = build_density_net_distributed(
            er_weighted, 0.3, seed=9)
        want = nearest_in_set(er_weighted_apsp, net.members)
        for (gd, gw), (wd, ww) in zip(assignments, want):
            assert gd == pytest.approx(wd)
            assert gw == ww
        assert metrics.rounds >= 1


class TestCDGOriginalNet:
    """The A2 ablation: original [CDG06] parameters."""

    def test_small_cardinality(self, er_weighted_apsp):
        net = cdg_original_net(er_weighted_apsp, 0.3)
        # ~1/eps nodes, far fewer than the sampled (10/eps) ln n
        assert net.size() <= math.ceil(1 / 0.3) + 2

    def test_2R_coverage(self, er_weighted_apsp):
        eps = 0.3
        net = cdg_original_net(er_weighted_apsp, eps)
        radii = ball_radii(er_weighted_apsp, eps)
        members = np.asarray(net.members)
        d_to_net = er_weighted_apsp[:, members].min(axis=1)
        assert np.all(d_to_net <= 2.0 * radii + 1e-9)
