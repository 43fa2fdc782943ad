"""(ε,k)-CDG sketches (repro.slack.cdg, Theorem 4.6)."""

import math

import numpy as np
import pytest

from repro.errors import ConfigError, QueryError
from repro.graphs import (Graph, apsp, assign_exponential_weights,
                          assign_uniform_weights, erdos_renyi,
                          random_geometric)
from repro.oracle.evaluation import eps_far_mask
from repro.slack.cdg import (
    build_cdg_centralized,
    build_cdg_distributed,
    cdg_artifacts,
    cdg_sampling_probability,
    cdg_sketches,
    gateway_columns,
)
from repro.slack.density_net import DensityNet, sample_density_net
from repro.tz.hierarchy import sample_hierarchy

EPS, K = 0.25, 2


@pytest.fixture(scope="module")
def shared(er_weighted):
    net = sample_density_net(er_weighted.n, EPS, seed=71)
    h = sample_hierarchy(er_weighted.n, K,
                         q=cdg_sampling_probability(er_weighted.n, EPS, K),
                         universe=net.members, seed=72)
    return net, h


class TestSamplingProbability:
    def test_formula(self):
        q = cdg_sampling_probability(100, 0.1, 2)
        assert q == pytest.approx((10 / 0.1 * math.log(100)) ** -0.5)

    def test_clamped(self):
        assert cdg_sampling_probability(3, 1.0, 50) <= 1.0

    def test_k_validation(self):
        with pytest.raises(ConfigError):
            cdg_sampling_probability(10, 0.5, 0)


class TestBuildEquivalence:
    def test_distributed_matches_centralized(self, er_weighted, er_float,
                                             shared):
        """The gateway sweep and the super-source run both start from
        the net: equal gateways to the bit, non-integral weights
        included; labels equal on the integer-weighted graph."""
        net, h = shared
        cs, _, _ = build_cdg_centralized(er_weighted, EPS, K, net=net,
                                         hierarchy=h)
        ds, _, _, metrics = build_cdg_distributed(er_weighted, EPS, K,
                                                  net=net, hierarchy=h,
                                                  seed=73)
        for a, b in zip(cs, ds):
            assert (a.gateway, a.gateway_dist) == (b.gateway, b.gateway_dist)
            assert a.label.pivots == b.label.pivots
            assert a.label.bunch == b.label.bunch
        assert metrics.rounds >= 1
        cs, _, _ = build_cdg_centralized(er_float, EPS, K, net=net,
                                         hierarchy=h)
        ds, _, _, _ = build_cdg_distributed(er_float, EPS, K, net=net,
                                            hierarchy=h, seed=73)
        assert [(a.gateway, a.gateway_dist) for a in cs] == \
            [(b.gateway, b.gateway_dist) for b in ds]

    def test_gateway_is_nearest_net_node(self, er_weighted,
                                         er_weighted_apsp, shared):
        net, h = shared
        cs, _, _ = build_cdg_centralized(er_weighted, EPS, K, net=net,
                                         hierarchy=h)
        members = np.asarray(net.members)
        for u, s in enumerate(cs):
            assert s.gateway in net.members
            assert s.gateway_dist == pytest.approx(
                er_weighted_apsp[u, members].min())

    def test_net_node_is_own_gateway(self, er_weighted, shared):
        net, h = shared
        cs, _, _ = build_cdg_centralized(er_weighted, EPS, K, net=net,
                                         hierarchy=h)
        for w in net.members:
            assert cs[w].gateway == w
            assert cs[w].gateway_dist == 0.0

    def test_labels_live_on_net_only(self, er_weighted, shared):
        net, h = shared
        cs, _, _ = build_cdg_centralized(er_weighted, EPS, K, net=net,
                                         hierarchy=h)
        net_set = set(net.members)
        for s in cs:
            assert s.label.node in net_set
            assert set(s.label.bunch) <= net_set


def _pairs(columns) -> list[tuple[float, int]]:
    dist, witness = columns
    return list(zip(dist.tolist(), witness.tolist()))


class TestGatewaySweep:
    """:func:`gateway_columns` against the dense reference."""

    @pytest.mark.parametrize("family", ["er-uniform", "er-exponential",
                                        "rgg"])
    def test_equals_the_dense_reference(self, nearest_in_set, family):
        g = {"er-uniform": lambda: assign_uniform_weights(
                 erdos_renyi(120, seed=11), seed=12),
             "er-exponential": lambda: assign_exponential_weights(
                 erdos_renyi(120, seed=13), seed=14),
             "rgg": lambda: random_geometric(120, seed=15)}[family]()
        for eps in (0.5, 0.1):
            members = sample_density_net(g.n, eps, seed=16).members
            got = _pairs(gateway_columns(g, members))
            assert got == nearest_in_set(apsp(g), members)
            assert all(type(d) is float and type(w) is int for d, w in got)

    def test_disconnected_graph(self, nearest_in_set):
        # components {0, 1} and {2, 3, 4}; the net lives in the second
        g = Graph(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 2.0)])
        net = DensityNet(eps=0.5, n=5, members=(3,))
        got = _pairs(gateway_columns(g, net.members))
        assert got == nearest_in_set(apsp(g), net.members)
        assert got[:2] == [(math.inf, -1)] * 2
        artifacts = cdg_artifacts(g, 1, {"eps": 0.5, "k": 1, "net": net})
        with pytest.raises(QueryError, match="strands node 0"):
            cdg_sketches(g, artifacts)


class TestGuarantees:
    def test_never_underestimates(self, er_weighted, er_weighted_apsp,
                                  shared):
        net, h = shared
        cs, _, _ = build_cdg_centralized(er_weighted, EPS, K, net=net,
                                         hierarchy=h)
        n = er_weighted.n
        for u in range(n):
            for v in range(u + 1, n):
                assert cs[u].estimate_to(cs[v]) >= \
                    er_weighted_apsp[u, v] - 1e-9

    def test_stretch_bound_on_far_pairs(self, er_weighted, er_weighted_apsp,
                                        shared):
        net, h = shared
        cs, _, _ = build_cdg_centralized(er_weighted, EPS, K, net=net,
                                         hierarchy=h)
        far = eps_far_mask(er_weighted_apsp, EPS)
        n = er_weighted.n
        bound = 8 * K - 1
        checked = 0
        for u in range(n):
            for v in range(u + 1, n):
                if far[u, v] or far[v, u]:
                    assert cs[u].estimate_to(cs[v]) <= \
                        bound * er_weighted_apsp[u, v] + 1e-9
                    checked += 1
        assert checked > 0

    def test_size_words_accounting(self, er_weighted, shared):
        net, h = shared
        cs, _, _ = build_cdg_centralized(er_weighted, EPS, K, net=net,
                                         hierarchy=h)
        s = cs[0]
        assert s.size_words() == 2 + s.label.size_words()

    def test_smaller_than_stretch3_for_small_eps(self):
        # the whole point of CDG: size sublinear in 1/eps.  The advantage
        # is asymptotic, so use a larger instance (centralized build is
        # cheap) where the net is a strict subset of V
        from repro.graphs import erdos_renyi
        from repro.slack.stretch3 import build_stretch3_centralized

        g = erdos_renyi(300, seed=75)
        eps = 0.15
        s3, _ = build_stretch3_centralized(g, eps, seed=74)
        cdg, _, _ = build_cdg_centralized(g, eps, 2, seed=74)
        assert np.mean([c.size_words() for c in cdg]) < \
            np.mean([s.size_words() for s in s3])

    def test_same_node_zero(self, er_weighted, shared):
        net, h = shared
        cs, _, _ = build_cdg_centralized(er_weighted, EPS, K, net=net,
                                         hierarchy=h)
        assert cs[5].estimate_to(cs[5]) == 0.0
