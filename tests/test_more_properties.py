"""Second property-test battery: super-source, slack
semantics, routing-vs-estimate consistency, and metric sanity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, apsp

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def graph_from_seed(seed: int, max_n: int = 14) -> Graph:
    """Deterministic small connected weighted graph from an integer seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n))
    g = Graph(n)
    for v in range(1, n):
        g.add_edge(int(rng.integers(0, v)), v, float(rng.integers(1, 10)))
    for _ in range(int(rng.integers(0, n + 1))):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, float(rng.integers(1, 10)))
    return g


class TestSuperSourceProperties:
    @settings(max_examples=20, **COMMON)
    @given(seed=st.integers(0, 10**6),
           members_seed=st.integers(0, 10**6))
    def test_matches_centralized_on_random_instances(self, nearest_in_set,
                                                     seed, members_seed):
        from repro.algorithms import distances_to_set

        g = graph_from_seed(seed)
        rng = np.random.default_rng(members_seed)
        size = int(rng.integers(1, g.n + 1))
        members = sorted(rng.choice(g.n, size=size, replace=False).tolist())
        got, _ = distances_to_set(g, members, seed=seed)
        want = nearest_in_set(apsp(g), members)
        for (gd, gw), (wd, ww) in zip(got, want):
            assert gd == pytest.approx(wd)
            assert gw == ww


class TestSlackSemanticsProperties:
    @settings(max_examples=20, **COMMON)
    @given(seed=st.integers(0, 10**6),
           eps=st.floats(min_value=0.05, max_value=0.95))
    def test_eps_far_counts_match_definition(self, seed, eps):
        from repro.oracle.evaluation import eps_far_mask

        g = graph_from_seed(seed)
        d = apsp(g)
        far = eps_far_mask(d, eps)
        n = g.n
        for u in range(n):
            for v in range(n):
                if u == v:
                    assert not far[u, v]
                    continue
                closer = int(np.sum(d[u] < d[u, v]))
                assert far[u, v] == (closer >= eps * n)

    @settings(max_examples=15, **COMMON)
    @given(seed=st.integers(0, 10**6))
    def test_slack_coverage_decreases_in_eps(self, seed):
        from repro.oracle.evaluation import slack_coverage

        g = graph_from_seed(seed)
        if g.n < 3:
            return
        d = apsp(g)
        cov = [slack_coverage(d, e) for e in (0.1, 0.4, 0.8)]
        assert cov[0] >= cov[1] >= cov[2]


class TestRoutingVsEstimateProperties:
    @settings(max_examples=15, **COMMON)
    @given(seed=st.integers(0, 10**6), k=st.integers(1, 3))
    def test_routes_realize_real_walks(self, seed, k):
        """Every routed path is a walk in the graph whose weight is the
        route weight, lower-bounded by the true distance."""
        from repro.routing import build_routing_scheme, route_packet

        g = graph_from_seed(seed, max_n=10)
        d = apsp(g)
        scheme = build_routing_scheme(g, k=k, seed=seed)
        for u in range(g.n):
            for v in range(g.n):
                res = route_packet(scheme, g, u, v)
                w = sum(g.weight(a, b)
                        for a, b in zip(res.path, res.path[1:]))
                assert w == pytest.approx(res.weight)
                assert res.weight >= d[u, v] - 1e-9
                assert res.weight <= scheme.stretch_bound() * d[u, v] + 1e-9


class TestGeneratorProperties:
    @settings(max_examples=25, **COMMON)
    @given(n=st.integers(2, 60), seed=st.integers(0, 10**6))
    def test_er_always_connected_and_valid(self, n, seed):
        from repro.graphs import erdos_renyi

        g = erdos_renyi(n, seed=seed)
        g.validate()  # connected + polynomial weights

    @settings(max_examples=15, **COMMON)
    @given(n=st.integers(2, 50), seed=st.integers(0, 10**6))
    def test_geometric_weights_metric_like(self, n, seed):
        from repro.graphs import random_geometric

        g = random_geometric(n, seed=seed)
        d = apsp(g)
        assert np.all(np.isfinite(d))
        # symmetry + zero diagonal = a genuine metric matrix
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0)
