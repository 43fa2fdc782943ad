"""Property-based tests (hypothesis) on the core invariants.

Strategy: generate small random weighted connected graphs plus construction
parameters, and check the paper's invariants hold on *every* generated
instance — estimates never undershoot, stretch bounds hold, bunches invert
clusters, hierarchies nest, nets cover.
"""

from __future__ import annotations


import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distkey import DistKey, min_key
from repro.graphs import Graph, apsp
from repro.oracle.evaluation import eps_far_mask
from repro.tz import (
    brute_force_bunches,
    build_tz_sketches_centralized,
    estimate_distance,
    sample_hierarchy,
)

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


@st.composite
def connected_graphs(draw, max_n=14):
    """Random connected weighted graph: spanning tree + extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    weights = st.integers(min_value=1, max_value=12)
    g = Graph(n)
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        g.add_edge(u, v, float(draw(weights)))
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, float(draw(weights)))
    return g


class TestDistKeyProperties:
    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                        allow_nan=False),
                              st.integers(min_value=0, max_value=50)),
                    min_size=1, max_size=20))
    def test_min_key_is_total_order_minimum(self, pairs):
        keys = [DistKey(d, v) for d, v in pairs]
        m = min_key(keys)
        assert all(not (k < m) for k in keys)
        assert m in keys

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False),
           st.integers(min_value=0, max_value=10**6))
    def test_strictness(self, d, v):
        k = DistKey(d, v)
        assert not k < k


class TestTZProperties:
    @settings(max_examples=25, **COMMON)
    @given(g=connected_graphs(), k=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_estimate_sandwich(self, g, k, seed):
        """d <= estimate <= (2k-1) d for every pair, every instance."""
        sketches, _ = build_tz_sketches_centralized(g, k=k, seed=seed)
        d = apsp(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                est = estimate_distance(sketches[u], sketches[v])
                assert d[u, v] - 1e-9 <= est <= (2 * k - 1) * d[u, v] + 1e-9

    @settings(max_examples=25, **COMMON)
    @given(g=connected_graphs(), k=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_classic_query_sandwich(self, g, k, seed):
        sketches, _ = build_tz_sketches_centralized(g, k=k, seed=seed)
        d = apsp(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                est = estimate_distance(sketches[u], sketches[v],
                                        method="classic")
                assert d[u, v] - 1e-9 <= est <= (2 * k - 1) * d[u, v] + 1e-9

    @settings(max_examples=20, **COMMON)
    @given(g=connected_graphs(), k=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_bunches_match_definition(self, g, k, seed):
        """Cluster-growing == brute-force definition on every instance."""
        h = sample_hierarchy(g.n, k, seed=seed)
        sketches, _ = build_tz_sketches_centralized(g, hierarchy=h)
        brute = brute_force_bunches(g, h)
        for u in range(g.n):
            assert sketches[u].bunch == brute[u]

    @settings(max_examples=20, **COMMON)
    @given(g=connected_graphs(max_n=10), seed=st.integers(0, 10**6))
    def test_distributed_equals_centralized(self, g, seed):
        """The headline differential property, on random instances."""
        from repro.tz import build_tz_sketches_distributed

        h = sample_hierarchy(g.n, 2, seed=seed)
        cs, _ = build_tz_sketches_centralized(g, hierarchy=h)
        res = build_tz_sketches_distributed(g, hierarchy=h, seed=seed)
        for a, b in zip(cs, res.sketches):
            assert a.pivots == b.pivots
            assert a.bunch == b.bunch

    @settings(max_examples=15, **COMMON)
    @given(g=connected_graphs(max_n=9), seed=st.integers(0, 10**6))
    def test_echo_mode_equals_centralized(self, g, seed):
        from repro.tz import build_tz_sketches_distributed

        h = sample_hierarchy(g.n, 2, seed=seed)
        cs, _ = build_tz_sketches_centralized(g, hierarchy=h)
        res = build_tz_sketches_distributed(g, hierarchy=h, sync="echo",
                                            seed=seed)
        for a, b in zip(cs, res.sketches):
            assert a.pivots == b.pivots
            assert a.bunch == b.bunch


class TestHierarchyProperties:
    @given(n=st.integers(min_value=1, max_value=300),
           k=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_nesting_and_partition(self, n, k, seed):
        h = sample_hierarchy(n, k, seed=seed)
        levels = [set(h.A(i).tolist()) for i in range(k + 1)]
        for a, b in zip(levels, levels[1:]):
            assert b <= a
        assert levels[0] == set(range(n))
        assert levels[k] == set()
        assert h.A(k - 1).size > 0


class TestSlackProperties:
    @settings(max_examples=15, **COMMON)
    @given(g=connected_graphs(max_n=12),
           eps=st.sampled_from([0.2, 0.4, 0.7]),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_stretch3_sandwich_on_far_pairs(self, g, eps, seed):
        from repro.slack.stretch3 import build_stretch3_centralized

        d = apsp(g)
        sketches, _ = build_stretch3_centralized(g, eps, seed=seed)
        far = eps_far_mask(d, eps)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                est = sketches[u].estimate_to(sketches[v])
                assert est >= d[u, v] - 1e-9
                if far[u, v] or far[v, u]:
                    assert est <= 3 * d[u, v] + 1e-9

    @settings(max_examples=15, **COMMON)
    @given(g=connected_graphs(max_n=12),
           eps=st.sampled_from([0.3, 0.6]),
           k=st.integers(min_value=1, max_value=2),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_cdg_sandwich_on_far_pairs(self, g, eps, k, seed):
        from repro.slack.cdg import build_cdg_centralized

        d = apsp(g)
        sketches, _, _ = build_cdg_centralized(g, eps, k, seed=seed)
        far = eps_far_mask(d, eps)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                est = sketches[u].estimate_to(sketches[v])
                assert est >= d[u, v] - 1e-9
                if far[u, v] or far[v, u]:
                    assert est <= (8 * k - 1) * d[u, v] + 1e-9

    @settings(max_examples=10, **COMMON)
    @given(g=connected_graphs(max_n=10),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_graceful_worst_case(self, g, seed):
        from repro.slack.graceful import build_graceful_centralized

        d = apsp(g)
        sketches, schedule = build_graceful_centralized(g, seed=seed)
        bound = 8 * len(schedule) - 1
        for u in range(g.n):
            for v in range(u + 1, g.n):
                est = sketches[u].estimate_to(sketches[v])
                assert d[u, v] - 1e-9 <= est <= bound * d[u, v] + 1e-9


class TestNetProperties:
    @settings(max_examples=20, **COMMON)
    @given(g=connected_graphs(max_n=14),
           eps=st.sampled_from([0.2, 0.5, 0.9]),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_small_n_nets_cover(self, g, eps, seed):
        # for n <= 14 the sampling probability is 1 (5 ln n / (eps n) >= 1),
        # so the net is all of V and coverage is deterministic
        from repro.slack.density_net import (sample_density_net,
                                             verify_density_net)

        d = apsp(g)
        net = sample_density_net(g.n, eps, seed=seed)
        rep = verify_density_net(d, net)
        assert rep["coverage_ok"]


class TestSimulatorProperties:
    @settings(max_examples=20, **COMMON)
    @given(g=connected_graphs(max_n=12),
           src=st.integers(min_value=0, max_value=11),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_bellman_ford_exact_on_random_graphs(self, g, src, seed):
        from repro.algorithms import single_source_distances

        src = src % g.n
        dists, _, _ = single_source_distances(g, src, seed=seed)
        d = apsp(g)
        assert np.allclose(dists, d[src])
