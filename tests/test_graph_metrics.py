"""Exact distances and diameters (repro.graphs.metrics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from repro.errors import GraphError
from repro.graphs import (
    Graph,
    apsp,
    apsp_hops,
    graph_stats,
    grid2d,
    hop_diameter,
    path_graph,
    ring,
    shortest_path_diameter,
    star_path,
    weighted_diameter,
)
from repro.graphs.metrics import (single_source_hops_on_shortest_paths,
                                  symmetric_dijkstra)


class TestAPSP:
    def test_path_distances(self):
        d = apsp(path_graph(4))
        assert d[0, 3] == 3.0
        assert d[1, 2] == 1.0

    def test_weighted(self, weighted_diamond):
        d = apsp(weighted_diamond)
        assert d[0, 3] == 2.0  # via 0-1-3, not the weight-10 direct edge

    def test_symmetric(self, er_weighted):
        d = apsp(er_weighted)
        assert np.allclose(d, d.T)

    def test_zero_diagonal(self, er_weighted):
        assert np.all(np.diag(apsp(er_weighted)) == 0.0)

    def test_triangle_inequality(self, er_weighted):
        d = apsp(er_weighted)
        # d[u,v] <= d[u,w] + d[w,v] for all w — vectorized check
        via = d[:, :, None] + d[None, :, :]  # via[u, w, v]
        assert np.all(d[:, None, :] <= via.transpose(0, 1, 2) + 1e-9)

    def test_matches_networkx(self, er_weighted):
        import networkx as nx

        d = apsp(er_weighted)
        nxd = dict(nx.all_pairs_dijkstra_path_length(er_weighted.to_networkx()))
        for u in er_weighted.nodes():
            for v in er_weighted.nodes():
                assert d[u, v] == pytest.approx(nxd[u][v])

    def test_singleton(self):
        assert apsp(Graph(1)).shape == (1, 1)


@st.composite
def weighted_graphs(draw):
    """Unit, integer 1–3 (ties everywhere) or float weights, sparse
    enough at the low end to fall apart."""
    n = draw(st.integers(min_value=2, max_value=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("unit", "int", "float")))
    p = draw(st.sampled_from((0.05, 0.15, 0.5)))
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v, {"unit": 1.0,
                                  "int": float(rng.integers(1, 4)),
                                  "float": float(rng.uniform(0.1, 10.0)),
                                  }[kind])
    return g


class TestSymmetricDijkstra:
    @settings(max_examples=60, deadline=None)
    @given(weighted_graphs(), st.data())
    def test_directed_sweep_is_the_undirected_one(self, g, data):
        """``to_csr()`` stores both half-edges of every edge, so reading
        it as directed gives scipy's undirected answer bit for bit."""
        csr = g.to_csr()
        assert np.array_equal(symmetric_dijkstra(csr),
                              dijkstra(csr, directed=False))
        sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1,
                                     max_size=4))
        for min_only in (False, True):
            assert np.array_equal(
                symmetric_dijkstra(csr, indices=sources, min_only=min_only),
                dijkstra(csr, directed=False, indices=sources,
                         min_only=min_only))

    def test_disconnected_pairs_stay_infinite(self):
        d = symmetric_dijkstra(Graph(4, [(0, 1, 1.5), (2, 3, 2.0)]).to_csr())
        assert np.isinf(d[0, 2]) and d[2, 3] == 2.0


class TestHops:
    def test_hops_ignore_weights(self, weighted_diamond):
        h = apsp_hops(weighted_diamond)
        assert h[0, 3] == 1.0  # the direct heavy edge is one hop

    def test_hop_diameter_grid(self):
        assert hop_diameter(grid2d(4, 4)) == 6

    def test_hop_diameter_disconnected_raises(self):
        with pytest.raises(GraphError):
            hop_diameter(Graph(3, [(0, 1, 1.0)]))


class TestShortestPathDiameter:
    def test_unit_weights_make_S_equal_D(self, er_unit):
        assert shortest_path_diameter(er_unit) == hop_diameter(er_unit)

    def test_ring(self):
        assert shortest_path_diameter(ring(10)) == 5

    def test_star_path_gap(self):
        g = star_path(15)
        assert shortest_path_diameter(g) == 14
        assert hop_diameter(g) == 2

    def test_S_at_least_D(self, er_weighted, er_heavy, geo_graph):
        for g in (er_weighted, er_heavy, geo_graph):
            assert shortest_path_diameter(g) >= hop_diameter(g)

    def test_equal_weights_agree_with_the_per_source_search(self, er_unit):
        # the equal-weight shortcut returns D; the per-source
        # (dist, hops) search must find the same S
        g = er_unit.copy()
        for u, v, _ in list(g.edges()):
            g.set_weight(u, v, 2.5)
        per_source = max(
            single_source_hops_on_shortest_paths(g, s)[1].max()
            for s in g.nodes())
        assert shortest_path_diameter(g) == int(per_source) == hop_diameter(g)

    def test_min_hop_among_shortest_paths(self):
        # two shortest 0->3 paths of weight 4: 0-1-2-3 (3 hops, 1+1+2) and
        # 0-4-3 (2 hops, 2+2): h(0,3) must be 2
        g = Graph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0),
                      (0, 4, 2.0), (4, 3, 2.0)])
        dist, hops = single_source_hops_on_shortest_paths(g, 0)
        assert dist[3] == 4.0
        assert hops[3] == 2.0


class TestGraphStats:
    def test_bundle(self, er_unit):
        st = graph_stats(er_unit)
        assert st.n == er_unit.n
        assert st.m == er_unit.m
        assert st.hop_diameter == st.shortest_path_diameter  # unit weights
        row = st.as_row()
        assert row["n"] == er_unit.n and "S" in row

    def test_weighted_diameter(self):
        g = path_graph(3)
        g.set_weight(0, 1, 5.0)
        assert weighted_diameter(g) == 6.0
