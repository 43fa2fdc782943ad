"""The Graph type (repro.graphs.graph)."""

import pytest

from repro.errors import GraphError
from repro.graphs import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(5)
        assert g.n == 5
        assert g.m == 0

    def test_zero_nodes_rejected(self):
        with pytest.raises(GraphError):
            Graph(0)

    def test_edges_in_constructor(self):
        g = Graph(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert g.m == 2
        assert g.weight(0, 1) == 2.0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(2).add_edge(1, 1, 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(2).add_edge(0, 2, 1.0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphError):
            Graph(2).add_edge(0, 1, 0.0)
        with pytest.raises(GraphError):
            Graph(2).add_edge(0, 1, -1.0)

    def test_infinite_weight_rejected(self):
        with pytest.raises(GraphError):
            Graph(2).add_edge(0, 1, float("inf"))

    def test_duplicate_edge_overwrites(self):
        g = Graph(2, [(0, 1, 1.0)])
        g.add_edge(0, 1, 5.0)
        assert g.m == 1
        assert g.weight(0, 1) == 5.0


class TestQueries:
    def test_undirected_symmetry(self):
        g = Graph(3, [(0, 1, 2.5)])
        assert g.weight(1, 0) == 2.5
        assert g.has_edge(1, 0)

    def test_neighbors(self):
        g = Graph(4, [(0, 1, 1.0), (0, 2, 2.0)])
        assert g.neighbors(0) == {1: 1.0, 2: 2.0}
        assert g.degree(0) == 2
        assert g.degree(3) == 0

    def test_edges_iterates_once_per_edge(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        edges = list(g.edges())
        assert len(edges) == 3
        assert all(u < v for u, v, _ in edges)

    def test_missing_weight_raises(self):
        with pytest.raises(GraphError):
            Graph(3).weight(0, 1)

    def test_max_weight(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 7.0)])
        assert g.max_weight() == 7.0
        assert Graph(2).max_weight() == 0.0

    def test_set_weight_requires_existing_edge(self):
        g = Graph(3, [(0, 1, 1.0)])
        g.set_weight(0, 1, 9.0)
        assert g.weight(1, 0) == 9.0
        with pytest.raises(GraphError):
            g.set_weight(1, 2, 1.0)


class TestStructure:
    def test_connected(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert g.is_connected()

    def test_disconnected(self):
        g = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert not g.is_connected()

    def test_singleton_is_connected(self):
        assert Graph(1).is_connected()

    def test_validate_rejects_disconnected(self):
        with pytest.raises(GraphError, match="not connected"):
            Graph(4, [(0, 1, 1.0), (2, 3, 1.0)]).validate()

    def test_validate_rejects_superpolynomial_weights(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 3.0**40)])
        with pytest.raises(GraphError, match="polynomial"):
            g.validate()

    def test_validate_accepts_model_graph(self):
        Graph(3, [(0, 1, 1.0), (1, 2, 2.0)]).validate()


class TestConversions:
    def test_csr_round_trip(self):
        g = Graph(3, [(0, 1, 2.0), (1, 2, 3.0)])
        csr = g.to_csr()
        assert csr.shape == (3, 3)
        assert csr[0, 1] == 2.0
        assert csr[1, 0] == 2.0

    def test_csr_cache_invalidated_on_mutation(self):
        g = Graph(3, [(0, 1, 2.0)])
        _ = g.to_csr()
        g.add_edge(1, 2, 4.0)
        assert g.to_csr()[1, 2] == 4.0

    def test_to_networkx(self):
        g = Graph(3, [(0, 1, 2.0), (1, 2, 3.0)])
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == 3
        assert nxg[0][1]["weight"] == 2.0

    def test_copy_is_deep_for_adjacency(self):
        g = Graph(3, [(0, 1, 2.0)])
        h = g.copy()
        h.add_edge(1, 2, 1.0)
        assert g.m == 1 and h.m == 2

    def test_copy_is_independent_both_ways(self):
        g = Graph(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0)])
        before = g.to_csr().toarray()
        h = g.copy()
        assert h == g and h.m == g.m == 3
        assert list(h.edges()) == list(g.edges())
        # mutate the copy: the original and its cached CSR stay put
        h.remove_edge(1, 2)
        h.set_weight(0, 1, 9.0)
        h.add_edge(0, 3, 1.0)
        assert (g.m, h.m) == (3, 3)
        assert g.weight(0, 1) == 2.0 and g.has_edge(1, 2)
        assert not g.has_edge(0, 3)
        assert (g.to_csr().toarray() == before).all()
        assert h.to_csr()[0, 1] == 9.0 and h.to_csr()[1, 2] == 0.0
        # mutate the original: the copy and its CSR stay put
        after = h.to_csr().toarray()
        g.remove_edge(2, 3)
        g.set_weight(1, 2, 7.0)
        assert (g.m, h.m) == (2, 3)
        assert h.weight(2, 3) == 4.0 and not h.has_edge(1, 2)
        assert (h.to_csr().toarray() == after).all()

    def test_equality(self):
        a = Graph(2, [(0, 1, 1.0)])
        b = Graph(2, [(0, 1, 1.0)])
        assert a == b
        b.set_weight(0, 1, 2.0)
        assert a != b

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph(2))
