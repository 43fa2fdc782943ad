"""The Graph type (repro.graphs.graph)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_validate_names_the_first_heavy_edge_in_edge_order(self):
        g = Graph(4)
        g.add_edge(1, 2, 1.0)
        g.add_edge(0, 3, 5.0**9)
        g.add_edge(0, 1, 6.0**9)
        g.add_edge(2, 3, 7.0**9)
        with pytest.raises(GraphError, match=r"edge \(0,3\) weight"):
            g.validate()

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph(2))


# ----------------------------------------------------------------------
# the bulk constructor against a loop of add_edge calls
# ----------------------------------------------------------------------
GOOD_WEIGHTS = st.one_of(st.integers(1, 100),
                         st.floats(min_value=1e-3, max_value=1e6))
BAD_WEIGHTS = st.sampled_from([0, 0.0, -1, -2.5, math.inf, -math.inf,
                               math.nan])


@st.composite
def edge_lists(draw, bad):
    """``(n, edges)``: random valid edges, some of them repeated (half of
    those reversed) with fresh weights; with ``bad``, a few invalid edges
    (id out of range, self-loop, weight <= 0, inf or NaN) inserted too."""
    n = draw(st.integers(2, 12))
    node = st.integers(0, n - 1)
    pair = st.tuples(node, st.integers(1, n - 1)).map(
        lambda e: (e[0], (e[0] + e[1]) % n))  # two distinct nodes
    pairs = draw(st.lists(pair, max_size=40))
    if pairs:
        again = draw(st.lists(st.sampled_from(pairs), max_size=10))
        pairs.extend((v, u) if draw(st.booleans()) else (u, v)
                     for u, v in again)
    edges = [(u, v, draw(GOOD_WEIGHTS)) for u, v in pairs]
    if bad:
        wrong = st.one_of(
            st.tuples(st.sampled_from([-1, n, n + 3]), node, GOOD_WEIGHTS),
            st.tuples(node, st.sampled_from([-2, n]), GOOD_WEIGHTS),
            node.map(lambda u: (u, u, 1.0)),
            st.tuples(pair, BAD_WEIGHTS).map(lambda e: (*e[0], e[1])))
        for e in draw(st.lists(wrong, min_size=1, max_size=3)):
            edges.insert(draw(st.integers(0, len(edges))), e)
    return n, edges


def _outcome(build):
    """What a construction gives: its adjacency in iteration order, ``m``
    and CSR arrays, or the message of the GraphError it raised."""
    try:
        g = build()
    except GraphError as exc:
        return str(exc)
    csr = g.to_csr()
    return ([list(g.neighbors(u).items()) for u in g.nodes()], g.m,
            csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist())


def _one_by_one(n, edges):
    g = Graph(n)
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return g


class TestBulkConstruction:
    @settings(max_examples=150, deadline=None)
    @given(case=st.booleans().flatmap(edge_lists))
    def test_bulk_equals_add_edge_in_order(self, case):
        n, edges = case
        assert _outcome(lambda: Graph(n, edges)) == \
            _outcome(lambda: _one_by_one(n, edges))
        # the array form, against add_edge over the same array items
        u, v, w = (np.array([e[i] for e in edges], dtype=dtype)
                   for i, dtype in enumerate((np.int64, np.int64, float)))
        items = list(zip(u.tolist(), v.tolist(), w.tolist()))
        assert _outcome(lambda: Graph.from_arrays(n, u, v, w)) == \
            _outcome(lambda: _one_by_one(n, items))

    def test_neighbours_keep_first_appearance_and_last_weight(self):
        g = Graph.from_arrays(4, [2, 0, 3, 2, 1], [0, 3, 2, 0, 0],
                              [1.0, 2.0, 3.0, 4.0, 5.0])
        assert list(g.neighbors(0).items()) == [(2, 4.0), (3, 2.0), (1, 5.0)]
        assert list(g.neighbors(2).items()) == [(0, 4.0), (3, 3.0)]
        assert g.m == 4

    def test_one_weight_for_every_edge(self):
        g = Graph.from_arrays(3, [0, 1], [1, 2], 2.5)
        assert list(g.edges()) == [(0, 1, 2.5), (1, 2, 2.5)]

    def test_first_bad_edge_is_named_with_the_callers_value(self):
        with pytest.raises(GraphError, match=r"got -1$"):
            Graph(3, [(0, 1, 1.0), (1, 2, -1), (0, 5, 1.0)])
        with pytest.raises(GraphError, match=r"node 5 out of range"):
            Graph.from_arrays(3, [0, 0, 1], [1, 5, 1], [1.0, 1.0, 1.0])
