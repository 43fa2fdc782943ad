"""Centralized Thorup-Zwick (repro.tz.centralized)."""

import heapq

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distkey import DistKey, INF_KEY
from repro.errors import ConfigError
from repro.graphs import Graph, apsp, path_graph
from repro.tz import (
    brute_force_bunches,
    build_tz_sketches_centralized,
    compute_bunches,
    compute_pivot_keys,
    sample_hierarchy,
)
from repro.tz.centralized import cluster_of


def multi_source_dijkstra_keys(graph, sources) -> list[DistKey]:
    """The label-setting reference for the pivot sweeps: per node, the
    minimum ``DistKey(d(u, s), s)`` over ``s`` in ``sources``, settled by
    a heap of ``(distance, witness, node)`` entries — a node extends its
    neighbours only from its final key."""
    best: list[DistKey] = [INF_KEY] * graph.n
    pq: list[tuple[float, int, int]] = []
    for s in sources:
        s = int(s)
        best[s] = DistKey(0.0, s)
        pq.append((0.0, s, s))
    heapq.heapify(pq)
    while pq:
        d, origin, u = heapq.heappop(pq)
        if (d, origin) > best[u]:
            continue
        for v, w in graph.neighbors(u).items():
            cand = (d + w, origin)  # a DistKey only once it wins
            if cand < best[v]:
                best[v] = DistKey(*cand)
                heapq.heappush(pq, (cand[0], origin, v))
    return best


class TestMultiSourceDijkstra:
    def test_single_source(self, er_weighted):
        keys = multi_source_dijkstra_keys(er_weighted, np.array([0]))
        d = apsp(er_weighted)
        assert all(keys[u].dist == pytest.approx(d[u, 0])
                   for u in er_weighted.nodes())
        assert all(k.node == 0 for k in keys)

    def test_witness_tie_break(self):
        g = path_graph(3)
        keys = multi_source_dijkstra_keys(g, np.array([0, 2]))
        assert keys[1] == DistKey(1.0, 0)  # equidistant, smaller ID wins

    def test_set_distance(self, er_weighted):
        srcs = np.array([3, 8, 20])
        keys = multi_source_dijkstra_keys(er_weighted, srcs)
        d = apsp(er_weighted)
        want = d[:, srcs].min(axis=1)
        assert np.allclose([k.dist for k in keys], want)


class TestPivots:
    def test_level0_pivot_is_self(self, er_weighted):
        h = sample_hierarchy(er_weighted.n, 3, seed=1)
        pk = compute_pivot_keys(er_weighted, h)
        for u in er_weighted.nodes():
            assert pk[0][u] == DistKey(0.0, u)

    def test_sentinel_level_is_infinite(self, er_weighted):
        h = sample_hierarchy(er_weighted.n, 3, seed=1)
        pk = compute_pivot_keys(er_weighted, h)
        assert all(k is INF_KEY for k in pk[3])

    def test_pivot_distances_monotone_in_level(self, er_weighted):
        h = sample_hierarchy(er_weighted.n, 3, seed=1)
        pk = compute_pivot_keys(er_weighted, h)
        for u in er_weighted.nodes():
            assert pk[0][u].dist <= pk[1][u].dist <= pk[2][u].dist

    def test_member_of_Ai_has_zero_pivot(self, er_weighted):
        h = sample_hierarchy(er_weighted.n, 3, seed=1)
        pk = compute_pivot_keys(er_weighted, h)
        for u in h.A(1):
            assert pk[1][int(u)] == DistKey(0.0, int(u))


class TestBunches:
    def test_matches_brute_force(self, er_weighted, er_heavy, small_grid):
        for g, seed in ((er_weighted, 1), (er_heavy, 2), (small_grid, 3)):
            h = sample_hierarchy(g.n, 3, seed=seed)
            fast = compute_bunches(g, h)
            slow = brute_force_bunches(g, h)
            assert fast == slow

    def test_self_in_own_bunch(self, er_weighted):
        h = sample_hierarchy(er_weighted.n, 3, seed=4)
        bunches = compute_bunches(er_weighted, h)
        for u in er_weighted.nodes():
            lvl = h.level_of(u)
            assert bunches[u][u] == (0.0, lvl)

    def test_top_level_bunch_is_all_of_top_set(self, er_weighted):
        h = sample_hierarchy(er_weighted.n, 3, seed=5)
        bunches = compute_bunches(er_weighted, h)
        top = set(int(x) for x in h.exact_level(2))
        for u in er_weighted.nodes():
            at_top = {v for v, (_, lvl) in bunches[u].items() if lvl == 2}
            assert at_top == top

    def test_member_of_next_level_has_empty_lower_bunch(self, er_weighted):
        # u in A_{i+1} has d(u, A_{i+1}) = 0 => B_i(u) is empty
        h = sample_hierarchy(er_weighted.n, 3, seed=6)
        bunches = compute_bunches(er_weighted, h)
        for u in h.A(1):
            u = int(u)
            level0 = [v for v, (_, lvl) in bunches[u].items() if lvl == 0]
            assert level0 == []

    def test_cluster_bunch_inversion(self, er_weighted):
        # u in C(w) <=> w in B(u) (paper Section 3.2)
        h = sample_hierarchy(er_weighted.n, 3, seed=7)
        pk = compute_pivot_keys(er_weighted, h)
        bunches = compute_bunches(er_weighted, h, pk)
        for i in range(3):
            for w in h.exact_level(i):
                w = int(w)
                cluster = cluster_of(er_weighted, w, i, pk[i + 1])
                members = {u for u in er_weighted.nodes() if w in bunches[u]}
                assert set(cluster) == members

    def test_k1_bunch_is_entire_graph(self, er_weighted):
        h = sample_hierarchy(er_weighted.n, 1, seed=8)
        bunches = compute_bunches(er_weighted, h)
        d = apsp(er_weighted)
        for u in er_weighted.nodes():
            assert len(bunches[u]) == er_weighted.n
            for v, (dist, lvl) in bunches[u].items():
                assert lvl == 0 and dist == pytest.approx(d[u, v])


class TestBuild:
    def test_requires_k_or_hierarchy(self, er_unit):
        with pytest.raises(ConfigError):
            build_tz_sketches_centralized(er_unit)

    def test_conflicting_k_rejected(self, er_unit):
        h = sample_hierarchy(er_unit.n, 2, seed=9)
        with pytest.raises(ConfigError):
            build_tz_sketches_centralized(er_unit, k=3, hierarchy=h)

    def test_sketch_count_and_shape(self, er_unit):
        sketches, h = build_tz_sketches_centralized(er_unit, k=3, seed=10)
        assert len(sketches) == er_unit.n
        assert all(s.k == 3 and len(s.pivots) == 3 for s in sketches)

    def test_expected_size_shape(self):
        # Lemma 3.1: E|L(u)| = O(k n^{1/k}); verify the measured mean is
        # within a generous constant of it
        from repro.graphs import erdos_renyi

        g = erdos_renyi(128, seed=11)
        sketches, _ = build_tz_sketches_centralized(g, k=2, seed=12)
        mean_entries = np.mean([len(s.bunch) for s in sketches])
        assert mean_entries <= 6 * 2 * 128 ** 0.5


# ----------------------------------------------------------------------
# the array pivot sweep against the label-setting reference
# ----------------------------------------------------------------------
def _array_keys(graph, sources) -> list[tuple[float, int]]:
    from repro.tz.centralized import _set_keys

    dist, witness = _set_keys(graph.to_csr(),
                              np.asarray(sources, dtype=np.int64))
    return list(zip(dist.tolist(), witness.tolist()))


@st.composite
def sweeps(draw):
    """A random graph — sparse enough to fall apart now and then — with
    unit, small-integer (ties everywhere) or float weights, and a
    source set: one node, every node, or a random subset."""
    n = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("unit", "int", "float")))
    p = draw(st.sampled_from((0.03, 0.1, 0.3)))
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v, {"unit": 1.0,
                                  "int": float(rng.integers(1, 4)),
                                  "float": float(rng.uniform(0.1, 10.0)),
                                  }[kind])
    which = draw(st.sampled_from(("one", "all", "some")))
    if which == "one":
        sources = [int(rng.integers(n))]
    elif which == "all":
        sources = list(range(n))
    else:
        sources = sorted({int(x) for x in rng.integers(n, size=1 + n // 4)})
    return g, sources


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sweeps())
def test_array_sweep_equals_the_label_setting_reference(case):
    g, sources = case
    want = [tuple(key) for key in multi_source_dijkstra_keys(g, sources)]
    assert _array_keys(g, sources) == want


def test_smaller_witness_wins_when_sums_round_together():
    """Node 4 is reached from node 2 (d = 1.0, witness 1) and from node
    3 (d = 1 + 2^-52, witness 0): the prefixes differ by an ulp, both
    sums round to 2.0, so both edges are tight and witness 0 must win —
    though its prefix is the longer one and is settled second."""
    eps = 2.0 ** -52
    g = Graph(5, [(1, 2, 1.0), (0, 3, 1.0 + eps), (2, 4, 1.0), (3, 4, 1.0)])
    assert (1.0 + eps) + 1.0 == 1.0 + 1.0 == 2.0
    assert multi_source_dijkstra_keys(g, [0, 1])[4] == DistKey(2.0, 0)
    assert _array_keys(g, [0, 1])[4] == (2.0, 0)
    assert _array_keys(g, [0, 1]) == [
        tuple(key) for key in multi_source_dijkstra_keys(g, [0, 1])]


def test_pivot_keys_are_the_array_sweep(er_weighted, small_grid):
    from repro.tz.centralized import pivot_key_array

    for g, seed in ((er_weighted, 1), (small_grid, 2)):
        h = sample_hierarchy(g.n, 3, seed=seed)
        keys = pivot_key_array(g, h)
        view = compute_pivot_keys(g, h)
        for i in range(h.k):
            want = multi_source_dijkstra_keys(g, h.A(i))
            assert view[i] == want
            assert [(d, int(w)) for d, w in keys[i].tolist()] == [
                tuple(key) for key in want]
        assert (keys[h.k, :, 0] == np.inf).all()
        assert (keys[h.k, :, 1] == -1).all()
