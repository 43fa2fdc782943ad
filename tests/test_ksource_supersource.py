"""k-Source Shortest Paths and super-source Bellman-Ford."""

import numpy as np
import pytest

from repro.algorithms import distances_to_set, k_source_shortest_paths
from repro.errors import ConfigError
from repro.graphs import apsp, path_graph, ring, shortest_path_diameter


class TestKSource:
    def test_distances_exact(self, er_weighted):
        sources = [0, 5, 11]
        per_node, _ = k_source_shortest_paths(er_weighted, sources, seed=1)
        d = apsp(er_weighted)
        for u in er_weighted.nodes():
            for s in sources:
                assert per_node[u][s] == pytest.approx(d[u, s])

    def test_only_sources_reported(self, er_unit):
        per_node, _ = k_source_shortest_paths(er_unit, [3], seed=1)
        assert all(set(m) == {3} for m in per_node)

    def test_empty_sources_rejected(self, er_unit):
        with pytest.raises(ConfigError):
            k_source_shortest_paths(er_unit, [])

    def test_out_of_range_source_rejected(self, er_unit):
        with pytest.raises(ConfigError):
            k_source_shortest_paths(er_unit, [er_unit.n])

    def test_round_bound_scales_with_sources(self):
        g = ring(16)
        S = shortest_path_diameter(g)
        _, m1 = k_source_shortest_paths(g, [0], seed=1)
        _, m4 = k_source_shortest_paths(g, [0, 4, 8, 12], seed=1)
        # Lemma 3.4 shape: |sources| * S with small constants
        assert m1.rounds <= 2 * S + 2
        assert m4.rounds <= 4 * (S + 2)


class TestSuperSource:
    def test_distance_to_set(self, er_weighted):
        members = [2, 9, 17]
        got, _ = distances_to_set(er_weighted, members, seed=1)
        d = apsp(er_weighted)
        want = d[:, members].min(axis=1)
        assert np.allclose([g[0] for g in got], want)

    def test_witness_is_closest_member(self, er_weighted, nearest_in_set):
        members = [2, 9, 17]
        got, _ = distances_to_set(er_weighted, members, seed=1)
        want = nearest_in_set(apsp(er_weighted), members)
        assert [(g[0], g[1]) for g in got] == [
            (pytest.approx(w[0]), w[1]) for w in want]

    def test_tie_broken_by_smallest_id(self):
        # node 1 is equidistant (1.0) from members 0 and 2
        g = path_graph(3)
        got, _ = distances_to_set(g, [0, 2], seed=1)
        assert got[1] == (1.0, 0)

    def test_member_sees_itself(self, er_unit):
        got, _ = distances_to_set(er_unit, [7], seed=1)
        assert got[7] == (0.0, 7)

    def test_empty_set_rejected(self, er_unit):
        with pytest.raises(ConfigError):
            distances_to_set(er_unit, [])

    def test_rounds_order_S_not_S_times_members(self):
        # a single BF wavefront: rounds must NOT scale with |members|
        g = ring(20)
        S = shortest_path_diameter(g)
        _, m1 = distances_to_set(g, [0], seed=1)
        _, m10 = distances_to_set(g, list(range(0, 20, 2)), seed=1)
        assert m10.rounds <= m1.rounds + 2
        assert m1.rounds <= S + 2
