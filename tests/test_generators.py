"""Topology generators (repro.graphs.generators)."""

import pytest

from repro.errors import GraphError
from repro.graphs import (
    barabasi_albert,
    caterpillar,
    complete_graph,
    erdos_renyi,
    from_networkx,
    grid2d,
    hop_diameter,
    path_graph,
    random_geometric,
    ring,
    shortest_path_diameter,
    star_path,
    tree_graph,
)


class TestErdosRenyi:
    def test_connected(self):
        for seed in range(5):
            assert erdos_renyi(50, seed=seed).is_connected()

    def test_seed_reproducible(self):
        a, b = erdos_renyi(30, seed=7), erdos_renyi(30, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        assert erdos_renyi(30, seed=1) != erdos_renyi(30, seed=2)

    def test_p_zero_still_connected_via_repair(self):
        g = erdos_renyi(10, p=0.0, seed=3)
        assert g.is_connected()
        assert g.m == 9  # exactly a spanning structure

    def test_p_validation(self):
        with pytest.raises(GraphError):
            erdos_renyi(10, p=1.5)

    def test_density_scales_with_p(self):
        sparse = erdos_renyi(60, p=0.05, seed=4)
        dense = erdos_renyi(60, p=0.5, seed=4)
        assert dense.m > sparse.m


class TestStructured:
    def test_grid_dimensions(self):
        g = grid2d(3, 4)
        assert g.n == 12
        assert g.m == 3 * 3 + 2 * 4  # (cols-1)*rows + (rows-1)*cols

    def test_grid_hop_diameter(self):
        assert hop_diameter(grid2d(3, 4)) == (3 - 1) + (4 - 1)

    def test_grid_rejects_bad_dims(self):
        with pytest.raises(GraphError):
            grid2d(0, 3)

    def test_ring_structure(self):
        g = ring(8)
        assert g.m == 8
        assert all(g.degree(u) == 2 for u in g.nodes())

    def test_ring_diameter(self):
        assert hop_diameter(ring(8)) == 4

    def test_ring_minimum_size(self):
        with pytest.raises(GraphError):
            ring(2)

    def test_path(self):
        g = path_graph(6)
        assert g.m == 5
        assert hop_diameter(g) == 5

    def test_complete(self):
        g = complete_graph(6)
        assert g.m == 15
        assert hop_diameter(g) == 1

    def test_tree(self):
        g = tree_graph(7, branching=2)
        assert g.m == 6
        assert g.is_connected()


class TestBarabasiAlbert:
    def test_connected_and_sized(self):
        g = barabasi_albert(60, m_attach=2, seed=5)
        assert g.is_connected()
        assert g.n == 60

    def test_has_hubs(self):
        g = barabasi_albert(120, m_attach=2, seed=6)
        degrees = sorted(g.degree(u) for u in g.nodes())
        # preferential attachment should produce a heavy right tail
        assert degrees[-1] >= 3 * degrees[len(degrees) // 2]

    def test_reproducible(self):
        assert barabasi_albert(40, seed=8) == barabasi_albert(40, seed=8)


class TestGeometric:
    def test_connected(self):
        assert random_geometric(50, seed=9).is_connected()

    def test_weights_reflect_geometry(self):
        g = random_geometric(50, seed=10)
        ws = [w for _, _, w in g.edges()]
        assert min(ws) >= 1.0
        assert len(set(ws)) > 1  # genuinely heterogeneous


class TestPathological:
    def test_star_path_separates_S_from_D(self):
        g = star_path(20)
        assert hop_diameter(g) == 2
        assert shortest_path_diameter(g) == 19

    def test_star_path_min_size(self):
        with pytest.raises(GraphError):
            star_path(1)

    def test_caterpillar_counts(self):
        g = caterpillar(spine=5, legs_per_node=2)
        assert g.n == 5 + 10
        assert g.is_connected()

    def test_caterpillar_heavy_spine(self):
        g = caterpillar(spine=6, legs_per_node=1, spine_weight=100.0)
        assert g.weight(0, 1) == 100.0


class TestFromNetworkx:
    def test_round_trip(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_weighted_edges_from([("a", "b", 2.0), ("b", "c", 3.0)])
        g = from_networkx(nxg)
        assert g.n == 3
        assert g.weight(0, 1) == 2.0  # a-b after sorted relabeling

    def test_default_weight_is_one(self):
        import networkx as nx

        nxg = nx.path_graph(4)
        g = from_networkx(nxg)
        assert all(w == 1.0 for _, _, w in g.edges())


def test_benchmark_workloads_do_not_depend_on_the_hash_seed():
    """``benchmarks/_workloads.py`` seeds its graphs from a stable digest:
    two processes with different ``PYTHONHASHSEED`` build the same
    edges."""
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, 'benchmarks'); "
            "from _workloads import workload; "
            "print(sorted(workload('er', 64, True).edges()))")
    outs = [subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True,
        text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": salt,
             "PYTHONPATH": str(root / "src")}).stdout
        for salt in ("1", "2")]
    assert outs[0] == outs[1] and outs[0].count("(") > 64
