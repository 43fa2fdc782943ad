"""Topology generators (repro.graphs.generators)."""

import hashlib

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import (
    assign_exponential_weights,
    assign_integer_weights,
    assign_uniform_weights,
    assign_unit_weights,
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


# ----------------------------------------------------------------------
# golden digests
# ----------------------------------------------------------------------
# ``GOLDEN`` pins, per ``(family, n, seed, weights)``, every generator's
# output: ``m``, each node's neighbour dict *in iteration order* (the
# per-node simulator's schedules depend on it) and one draw from the
# generator afterwards, so a generator that consumes its stream
# differently shows up even where the graph happens to agree.  The
# digests were recorded on the per-edge generators and must never be
# edited: a faster generator has to reproduce them exactly.
def _er_sparse(n, rng):
    return erdos_renyi(n, p=0.5 / n, seed=rng)  # below threshold: repaired


def _rgg_sparse(n, rng):
    return random_geometric(n, radius=0.08, seed=rng)  # needs repair


FAMILIES = {
    "er": lambda n, rng: erdos_renyi(n, seed=rng),
    "er_sparse": _er_sparse,
    "er_p0": lambda n, rng: erdos_renyi(n, p=0.0, seed=rng),
    "er_p1": lambda n, rng: erdos_renyi(n, p=1.0, seed=rng),
    "ba": lambda n, rng: barabasi_albert(n, m_attach=2, seed=rng),
    "rgg": lambda n, rng: random_geometric(n, seed=rng),
    "rgg_sparse": _rgg_sparse,
    "grid": lambda n, rng: grid2d(n, n + 3),
    "ring": lambda n, rng: ring(n),
    "path": lambda n, rng: path_graph(n),
    "complete": lambda n, rng: complete_graph(n),
    "tree": lambda n, rng: tree_graph(n, branching=3),
    "caterpillar": lambda n, rng: caterpillar(n, legs_per_node=2,
                                              leg_weight=1.5,
                                              spine_weight=100.0),
    "star_path": lambda n, rng: star_path(n),
    "star_path_heavy": lambda n, rng: star_path(n, heavy_weight=2.5),
}

WEIGHTS = {
    "none": lambda g, rng: g,
    "unit": lambda g, rng: assign_unit_weights(g),
    "uniform": lambda g, rng: assign_uniform_weights(g, 1.0, 10.0, seed=rng),
    "exponential": lambda g, rng: assign_exponential_weights(g, seed=rng),
    "integer": lambda g, rng: assign_integer_weights(g, seed=rng),
}


def _graph_digest(family, n, seed, weights) -> str:
    rng = np.random.default_rng(seed)
    g = WEIGHTS[weights](FAMILIES[family](n, rng), rng)
    tail = int(rng.integers(0, 2**62))
    row = (g.n, g.m, [list(g.neighbors(u).items()) for u in g.nodes()],
           tail)
    return hashlib.sha256(repr(row).encode()).hexdigest()[:20]


GOLDEN = {
    ('er', 1, 1, 'none'): '3ba061436af46233802e',
    ('er', 2, 1, 'none'): '4efbf383ab0e940795b6',
    ('er', 60, 1, 'none'): 'abe4d550fe846d99a217',
    ('er', 60, 2, 'uniform'): '61f83be7f9b145f3bd83',
    ('er', 500, 3, 'uniform'): '64b1b855c0df083921d2',
    ('er', 2000, 4, 'uniform'): '8589148d1a9e57db2291',
    ('er', 40, 5, 'exponential'): '4e2d0dcc0b9b843b3d3d',
    ('er', 40, 6, 'integer'): 'c9007b950c99a9f31b04',
    ('er', 40, 7, 'unit'): '76068d985683d227d8db',
    ('er_sparse', 80, 8, 'none'): 'd00f3372e17d3a8c9524',
    ('er_sparse', 80, 9, 'uniform'): '8b9a900e32cf33f7a4db',
    ('er_sparse', 300, 10, 'uniform'): '2493c137b44d61c230dc',
    ('er_p0', 1, 11, 'none'): '079497bfd909bb7b82ca',
    ('er_p0', 10, 11, 'none'): 'e0998778e68839b72e9f',
    ('er_p1', 12, 12, 'integer'): 'ee8b0aeb8922e27029dc',
    ('ba', 1, 13, 'none'): 'bae3d42c342c1b553fb7',
    ('ba', 3, 13, 'none'): '3c4e71457f9ec75cf270',
    ('ba', 60, 14, 'none'): 'e5b4efdd9a2f80ad529a',
    ('ba', 60, 15, 'uniform'): 'b6f5e1e8a923ebf0b25c',
    ('ba', 200, 16, 'exponential'): '8429c6b0e52b0d2d1f88',
    ('rgg', 1, 17, 'none'): '8098693afee2a0a189b6',
    ('rgg', 60, 18, 'none'): '2dfe6dc1d493860025b5',
    ('rgg', 400, 19, 'none'): '770db50261a22a491f80',
    ('rgg', 60, 20, 'unit'): 'ad9973edef91206a208f',
    ('rgg', 60, 21, 'integer'): '4de600983187d119c38d',
    ('rgg', 3000, 31, 'none'): '31596968d8f547c3b14b',
    ('rgg_sparse', 40, 22, 'none'): 'fec69268b105b245ff37',
    ('rgg_sparse', 150, 23, 'none'): '44b416a9eecf07ac5d3a',
    ('grid', 1, 0, 'none'): '26e39eb9a1d74140b618',
    ('grid', 4, 0, 'none'): '2e94dee24bda3044319a',
    ('grid', 6, 24, 'uniform'): 'fea3a2b0affe4e837b9d',
    ('ring', 3, 0, 'none'): '6f039d126aec08ec50bc',
    ('ring', 9, 25, 'exponential'): '333dc1d3a150485ef274',
    ('path', 1, 0, 'none'): '45f220cac9cf470ee3ac',
    ('path', 2, 0, 'none'): '47bb6f8daed6dc6e6d58',
    ('path', 7, 26, 'uniform'): '55992369164bdc3b270d',
    ('complete', 1, 0, 'none'): '45f220cac9cf470ee3ac',
    ('complete', 8, 27, 'integer'): '75083770296fb30bccfd',
    ('tree', 1, 0, 'none'): '45f220cac9cf470ee3ac',
    ('tree', 20, 0, 'none'): 'eee3044d193cea796f6d',
    ('tree', 30, 28, 'uniform'): 'f83bfe405796caa65203',
    ('caterpillar', 1, 0, 'none'): '9709b4fc4aa628b15d97',
    ('caterpillar', 5, 0, 'none'): '69e5186afbc4397b27b0',
    ('caterpillar', 6, 29, 'uniform'): 'dd046b7546c428b8829d',
    ('star_path', 2, 0, 'none'): '85444f35d707b0bd8074',
    ('star_path', 10, 0, 'none'): 'ed5af915e18240066cd9',
    ('star_path', 10, 30, 'uniform'): 'dda714b57cf9b8fde34c',
    ('star_path_heavy', 6, 0, 'none'): '140e9bb03dbf9c7dde98',
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=repr)
def test_generators_reproduce_the_golden_graphs(case):
    assert _graph_digest(*case) == GOLDEN[case]


#: prints the child's own peak RSS (``VmHWM``, KiB): ``ru_maxrss`` would
#: carry the forking test process's high-water mark across the exec
_AT_SCALE = """
import sys
from repro.graphs import assign_uniform_weights, erdos_renyi, random_geometric
if sys.argv[1] == "er":
    assign_uniform_weights(erdos_renyi(10_000, seed=1), 1.0, 10.0, seed=2)
else:
    random_geometric(10_000, seed=1)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.slow
@pytest.mark.parametrize("family, limit_mb", [("er", 200), ("rgg", 400)])
def test_ten_thousand_nodes_build_in_bounded_memory(family, limit_mb):
    """ER + uniform weights and a random geometric graph at n = 10^4 (the
    scale the large-graph experiments need) without any n x n
    temporary: peak RSS of a fresh process stays under ``limit_mb``."""
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", _AT_SCALE, family], capture_output=True,
        text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")}).stdout
    assert int(out) / 1024 <= limit_mb
