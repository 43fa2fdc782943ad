"""Topology generators for the experiment suite.

Each generator returns a connected :class:`~repro.graphs.graph.Graph` on
nodes ``0..n-1``.  Randomized generators accept a ``seed`` (int or numpy
``Generator``); topologies that networkx can build are delegated to
networkx and then relabeled/connected-checked, matching the paper's model
requirements.

The experiment suite (DESIGN.md Section 4) uses:

* ``erdos_renyi`` — the unstructured baseline; low hop diameter.
* ``barabasi_albert`` — power-law / P2P-overlay-like topologies
  (the paper's motivating application, Section 2.1).
* ``grid2d`` and ``ring`` — high-diameter structured networks where the
  ``S``-dependence of the round bounds is visible.
* ``random_geometric`` — the "network coordinate" setting (Vivaldi/Meridian
  comparison point in Section 1): distances correlate with geometry.
* ``caterpillar`` / ``star_path`` — pathological instances where the
  shortest-path diameter ``S`` vastly exceeds the hop diameter ``D``,
  exercising the paper's D-vs-S discussion (Section 2.1).
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np
from scipy.sparse.csgraph import connected_components

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.rng import SeedLike, ensure_rng


# node pairs per block of ER coin flips or geometric distances: each
# temporary stays at 8 MB of float64, whatever n is
_BLOCK = 1 << 20


def _connect_components(g: Graph, rng: np.random.Generator, weight: float = 1.0) -> None:
    """Add minimal random edges to make ``g`` connected (used by random
    generators so that every returned graph satisfies the paper's model).

    Components are taken in order of their smallest node, each as its
    ascending node list, and consecutive ones are joined by an edge
    between a random node of each."""
    _, labels = connected_components(g.to_csr(), directed=False)
    comps = np.split(np.argsort(labels, kind="stable"),
                     np.bincount(labels).cumsum()[:-1])
    for a, b in zip(comps, comps[1:]):
        u = int(rng.choice(a))
        v = int(rng.choice(b))
        g.add_edge(u, v, weight)


def erdos_renyi(n: int, p: Optional[float] = None, seed: SeedLike = None) -> Graph:
    """G(n, p) with a connectivity repair pass.

    ``p`` defaults to ``2 ln n / n`` (safely above the connectivity
    threshold).  Unit weights; use :mod:`repro.graphs.weights` to reweight.
    """
    rng = ensure_rng(seed)
    if p is None:
        p = min(1.0, 2.0 * math.log(max(n, 2)) / max(n, 1))
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"p must be in [0,1], got {p}")
    hits = [np.empty(0, dtype=np.int64)]
    pairs = n * (n - 1) // 2
    if n > 1 and p > 0:
        # one coin per pair (i, j), i < j, in row-major order, flipped
        # a block at a time: the same stream as one flip per pair
        flips = np.empty(min(_BLOCK, pairs))
        for lo in range(0, pairs, _BLOCK):
            block = rng.random(out=flips[:min(_BLOCK, pairs - lo)])
            hits.append(np.flatnonzero(block < p) + lo)
    k = np.concatenate(hits)
    # row i's pairs start at flat index i*n - i*(i+1)/2
    i = np.arange(n, dtype=np.int64)
    starts = i * n - i * (i + 1) // 2
    rows = np.searchsorted(starts, k, side="right") - 1
    g = Graph.from_arrays(n, rows, k - starts[rows] + rows + 1, 1.0)
    _connect_components(g, rng)
    return g


def barabasi_albert(n: int, m_attach: int = 2, seed: SeedLike = None) -> Graph:
    """Preferential-attachment graph (power-law degrees, P2P-like)."""
    rng = ensure_rng(seed)
    if n < 2:
        return Graph(n)
    m_attach = max(1, min(m_attach, n - 1))
    g = Graph(n)
    # start from a small clique of m_attach+1 nodes
    core = m_attach + 1
    for u, v in itertools.combinations(range(min(core, n)), 2):
        g.add_edge(u, v, 1.0)
    # repeated-endpoint list approximates preferential attachment
    targets: list[int] = []
    for u, v, _ in g.edges():
        targets.extend((u, v))
    for u in range(core, n):
        chosen: set[int] = set()
        while len(chosen) < m_attach:
            if targets and rng.random() < 0.9:
                cand = int(targets[int(rng.integers(0, len(targets)))])
            else:
                cand = int(rng.integers(0, u))
            if cand != u:
                chosen.add(cand)
        for v in chosen:
            g.add_edge(u, v, 1.0)
            targets.extend((u, v))
    _connect_components(g, rng)
    return g


def grid2d(rows: int, cols: int) -> Graph:
    """``rows x cols`` grid; node ``(r, c)`` has ID ``r*cols + c``."""
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    ids = np.arange(rows * cols)
    r, c = np.divmod(ids, cols)
    # node by node: the edge to the right, then the edge down
    u = np.repeat(ids, 2)
    v = np.column_stack((ids + 1, ids + cols)).ravel()
    keep = np.column_stack((c + 1 < cols, r + 1 < rows)).ravel()
    return Graph.from_arrays(rows * cols, u[keep], v[keep], 1.0)


def ring(n: int) -> Graph:
    """Cycle on ``n`` nodes (``n >= 3``)."""
    if n < 3:
        raise GraphError("ring needs n >= 3")
    u = np.arange(n)
    return Graph.from_arrays(n, u, (u + 1) % n, 1.0)


def path_graph(n: int) -> Graph:
    """Simple path ``0 - 1 - ... - n-1``."""
    u = np.arange(n - 1)
    return Graph.from_arrays(n, u, u + 1, 1.0)


def complete_graph(n: int) -> Graph:
    """K_n with unit weights."""
    return Graph.from_arrays(n, *np.triu_indices(n, k=1), 1.0)


def tree_graph(n: int, branching: int = 2) -> Graph:
    """Complete ``branching``-ary tree on ``n`` nodes (BFS numbering)."""
    if branching < 1:
        raise GraphError("branching must be >= 1")
    u = np.arange(1, n)
    return Graph.from_arrays(n, u, (u - 1) // branching, 1.0)


def random_geometric(n: int, radius: Optional[float] = None, seed: SeedLike = None) -> Graph:
    """Random geometric graph in the unit square; weights = Euclidean length.

    Edge weights are the Euclidean distances (scaled by 1000 and rounded up
    to keep them positive), so shortest-path distance approximates geometric
    distance — the setting network coordinate systems target.
    """
    rng = ensure_rng(seed)
    if radius is None:
        radius = math.sqrt(3.0 * math.log(max(n, 2)) / (math.pi * max(n, 1)))
    if n < 1:
        return Graph(n)
    pts = rng.random((n, 2))
    step = max(1, _BLOCK // n)
    blocks = []
    for lo in range(0, n, step):
        # rows lo..hi-1 against columns lo..n-1; the pairs i < j are kept
        hi = min(n, lo + step)
        dx = pts[lo:hi, None, 0] - pts[None, lo:, 0]
        dy = pts[lo:hi, None, 1] - pts[None, lo:, 1]
        dist = np.sqrt(dx * dx + dy * dy)
        i, j = np.nonzero(np.triu(dist <= radius, k=1))
        blocks.append((i + lo, j + lo, dist[i, j]))
    u, v, dist = (np.concatenate(c) for c in zip(*blocks))
    g = Graph.from_arrays(n, u, v, np.maximum(1.0, np.ceil(1000.0 * dist)))
    _connect_components(g, rng, weight=max(1.0, math.ceil(1000.0 * radius)))
    return g


def caterpillar(spine: int, legs_per_node: int = 1, leg_weight: float = 1.0,
                spine_weight: float = 1.0) -> Graph:
    """Caterpillar: a path ("spine") with pendant leaves ("legs").

    Spine nodes are ``0..spine-1``; the legs follow.  With heavy spine
    weights and light legs this family separates hop diameter from
    shortest-path diameter.
    """
    if spine < 1:
        raise GraphError("spine must have >= 1 node")
    n = spine + spine * legs_per_node
    per = max(0, legs_per_node)
    u = np.concatenate((np.arange(spine - 1),
                        np.repeat(np.arange(spine), per)))
    v = np.concatenate((np.arange(1, spine),
                        np.arange(spine, spine + spine * per)))
    w = np.repeat([spine_weight, leg_weight], (spine - 1, spine * per))
    return Graph.from_arrays(n, u, v, w)


def star_path(n_path: int, heavy_weight: Optional[float] = None) -> Graph:
    """Path of ``n_path`` light edges plus a hub shortcut of heavy edges.

    Node ``n_path`` is a hub adjacent to every path node with weight
    ``heavy_weight`` (default: ``n_path``, i.e. the shortcut never helps a
    shortest path).  The result has hop diameter 2 but shortest-path
    diameter ``n_path`` — the paper's motivating gap between ``D`` and
    ``S`` (Section 2.1): online queries via sketches cost ~``D`` rounds
    while any fresh distance computation costs ``Ω(S)``.
    """
    if n_path < 2:
        raise GraphError("star_path needs n_path >= 2")
    hub = n_path
    hw = float(n_path) if heavy_weight is None else heavy_weight
    path = np.arange(n_path)
    return Graph.from_arrays(
        n_path + 1,
        np.concatenate((path[:-1], path)),
        np.concatenate((path[1:], np.full(n_path, hub))),
        np.repeat([1.0, hw], (n_path - 1, n_path)))


def from_networkx(nxg) -> Graph:
    """Convert a networkx graph (any hashable labels) to a :class:`Graph`.

    Labels are mapped to ``0..n-1`` in sorted-by-string order; missing
    ``weight`` attributes default to 1.0.
    """
    nodes = sorted(nxg.nodes(), key=str)
    index = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), ((index[u], index[v], float(data.get("weight", 1.0)))
                              for u, v, data in nxg.edges(data=True)))
