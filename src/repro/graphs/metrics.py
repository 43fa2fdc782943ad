"""Exact distance computations and the two diameter notions.

``apsp`` is the ground truth every stretch measurement compares against; it
is vectorized through :func:`scipy.sparse.csgraph.dijkstra` (the hot path of
the evaluation pipeline, per the profiling-first guidance).

``shortest_path_diameter`` computes the paper's ``S`` (Section 2.2): the
maximum over all pairs ``u, v`` of the *minimum hop count* among all
shortest (by weight) ``u``-``v`` paths.  ``S`` lower-bounds any distance
computation and appears in every round bound of the paper, so experiments
report it alongside measured rounds.  It is computed with a per-source
Dijkstra over lexicographic ``(distance, hops)`` keys.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from repro.errors import GraphError
from repro.graphs.graph import Graph


def symmetric_dijkstra(csr, indices=None, min_only: bool = False,
                       ) -> np.ndarray:
    """:func:`scipy.sparse.csgraph.dijkstra` on ``csr`` read as it is
    stored — every distance computation of the package goes through here.

    ``csr`` is :meth:`Graph.to_csr`'s matrix (or one with its sparsity
    and new weights), symmetric by construction: each undirected edge is
    stored as both half-edges with the same weight.  So ``directed=True``
    relaxes exactly the edges ``directed=False`` would, into the very
    same floats, without scipy building and walking the transpose.
    Having one call also keeps the rows the TZ builder takes for its top
    level bitwise equal to :func:`distance_rows`, which the incremental
    repairs rely on.
    """
    return csgraph_dijkstra(csr, directed=True, indices=indices,
                            min_only=min_only)


def apsp(g: Graph) -> np.ndarray:
    """All-pairs shortest-path distance matrix (``float64``, shape (n, n)).

    Entries are ``inf`` for disconnected pairs (validated graphs are
    connected, but the function itself does not require it).
    """
    return symmetric_dijkstra(g.to_csr())


def distance_rows(g: Graph, sources=None) -> np.ndarray:
    """Distance rows of ``sources`` (row ``j`` is ``sources[j]``; ``None``
    is every node, i.e. :func:`apsp`) — bitwise the corresponding rows of
    :func:`apsp`: same solver, same CSR."""
    if sources is None:
        return apsp(g)
    return np.atleast_2d(symmetric_dijkstra(g.to_csr(),
                                            indices=list(sources)))


def apsp_hops(g: Graph) -> np.ndarray:
    """All-pairs *hop* distance matrix (treat every weight as 1)."""
    csr = g.to_csr().copy()
    csr.data[:] = 1.0
    return symmetric_dijkstra(csr)


def hop_diameter(g: Graph) -> int:
    """The paper's ``D``: max over pairs of the minimum number of hops."""
    h = apsp_hops(g)
    if not np.all(np.isfinite(h)):
        raise GraphError("hop diameter undefined: graph is disconnected")
    return int(h.max())


def weighted_diameter(g: Graph) -> float:
    """Max over pairs of the weighted distance."""
    d = apsp(g)
    if not np.all(np.isfinite(d)):
        raise GraphError("diameter undefined: graph is disconnected")
    return float(d.max())


def single_source_hops_on_shortest_paths(g: Graph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Dijkstra from ``source`` with lexicographic ``(dist, hops)`` keys.

    Returns ``(dist, hops)`` arrays where ``hops[v]`` is the minimum hop
    count among all minimum-weight ``source``-``v`` paths — exactly the
    quantity ``h(source, v)`` from the paper's definition of ``S``.
    """
    csr = g.to_csr()
    bounds, heads, weights = (csr.indptr.tolist(), csr.indices.tolist(),
                              csr.data.tolist())
    dist, hops = [np.inf] * g.n, [np.inf] * g.n
    dist[source] = hops[source] = 0.0
    pq: list[tuple[float, float, int]] = [(0.0, 0.0, source)]
    while pq:
        d, h, u = heapq.heappop(pq)
        if (d, h) > (dist[u], hops[u]):
            continue
        for j in range(bounds[u], bounds[u + 1]):
            v, nd, nh = heads[j], d + weights[j], h + 1.0
            if nd < dist[v] or (nd == dist[v] and nh < hops[v]):
                dist[v] = nd
                hops[v] = nh
                heapq.heappush(pq, (nd, nh, v))
    return np.array(dist), np.array(hops)


def shortest_path_diameter(g: Graph) -> int:
    """The paper's ``S = max_{u,v} h(u, v)`` (Section 2.2).

    ``D <= S`` always; with unit weights ``S == D``.
    """
    w = g.to_csr().data
    if w.size and w.min() == w.max():
        # equal weights: a path is shortest iff it has the fewest hops
        return hop_diameter(g)
    best = 0.0
    for s in g.nodes():
        _, hops = single_source_hops_on_shortest_paths(g, s)
        if not np.all(np.isfinite(hops)):
            raise GraphError("S undefined: graph is disconnected")
        best = max(best, float(hops.max()))
    return int(best)


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics reported by every experiment table row."""

    n: int
    m: int
    hop_diameter: int
    shortest_path_diameter: int
    weighted_diameter: float
    max_weight: float

    def as_row(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "D": self.hop_diameter,
            "S": self.shortest_path_diameter,
            "wdiam": self.weighted_diameter,
        }


def graph_stats(g: Graph) -> GraphStats:
    """Compute the full :class:`GraphStats` bundle for ``g``."""
    return GraphStats(
        n=g.n,
        m=g.m,
        hop_diameter=hop_diameter(g),
        shortest_path_diameter=shortest_path_diameter(g),
        weighted_diameter=weighted_diameter(g),
        max_weight=g.max_weight(),
    )
