"""Centralized Thorup–Zwick construction — the differential-testing baseline.

This is the [TZ05] preprocessing the paper distributes: pivots via
multi-source Dijkstra per level, bunches via truncated "cluster growing"
from every vertex.  Everything uses the :class:`~repro.distkey.DistKey`
tie-breaking, so for a shared :class:`~repro.tz.hierarchy.Hierarchy` the
output is *identical* (not just equivalent) to the distributed construction
— the core correctness instrument of this reproduction (tests assert the
equality sketch-by-sketch).

Clusters are grown columnar (:func:`grow_clusters`): all roots of a level
advance together, one frontier round per batch of numpy calls, and the
result is a :class:`BunchTable` of arrays from which the labels are
sliced.  Two per-root references stay for the tests to compare against,
neither on any build path: :func:`cluster_of`, the truncated Dijkstra whose
floats the kernel must reproduce, and the direct-from-definition
:func:`brute_force_bunches` (O(k n^2), small graphs only), a third,
independently derived answer for three-way differential tests.

Complexity: pivots cost ``O(k m log n)``.  The kernel relaxes every edge
out of a cluster member once per time that member's distance improves —
``O(Σ_w vol(C(w)))`` relaxations when labels settle on first touch (unit
weights), a small multiple of it on weighted graphs, against label-setting's
``O((Σ_w |C(w)|) log n)`` = ``O(k n^{1+1/k} log n)`` expected, the classic
TZ bound — plus ``O(n)`` per root to allocate and scan its dense row, and
one sort of the entries.  The dense rows bound the intended range to
``n`` in the 10^4s; the per-message Python of the round-faithful simulator
stops three orders of magnitude earlier (experiments E1/E2 run here).
"""

from __future__ import annotations

import heapq
import math
import time
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from repro.distkey import INF_KEY, DistKey
from repro.errors import ConfigError
from repro.graphs.graph import Graph
from repro.graphs.metrics import apsp
from repro.rng import SeedLike
from repro.tz.hierarchy import Hierarchy, tz_artifacts
from repro.tz.sketch import TZSketch


def multi_source_dijkstra_keys(graph: Graph, sources: np.ndarray) -> list[DistKey]:
    """Per node, the minimum ``DistKey(d(u, s), s)`` over all ``s`` in
    ``sources`` — i.e. the distance to the set with its witness, under the
    library-wide tie-breaking (closest source, smallest ID among ties)."""
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


def compute_pivot_keys(graph: Graph, hierarchy: Hierarchy) -> list[list[DistKey]]:
    """``pivot_keys[i][u] = DistKey(d(u, A_i), p_i(u))`` for ``i = 0..k``.

    Level ``k`` is the all-infinite sentinel (``d(u, A_k) = ∞``, paper
    Section 3.1).
    """
    keys: list[list[DistKey]] = []
    for i in range(hierarchy.k):
        a_i = hierarchy.A(i)
        if a_i.size == 0:
            raise ConfigError(f"A_{i} is empty — hierarchy violates [TZ05] "
                              f"(use ensure_top_nonempty)")
        keys.append(multi_source_dijkstra_keys(graph, a_i))
    keys.append([INF_KEY] * graph.n)
    return keys


def cluster_of(graph: Graph, w: int, level: int,
               next_pivot_keys: list[DistKey]) -> dict[int, float]:
    """Grow the cluster ``C(w)`` (paper Section 3.2) by truncated Dijkstra
    — the per-root reference :func:`grow_clusters` is tested against;
    no build path calls it.

    ``u ∈ C(w)`` iff ``DistKey(d(u, w), w) < DistKey(d(u, A_{level+1}),
    p_{level+1}(u))`` — the strict inequality of the definition with the
    library's tie-breaking.  Clusters are connected (any node on a shortest
    path from a cluster member to ``w`` is itself in the cluster — the
    consistency argument extends to ``DistKey`` ties), so the truncated
    Dijkstra explores exactly ``C(w)`` plus its boundary.
    """
    out: dict[int, float] = {}
    dist: dict[int, float] = {w: 0.0}
    pq: list[tuple[float, int]] = [(0.0, w)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist.get(u, math.inf):
            continue
        out[u] = d
        for v, wt in graph.neighbors(u).items():
            cand = d + wt
            if cand >= dist.get(v, math.inf):
                continue
            if not DistKey(cand, w) < next_pivot_keys[v]:
                continue
            dist[v] = cand
            heapq.heappush(pq, (cand, v))
    return out


#: cells of one dense ``best[root, node]`` block of the frontier kernel
#: (float64, so 4 MB): enough rows per block that a round's numpy calls
#: carry thousands of relaxations, small enough to stay cache-resident
_BLOCK_CELLS = 1 << 19


class BunchTable(NamedTuple):
    """Bunch entries as parallel columns: ``landmark[j] ∈ B(owner[j])`` at
    ``dist[j]``, ``level[j]`` — sorted by ``(owner, level, landmark)``.

    That order is the canonical one: an owner's entries are one
    contiguous slice, and slicing it into a dict reproduces the bunch
    iteration order every builder (full, repair) must share.
    """

    owner: np.ndarray     # int64
    landmark: np.ndarray  # int64
    dist: np.ndarray      # float64
    level: np.ndarray     # int64
    #: frontier rounds the kernel iterated to produce it (observability)
    rounds: int

    def bunches(self, nodes: Sequence[int],
                ) -> list[dict[int, tuple[float, int]]]:
        """``B(u)`` as ``landmark -> (dist, level)`` for each ``u`` in
        ``nodes``, in canonical iteration order."""
        nodes = np.asarray(nodes, dtype=np.int64)
        lo = np.searchsorted(self.owner, nodes, side="left").tolist()
        hi = np.searchsorted(self.owner, nodes, side="right").tolist()
        return [dict(zip(self.landmark[a:b].tolist(),
                         zip(self.dist[a:b].tolist(),
                             self.level[a:b].tolist())))
                for a, b in zip(lo, hi)]


def merge_bunch_tables(tables: Sequence[BunchTable]) -> BunchTable:
    """One canonical table from tables grown over disjoint root sets —
    the result is independent of how the roots were split."""
    owner, landmark, dist, level = (
        np.concatenate([t[c] for t in tables]) for c in range(4))
    order = np.lexsort((landmark, level, owner))
    return BunchTable(owner[order], landmark[order], dist[order],
                      level[order], sum(t.rounds for t in tables))


def _grow_block(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray,
                n: int, roots: np.ndarray, thr_d: np.ndarray,
                thr_n: np.ndarray) -> tuple[np.ndarray, int]:
    """The frontier kernel: ``best[r, v] = d(roots[r], v)`` for ``v`` in
    the cluster of ``roots[r]``, ``inf`` elsewhere, plus the rounds run.

    Label-correcting: every improved cell relaxes its CSR row, a
    candidate survives iff it beats the cell *and* the cluster threshold
    ``(thr_d[v], thr_n[v])`` under the ``DistKey`` order, and the round's
    survivors fold in with ``np.minimum.at``.  The fixed point holds the
    floats the label-setting :func:`cluster_of` computes (see
    ``docs/architecture.md``, "The centralized builder").
    """
    best = np.full(roots.size * n, np.inf)
    front = np.arange(roots.size) * n + roots
    best[front] = 0.0
    rounds = 0
    while front.size:
        rounds += 1
        row = front // n
        u = front - row * n
        first = indptr[u]
        deg = indptr[u + 1] - first
        # expand every frontier cell over its CSR row: slot j of cell c
        # is edge first[c] + j
        cell = np.repeat(np.arange(front.size), deg)
        edge = np.arange(cell.size) - np.repeat(np.cumsum(deg) - deg - first,
                                                deg)
        v = indices[edge]
        cand = best[front][cell] + weights[edge]
        row = row[cell]
        td = thr_d[v]
        target = row * n + v
        keep = (((cand < td) | ((cand == td) & (roots[row] < thr_n[v])))
                & (cand < best[target]))
        target = target[keep]
        np.minimum.at(best, target, cand[keep])
        front = np.unique(target)
    return best.reshape(roots.size, n), rounds


def grow_clusters(graph: Graph, hierarchy: Hierarchy,
                  pivot_keys: list[list[DistKey]], roots) -> BunchTable:
    """Grow the clusters rooted at ``roots`` and invert them into bunch
    entries (``u ∈ C(w) ⟺ w ∈ B(u)``, paper Section 3.2).

    Roots are independent of each other, so any split of the universe
    (the candidates of a repair, say) merges
    back into the full table with :func:`merge_bunch_tables`.  Per
    level, blocks of :data:`_BLOCK_CELLS` cells go through the frontier
    kernel; a level
    whose threshold is the all-``INF_KEY`` sentinel (the top one) has
    untruncated clusters, which are plain distance rows — taken from
    :func:`scipy.sparse.csgraph.dijkstra`, bitwise the same floats.
    """
    n = graph.n
    csr = graph.to_csr()
    roots = np.unique(np.asarray(roots, dtype=np.int64))
    levels = hierarchy.level[roots]
    per_block = max(1, _BLOCK_CELLS // n)
    indptr = csr.indptr.astype(np.int64)
    none = np.empty(0, dtype=np.int64)
    parts = [BunchTable(none, none, np.empty(0), none, 0)]
    for lvl in np.unique(levels).tolist():
        thr = np.asarray(pivot_keys[lvl + 1], dtype=np.float64)
        thr_d, thr_n = thr[:, 0], thr[:, 1]
        untruncated = bool(np.isinf(thr_d).all())
        members = roots[levels == lvl]
        for at in range(0, members.size, per_block):
            block = members[at:at + per_block]
            if untruncated:
                best, rounds = csgraph_dijkstra(csr, directed=False,
                                                indices=block), 0
            else:
                best, rounds = _grow_block(indptr, csr.indices, csr.data, n,
                                           block, thr_d, thr_n)
            r, owner = np.nonzero(np.isfinite(best))
            parts.append(BunchTable(owner, block[r], best[r, owner],
                                    np.full(owner.size, lvl), rounds))
    return merge_bunch_tables(parts)


def compute_bunches(graph: Graph, hierarchy: Hierarchy,
                    pivot_keys: Optional[list[list[DistKey]]] = None,
                    ) -> list[dict[int, tuple[float, int]]]:
    """All bunches, via cluster growing (bunches invert clusters:
    ``u ∈ C(w) ⟺ w ∈ B(u)``, paper Section 3.2)."""
    if pivot_keys is None:
        pivot_keys = compute_pivot_keys(graph, hierarchy)
    table = grow_clusters(graph, hierarchy, pivot_keys, hierarchy.universe())
    return table.bunches(graph.nodes())


def brute_force_bunches(graph: Graph, hierarchy: Hierarchy,
                        dist_matrix: Optional[np.ndarray] = None,
                        ) -> list[dict[int, tuple[float, int]]]:
    """Bunches straight from the Section 3.1 definition (O(k n^2)).

    Independent of the Dijkstra-based path (uses the APSP matrix), so a
    three-way agreement with :func:`compute_bunches` and the distributed
    construction is strong evidence of correctness.
    """
    d = apsp(graph) if dist_matrix is None else dist_matrix
    bunches: list[dict[int, tuple[float, int]]] = [dict() for _ in graph.nodes()]
    for u in graph.nodes():
        for i in range(hierarchy.k):
            nxt = hierarchy.A(i + 1)
            thr = INF_KEY
            for w in nxt:
                key = DistKey(float(d[u, w]), int(w))
                if key < thr:
                    thr = key
            for w in hierarchy.exact_level(i):
                w = int(w)
                key = DistKey(float(d[u, w]), w)
                if key < thr:
                    bunches[u][w] = (key.dist, i)
    return bunches


def assemble_sketches(k: int, pivot_keys: list[list[DistKey]],
                      table: BunchTable, nodes: Sequence[int],
                      ) -> list[TZSketch]:
    """Package pivots + each node's slice of the bunch table into the
    :class:`TZSketch` labels of ``nodes``."""
    return [TZSketch(node=int(u), k=k,
                     pivots=tuple((pivot_keys[i][u].node,
                                   pivot_keys[i][u].dist)
                                  for i in range(k)),
                     bunch=bunch)
            for u, bunch in zip(nodes, table.bunches(nodes))]


def tz_sketches(graph: Graph, artifacts: dict,
                owners: Optional[Sequence[int]] = None, *,
                roots=None,
                pivot_keys: Optional[list[list[DistKey]]] = None,
                report: Optional[dict] = None) -> list[TZSketch]:
    """The tz registry row's per-owner function: from a fixed hierarchy,
    the labels of ``owners`` (default: every node — a build).

    ``roots`` restricts cluster growing to those sub-top landmarks (the
    top level is always grown: its untruncated clusters reach every
    label — Lemma 3.2's backstop — and nodes outside the universe root
    nothing), so the labels hold exactly the entries those landmarks
    contribute: all of them when ``roots`` covers every cluster that can
    hold an owner (a repair), the ones a shard range serves otherwise.
    ``pivot_keys`` spares the ``k`` pivot sweeps to a caller that already
    ran them; ``report``, a dict, receives where the time went
    (``pivots_s`` / ``clusters_s`` / ``assemble_s``, bunch ``entries``,
    frontier ``rounds``).
    """
    hierarchy = artifacts["hierarchy"]
    t0 = time.perf_counter()
    if pivot_keys is None:
        pivot_keys = compute_pivot_keys(graph, hierarchy)
    t1 = time.perf_counter()
    if roots is None:
        roots = hierarchy.universe()
    else:
        roots = np.asarray(roots, dtype=np.int64)
        roots = np.concatenate([hierarchy.exact_level(hierarchy.k - 1),
                                roots[hierarchy.level[roots] >= 0]])
    table = grow_clusters(graph, hierarchy, pivot_keys, roots)
    t2 = time.perf_counter()
    sketches = assemble_sketches(
        hierarchy.k, pivot_keys, table,
        graph.nodes() if owners is None else owners)
    if report is not None:
        report.update(pivots_s=t1 - t0, clusters_s=t2 - t1,
                      assemble_s=time.perf_counter() - t2,
                      entries=int(table.owner.size), rounds=table.rounds)
    return sketches


def build_tz_sketches_timed(graph: Graph, k: Optional[int] = None,
                            hierarchy: Optional[Hierarchy] = None,
                            seed: SeedLike = None,
                            ) -> tuple[list[TZSketch], Hierarchy, dict]:
    """:func:`build_tz_sketches_centralized` plus :func:`tz_sketches`'
    report of where the time went."""
    artifacts = tz_artifacts(graph, seed, {"k": k, "hierarchy": hierarchy})
    report: dict = {}
    sketches = tz_sketches(graph, artifacts, report=report)
    return sketches, artifacts["hierarchy"], report


def describe_build(report: dict) -> str:
    """One line for a :func:`build_tz_sketches_timed` report."""
    total = report["pivots_s"] + report["clusters_s"] + report["assemble_s"]
    return (f"built in {total:.3f} s — pivots {report['pivots_s']:.3f} s, "
            f"clusters {report['clusters_s']:.3f} s "
            f"({report['entries']} bunch entries, "
            f"{report['rounds']} frontier rounds), "
            f"assemble {report['assemble_s']:.3f} s")


def build_tz_sketches_centralized(graph: Graph, k: Optional[int] = None,
                                  hierarchy: Optional[Hierarchy] = None,
                                  seed: SeedLike = None,
                                  ) -> tuple[list[TZSketch], Hierarchy]:
    """End-to-end centralized [TZ05] preprocessing.

    Provide either ``k`` (a hierarchy is sampled with the paper's
    ``n^{-1/k}``) or an explicit ``hierarchy`` (for sharing randomness with
    a distributed run).
    """
    return build_tz_sketches_timed(graph, k, hierarchy, seed)[:2]
