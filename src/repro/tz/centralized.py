"""Centralized Thorup–Zwick construction — the differential-testing baseline.

This is the [TZ05] preprocessing the paper distributes: pivots via one
multi-source sweep per level, bunches via truncated "cluster growing"
from every vertex.  Everything uses the :class:`~repro.distkey.DistKey`
tie-breaking, so for a shared :class:`~repro.tz.hierarchy.Hierarchy` the
output is *identical* (not just equivalent) to the distributed construction
— the core correctness instrument of this reproduction (tests assert the
equality sketch-by-sketch).

The build is columnar from the CSR to the labels.  A pivot sweep
(:func:`pivot_key_array`) is one :func:`scipy.sparse.csgraph.dijkstra`
call for the distances plus a min-fixpoint over the tight edges for the
witnesses.  Clusters are grown by :func:`grow_clusters`: all roots of a
level advance together, one frontier round per batch of numpy calls,
into a :class:`BunchTable` of arrays.  The labels are a
:class:`~repro.tz.sketch.TZLabels` over the pivot arrays and the
table's columns, whose per-node dicts exist only once a caller indexes
into them — the serving index reads the columns.  Two per-root
references stay for the tests to compare against, neither on any build
path: :func:`cluster_of`, the truncated Dijkstra whose floats the kernel
must reproduce, and the direct-from-definition :func:`brute_force_bunches`
(O(k n^2), small graphs only), a third, independently derived answer for
three-way differential tests.

Complexity: pivots cost ``O(k m log n)`` for the sweeps, plus one pass
over the tight edges out of a node per time its witness improves.  The
kernel relaxes every edge out of a cluster member that the level's prune
keeps (weight at most the head's threshold) once per time that member's
distance improves —
``O(Σ_w vol(C(w)))`` relaxations when labels settle on first touch (unit
weights), a small multiple of it on weighted graphs, against label-setting's
``O((Σ_w |C(w)|) log n)`` = ``O(k n^{1+1/k} log n)`` expected, the classic
TZ bound — plus one sort of the entries.  A block reads and resets only
the cells it reached, so a truncated root costs nothing per node of the
graph; the top level's clusters are whole components, ``O(n)`` each by
definition.  The round-faithful simulator's per-message Python stops
three orders of magnitude earlier (experiments E1/E2 run here).
"""

from __future__ import annotations

import heapq
import math
import time
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.distkey import INF_KEY, DistKey
from repro.errors import ConfigError
from repro.graphs.graph import Graph
from repro.graphs.metrics import apsp, symmetric_dijkstra
from repro.rng import SeedLike
from repro.tz.hierarchy import Hierarchy, tz_artifacts
from repro.tz.sketch import TZLabels, bunch_dicts


def _expand(indptr: np.ndarray, front: np.ndarray,
            ) -> tuple[np.ndarray, np.ndarray]:
    """Every CSR slot of the rows of ``front``: ``(deg, edge)``, the
    row lengths and, row after row, the edges ``indptr[front[c]] + j``."""
    first = indptr[front]
    deg = indptr[front + 1] - first
    edge = np.arange(deg.sum()) - np.repeat(np.cumsum(deg) - deg - first, deg)
    return deg, edge


def _set_keys(csr, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per node, ``d(u, sources)`` and its witness — the smallest source
    among the closest (-1 where no source is reachable).

    The distances are one :func:`scipy.sparse.csgraph.dijkstra` sweep:
    the least fixed point of ``d_v = min fl(d_u + w)``.  The witnesses
    are a min-fixpoint over the tight edges of those final distances
    (``d_u + w == d_v``), from every source at its own id: the smallest
    source that reaches ``v`` along a tight path — what a label-setting
    sweep over ``(distance, witness)`` keys settles, which extends every
    node only from its final key.
    """
    indptr = csr.indptr.astype(np.int64)
    n = indptr.size - 1
    dist = symmetric_dijkstra(csr, indices=sources, min_only=True)
    tail = np.repeat(np.arange(n), np.diff(indptr))
    tight = (dist[tail] + csr.data == dist[csr.indices]) & np.isfinite(
        dist[tail])
    t_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail[tight], minlength=n), out=t_indptr[1:])
    t_head = csr.indices[tight]
    witness = np.full(n, n, dtype=np.int64)  # n: none yet, above every id
    witness[sources] = sources
    front = np.unique(sources)
    while front.size:
        deg, edge = _expand(t_indptr, front)
        head = t_head[edge]
        cand = np.repeat(witness[front], deg)
        keep = cand < witness[head]
        head = head[keep]
        np.minimum.at(witness, head, cand[keep])
        front = np.unique(head)
    witness[witness == n] = -1
    return dist, witness


def pivot_key_array(graph: Graph, hierarchy: Hierarchy) -> np.ndarray:
    """``keys[i, u] = (d(u, A_i), p_i(u))`` as a ``(k + 1, n, 2)`` float
    array, level ``k`` the ``INF_KEY`` sentinel ``(inf, -1)`` (paper
    Section 3.1) — one :func:`_set_keys` sweep per level."""
    n, k = graph.n, hierarchy.k
    csr = graph.to_csr()
    keys = np.empty((k + 1, n, 2))
    keys[k] = (INF_KEY.dist, INF_KEY.node)
    for i in range(k):
        a_i = hierarchy.A(i)
        if a_i.size == 0:
            raise ConfigError(f"A_{i} is empty — hierarchy violates [TZ05] "
                              f"(use ensure_top_nonempty)")
        keys[i, :, 0], keys[i, :, 1] = _set_keys(csr, a_i)
    return keys


def compute_pivot_keys(graph: Graph, hierarchy: Hierarchy) -> list[list[DistKey]]:
    """``pivot_keys[i][u] = DistKey(d(u, A_i), p_i(u))`` for ``i = 0..k``
    — :func:`pivot_key_array` as :class:`DistKey` lists.

    Level ``k`` is the all-infinite sentinel (``d(u, A_k) = ∞``, paper
    Section 3.1).
    """
    keys = pivot_key_array(graph, hierarchy)
    return [[DistKey(d, w) if w >= 0 else INF_KEY
             for d, w in zip(level[:, 0].tolist(),
                             level[:, 1].astype(np.int64).tolist())]
            for level in keys[:-1]] + [[INF_KEY] * graph.n]


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


#: cells of the frontier kernel's ``best[root, node]`` block (float64,
#: so 4 MB): enough rows per block that a round's numpy calls carry
#: thousands of relaxations, small enough to stay cache-resident
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
    #: candidate edges the kernel examined, over every round
    relaxations: int = 0

    def rows_of(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, bounds)``: the rows of each of ``nodes`` in turn,
        ``nodes[j]``'s being ``rows[bounds[j]:bounds[j + 1]]``."""
        lo = np.searchsorted(self.owner, nodes, side="left")
        sizes = np.searchsorted(self.owner, nodes, side="right") - lo
        bounds = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        return (np.arange(bounds[-1]) - np.repeat(bounds[:-1] - lo, sizes),
                bounds)

    def bunches(self, nodes: Sequence[int],
                ) -> list[dict[int, tuple[float, int]]]:
        """``B(u)`` as ``landmark -> (dist, level)`` for each ``u`` in
        ``nodes``, in canonical iteration order."""
        rows, bounds = self.rows_of(np.asarray(nodes, dtype=np.int64))
        return bunch_dicts(self.landmark[rows], self.dist[rows],
                           self.level[rows], bounds)


def merge_bunch_tables(tables: Sequence[BunchTable]) -> BunchTable:
    """One canonical table from tables grown over disjoint root sets —
    the result is independent of how the roots were split.

    An ``(owner, landmark)`` pair occurs once, so the canonical order is
    one sort of the unique key ``(owner · levels + level) · nodes +
    landmark``, int32 whenever it fits.
    """
    columns = [np.concatenate([t[c] for t in tables]) for c in range(4)]
    owner, landmark, _, level = columns
    counts = (sum(t.rounds for t in tables),
              sum(t.relaxations for t in tables))
    if owner.size:
        levels = int(level.max()) + 1
        nodes = int(max(owner.max(), landmark.max())) + 1
        key = owner.astype(np.int32 if nodes * nodes * levels <= 1 << 31
                           else np.int64)
        key *= levels
        key += level
        key *= nodes
        key += landmark
        order = np.argsort(key)
        del key, owner, landmark, level
        for c, column in enumerate(columns):  # one copy alive at a time
            columns[c] = column[order]
    return BunchTable(*columns, *counts)


def _prune(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray,
           thr_d: np.ndarray) -> tuple[np.ndarray, ...]:
    """The CSR without the half-edges ``u → v`` of weight ``w >
    thr_d[v]``, which no cluster of the level can cross, plus each kept
    edge's ``thr_d[v]``.

    A candidate ``fl(b + w)`` with ``b ≥ 0`` is ``≥ w``, so it is ``>
    thr_d[v]`` and fails the cluster test, ties included; an edge of
    weight exactly ``thr_d[v]`` stays (from the root itself, ``b = 0``,
    the tie is broken by the ids).
    """
    reach = thr_d[indices]
    keep = weights <= reach
    at = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=at[1:])
    return at[indptr], indices[keep], weights[keep], reach[keep]


def _grow_block(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray,
                reach: np.ndarray, n: int, roots: np.ndarray,
                thr_n: np.ndarray, best: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The frontier kernel: ``(cells, dist, rounds, relaxations)``, cell
    ``r · n + v`` for each ``v`` in the cluster of ``roots[r]`` at
    ``d(roots[r], v)``.

    Label-correcting: every improved cell relaxes its row of the pruned
    CSR (:func:`_prune`; ``reach`` is ``thr_d[v]`` per edge), a
    candidate survives iff it beats the cell *and* the cluster threshold
    ``(thr_d[v], thr_n[v])`` under the ``DistKey`` order, and the round's
    survivors fold in with ``np.minimum.at``.  The fixed point holds the
    floats the label-setting :func:`cluster_of` computes (see
    ``docs/architecture.md``, "The centralized builder").  Only the few
    candidates within ``thr_d[v]`` go on to the cell lookups.

    ``best`` (all ``inf``, at least ``roots.size · n`` cells) is scratch
    shared by every block.  A round's improved cells are deduplicated
    without a sort: each survivor stamps its position into its cell (as
    ``-1 - position``, never a distance), the cell keeps the stamp of
    the last write, and the winners put the cell's distance back.  The
    cells that ever improved are read off ``best`` and set back to
    ``inf`` on return.
    """
    front = np.arange(roots.size) * n + roots
    best[front] = 0.0
    reached = [front]
    rounds = relaxations = 0
    while front.size:
        rounds += 1
        row = front // n
        deg, edge = _expand(indptr, front - row * n)
        relaxations += edge.size
        cand = np.repeat(best[front], deg) + weights[edge]
        hit = np.flatnonzero(cand <= reach[edge])
        edge, cand = edge[hit], cand[hit]
        row = np.repeat(row, deg)[hit]
        v = indices[edge]
        target = row * n + v
        prev = best[target]
        keep = cand < prev
        tie = np.flatnonzero(cand == reach[edge])
        keep[tie] &= roots[row[tie]] < thr_n[v[tie]]
        target, prev = target[keep], prev[keep]
        np.minimum.at(best, target, cand[keep])
        folded = best[target]
        stamp = -1.0 - np.arange(target.size)
        best[target] = stamp
        first = best[target] == stamp
        front = target[first]
        best[front] = folded[first]
        reached.append(front[np.isinf(prev[first])])
    cells = np.concatenate(reached)
    dist = best[cells]
    best[cells] = np.inf
    return cells, dist, rounds, relaxations


def grow_clusters(graph: Graph, hierarchy: Hierarchy, pivot_keys,
                  roots) -> BunchTable:
    """Grow the clusters rooted at ``roots`` and invert them into bunch
    entries (``u ∈ C(w) ⟺ w ∈ B(u)``, paper Section 3.2).

    ``pivot_keys[i]`` holds every node's ``(d(u, A_i), p_i(u))`` for
    ``i = 0..k`` — :func:`pivot_key_array`'s array or
    :func:`compute_pivot_keys`' lists.

    Roots are independent of each other, so any split of the universe
    (the candidates of a repair, say) merges back into the full table
    with :func:`merge_bunch_tables`.  Per level, blocks of at most
    :data:`_BLOCK_CELLS` cells go through the frontier kernel over the
    CSR :func:`_prune` leaves that level, sharing one scratch block sized
    by the level's roots; a level whose threshold is the all-``INF_KEY``
    sentinel (the top one) has untruncated clusters, which are plain
    distance rows — taken from :func:`symmetric_dijkstra`, bitwise the
    same floats.
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
        members = roots[levels == lvl]
        if np.isinf(thr_d).all():  # untruncated
            for at in range(0, members.size, per_block):
                block = members[at:at + per_block]
                best = symmetric_dijkstra(csr, indices=block)
                r, owner = np.nonzero(np.isfinite(best))
                parts.append(BunchTable(owner, block[r], best[r, owner],
                                        np.full(owner.size, lvl), 0))
            continue
        pruned = _prune(indptr, csr.indices, csr.data, thr_d)
        scratch = np.full(min(members.size, per_block) * n, np.inf)
        for at in range(0, members.size, per_block):
            block = members[at:at + per_block]
            cells, dist, rounds, relaxations = _grow_block(
                *pruned, n, block, thr_n, scratch)
            r = cells // n
            parts.append(BunchTable(cells - r * n, block[r], dist,
                                    np.full(cells.size, lvl), rounds,
                                    relaxations))
        del scratch  # not alive beside the top level's dense rows
    return merge_bunch_tables(parts)


def compute_bunches(graph: Graph, hierarchy: Hierarchy, pivot_keys=None,
                    ) -> list[dict[int, tuple[float, int]]]:
    """All bunches, via cluster growing (bunches invert clusters:
    ``u ∈ C(w) ⟺ w ∈ B(u)``, paper Section 3.2)."""
    if pivot_keys is None:
        pivot_keys = pivot_key_array(graph, hierarchy)
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


def assemble_labels(k: int, pivot_keys: np.ndarray, table: BunchTable,
                    nodes: Optional[Sequence[int]] = None) -> TZLabels:
    """Pivots + the bunch table as the :class:`TZLabels` of ``nodes``
    (default: every node, whose rows are the table's own columns)."""
    if nodes is None:
        nodes = np.arange(pivot_keys.shape[1])
        owner, landmark, dist, level = table[:4]
    else:
        nodes = np.asarray(nodes, dtype=np.int64)
        rows, bounds = table.rows_of(nodes)
        owner = np.repeat(np.arange(nodes.size), np.diff(bounds))
        landmark, dist, level = (table.landmark[rows], table.dist[rows],
                                 table.level[rows])
    keys = pivot_keys[:k, nodes].transpose(1, 0, 2)
    return TZLabels(k, nodes, keys[:, :, 1].astype(np.int64),
                    np.ascontiguousarray(keys[:, :, 0]), owner, landmark,
                    dist, level)


def tz_sketches(graph: Graph, artifacts: dict,
                owners: Optional[Sequence[int]] = None, *,
                report: Optional[dict] = None) -> TZLabels:
    """The tz registry row's ``sketches``: from a fixed hierarchy, the
    labels of ``owners`` (default: every node — a build; a CDG build
    asks for its net's).

    ``report``, a dict, receives where the time went (``pivots_s`` /
    ``clusters_s`` / ``assemble_s``, bunch ``entries``, frontier
    ``rounds``, and the ``relaxations``: candidate edges the frontier
    kernel examined).
    """
    hierarchy = artifacts["hierarchy"]
    t0 = time.perf_counter()
    pivot_keys = pivot_key_array(graph, hierarchy)
    t1 = time.perf_counter()
    table = grow_clusters(graph, hierarchy, pivot_keys, hierarchy.universe())
    t2 = time.perf_counter()
    labels = assemble_labels(hierarchy.k, pivot_keys, table, owners)
    if report is not None:
        report.update(pivots_s=t1 - t0, clusters_s=t2 - t1,
                      assemble_s=time.perf_counter() - t2,
                      entries=int(table.owner.size), rounds=table.rounds,
                      relaxations=table.relaxations)
    return labels


def build_tz_sketches_timed(graph: Graph, k: Optional[int] = None,
                            hierarchy: Optional[Hierarchy] = None,
                            seed: SeedLike = None,
                            ) -> tuple[TZLabels, Hierarchy, dict]:
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
                                  ) -> tuple[TZLabels, Hierarchy]:
    """End-to-end centralized [TZ05] preprocessing.

    Provide either ``k`` (a hierarchy is sampled with the paper's
    ``n^{-1/k}``) or an explicit ``hierarchy`` (for sharing randomness with
    a distributed run).
    """
    return build_tz_sketches_timed(graph, k, hierarchy, seed)[:2]
