"""Routing tables and addresses for TZ compact routing.

Construction (from the same structures as the sketches):

* For every cluster center ``w`` (every vertex — A_0 = V), the truncated
  Dijkstra that grows ``C(w)`` also yields a **shortest-path tree** of the
  cluster rooted at ``w``.  Tree edges are graph edges.
* Each member ``x ∈ C(w)`` stores, in its table: its parent edge in that
  tree (= the next hop *toward* ``w``, used for "route to a bunch member")
  and the DFS **interval labels** of its tree children (used for routing
  *away from* ``w`` down to a cluster member whose interval rides in the
  packet header).
* The **address** of ``v`` lists its pivots ``p_i(v)`` with ``v``'s
  interval in each pivot's cluster tree.  Every pivot's cluster contains
  ``v`` (``p_i(v) ∈ B(v)`` at the pivot's exact level — the tie-breaking
  argument in the docstring of :func:`pivot_in_bunch_level`), so the
  intervals always exist.

Hop-by-hop validity of "route toward a bunch member ``w``" rests on
cluster connectivity: if ``w ∈ B(x)`` then every vertex on the shortest
path from ``x`` to ``w`` is also in ``C(w)`` and therefore also has a
parent pointer toward ``w``.

Table size is ``O(Σ_x |B(x)|)`` entries overall — the same order as the
sketches — and addresses are ``O(k)`` words.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

from repro.distkey import DistKey
from repro.graphs.graph import Graph
from repro.rng import SeedLike
from repro.tz.centralized import compute_pivot_keys
from repro.tz.hierarchy import Hierarchy, tz_artifacts

#: DFS interval: v's subtree in a cluster tree is exactly the label range
#: [enter, exit).  Two words on the wire.
Interval = tuple[int, int]


@dataclass(frozen=True)
class TreeEntry:
    """One node's view of one cluster tree it belongs to."""

    root: int
    parent: Optional[int]          # graph neighbor toward the root (None at root)
    dist_to_root: float
    interval: Interval
    children: tuple[tuple[int, Interval], ...]  # (child neighbor, its interval)


@dataclass
class NodeRoutingTable:
    """Everything node ``x`` stores."""

    node: int
    #: cluster center w -> this node's entry in T_w, for every w in B(x)
    entries: dict[int, TreeEntry]

    def next_hop_toward(self, w: int) -> Optional[int]:
        """Next hop on the shortest path toward bunch member ``w``."""
        entry = self.entries.get(w)
        return None if entry is None else entry.parent

    def knows(self, w: int) -> bool:
        return w in self.entries

    def child_for(self, root: int, target_iv: Interval) -> Optional[int]:
        """In T_root, the child whose subtree interval contains the target."""
        entry = self.entries.get(root)
        if entry is None:
            return None
        lo = target_iv[0]
        for child, (a, b) in entry.children:
            if a <= lo < b:
                return child
        return None

    def size_words(self) -> int:
        """Table size: per entry, root id + parent + dist + interval(2)
        + 3 words per child interval."""
        total = 0
        for e in self.entries.values():
            total += 5 + 3 * len(e.children)
        return total


@dataclass(frozen=True)
class Address:
    """The routable address of ``v``: pivots with interval labels.

    ``O(k)`` words: per level, pivot id + 2 interval words.
    """

    node: int
    k: int
    pivots: tuple[tuple[int, Interval], ...]  # (p_i(v), interval of v in T_{p_i(v)})

    def size_words(self) -> int:
        return 1 + 3 * len(self.pivots)


@dataclass
class RoutingScheme:
    """The complete routing state of a network."""

    k: int
    tables: list[NodeRoutingTable]
    addresses: list[Address]
    hierarchy: Hierarchy

    def stretch_bound(self) -> int:
        """The bound proved for :func:`repro.routing.forwarding.route_packet`."""
        return 4 * self.k - 3

    def max_table_words(self) -> int:
        return max(t.size_words() for t in self.tables)

    def max_address_words(self) -> int:
        return max(a.size_words() for a in self.addresses)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def cluster_tree(graph: Graph, w: int, next_pivot_keys) -> tuple[dict[int, float], dict[int, Optional[int]]]:
    """Shortest-path tree of ``C(w)``: ``(dist, parent)`` maps.

    Same truncation rule as :func:`repro.tz.centralized.cluster_of`, but
    keeping the Dijkstra parents — every tree edge is a graph edge on a
    shortest path toward ``w``.
    """
    dist: dict[int, float] = {w: 0.0}
    parent: dict[int, Optional[int]] = {w: None}
    settled: dict[int, float] = {}
    pq: list[tuple[float, int]] = [(0.0, w)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist.get(u, math.inf):
            continue
        settled[u] = d
        for v, wt in graph.neighbors(u).items():
            cand = d + wt
            if cand >= dist.get(v, math.inf):
                continue
            if not DistKey(cand, w) < next_pivot_keys[v]:
                continue
            dist[v] = cand
            parent[v] = u
            heapq.heappush(pq, (cand, v))
    return settled, {u: parent[u] for u in settled}


def _dfs_intervals(members: dict[int, float], parent: dict[int, Optional[int]],
                   root: int) -> tuple[dict[int, Interval], dict[int, list[int]]]:
    """Iterative DFS interval labeling of one cluster tree."""
    children: dict[int, list[int]] = {u: [] for u in members}
    for u, p in parent.items():
        if p is not None:
            children[p].append(u)
    for lst in children.values():
        lst.sort()
    intervals: dict[int, Interval] = {}
    counter = 0
    # post-order-free labeling: enter at first visit, exit after subtree
    stack: list[tuple[int, int]] = [(root, 0)]  # (node, child index)
    enter: dict[int, int] = {}
    while stack:
        u, idx = stack.pop()
        if idx == 0:
            enter[u] = counter
            counter += 1
        kids = children[u]
        if idx < len(kids):
            stack.append((u, idx + 1))
            stack.append((kids[idx], 0))
        else:
            intervals[u] = (enter[u], counter)
    return intervals, children


def pivot_in_bunch_level(pivot_keys, hierarchy: Hierarchy, u: int, i: int) -> int:
    """The exact level at which ``p_i(u)`` sits in ``B(u)``.

    With :class:`~repro.distkey.DistKey` tie-breaking, every pivot of
    ``u`` belongs to ``u``'s bunch at the pivot's *exact* hierarchy level
    ``j = level(p_i(u)) >= i``: if it did not, the level-``j`` pivot key
    would be strictly dominated by the level-``j+1`` key, contradicting
    ``p_j(u) = p_i(u)`` being the level-``j`` argmin (pivots with equal
    distance resolve to the smaller ID, which A_{j+1} ⊆ A_j cannot beat).
    Consequently ``u ∈ C(p_i(u))`` always — the fact addresses rely on.
    """
    p = pivot_keys[i][u].node
    return int(hierarchy.level[p])


def build_routing_scheme(graph: Graph, k: Optional[int] = None,
                         hierarchy: Optional[Hierarchy] = None,
                         seed: SeedLike = None) -> RoutingScheme:
    """Build tables and addresses for the whole network (centralized).

    A distributed construction would reuse the Algorithm 2 runs: the
    ``via`` parents of :class:`~repro.algorithms.round_robin
    .MultiSourceEngine` are exactly the cluster-tree parents; interval
    labels additionally need one convergecast + one broadcast per cluster
    tree (O(S) rounds each, within the Theorem 3.8 budget).  The
    centralized build keeps this extension focused on the routing logic.
    """
    hierarchy = tz_artifacts(graph, seed,
                             {"k": k, "hierarchy": hierarchy})["hierarchy"]
    kk = hierarchy.k
    pivot_keys = compute_pivot_keys(graph, hierarchy)

    per_node: list[dict[int, TreeEntry]] = [dict() for _ in graph.nodes()]
    intervals_by_root: dict[int, dict[int, Interval]] = {}

    for i in range(kk):
        nxt = pivot_keys[i + 1]
        for w in hierarchy.exact_level(i):
            w = int(w)
            dist, parent = cluster_tree(graph, w, nxt)
            intervals, children = _dfs_intervals(dist, parent, w)
            intervals_by_root[w] = intervals
            for x in dist:
                per_node[x][w] = TreeEntry(
                    root=w,
                    parent=parent[x],
                    dist_to_root=dist[x],
                    interval=intervals[x],
                    children=tuple((c, intervals[c])
                                   for c in children[x]),
                )

    tables = [NodeRoutingTable(node=u, entries=per_node[u])
              for u in graph.nodes()]
    addresses = []
    for v in graph.nodes():
        pivots = []
        for i in range(kk):
            p = pivot_keys[i][v].node
            pivots.append((p, intervals_by_root[p][v]))
        addresses.append(Address(node=v, k=kk, pivots=tuple(pivots)))
    return RoutingScheme(k=kk, tables=tables, addresses=addresses,
                         hierarchy=hierarchy)
