"""The :class:`Graph` type: weighted, undirected, nodes ``0..n-1``.

Design notes
------------
The simulator and the distributed protocols need adjacency lookups that are
cheap in pure Python (``dict`` access), while the centralized baselines need
a sparse matrix for vectorized shortest paths via
:func:`scipy.sparse.csgraph.dijkstra`.  ``Graph`` therefore keeps a dict-of-
dicts adjacency as the source of truth and materializes a CSR matrix lazily
(cached; invalidated on mutation).  Whole-graph questions (connectivity, the
largest weight) are answered on that CSR.

A graph is filled in bulk: :meth:`Graph.from_arrays` (and ``Graph(n,
edges)``, which goes through it) validates edge arrays ``(u, v, w)`` in
numpy, with the same :class:`GraphError` the per-edge :meth:`Graph.add_edge`
raises for the first offending edge, and builds each node's neighbour dict in
one ``dict(zip(...))``.  Every generator builds its graph this way.

Neighbour *order* is part of the contract, not an accident of the dicts:
a node's neighbours iterate in the order the edges touching it first
appeared in the input, exactly as a loop of :meth:`Graph.add_edge` calls
over the same edges would leave them.  The per-node simulator schedules its
messages in that order, so the same seed must give the same order.

Nodes are consecutive integers ``0..n-1``: the paper's round-robin queue
scheduler (Algorithm 2) "assumes without loss of generality that
V = {0, 1, ..., n-1}", and we adopt the same convention globally.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.errors import GraphError


class Graph:
    """A weighted undirected graph on nodes ``0..n-1``.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        Optional iterable of ``(u, v, weight)`` triples, filled in bulk as
        :meth:`from_arrays` does.  Weights must be
        positive and finite (the paper allows zero weights in principle but
        every bound is stated for positive polynomially-bounded weights;
        we require ``weight > 0`` so shortest paths are simple).
    """

    __slots__ = ("n", "_adj", "_m", "_csr_cache")

    def __init__(self, n: int, edges: Optional[Iterable[tuple[int, int, float]]] = None):
        if n <= 0:
            raise GraphError(f"graph must have at least one node, got n={n}")
        self.n = int(n)
        self._adj: list[dict[int, float]] = [dict() for _ in range(self.n)]
        self._m = 0
        self._csr_cache: Optional[sp.csr_matrix] = None
        if edges is not None:
            edges = [(u, v, w) for u, v, w in edges]
            if edges:
                self._fill(*zip(*edges), edges)

    # ------------------------------------------------------------------
    # construction / mutation
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, n: int, u, v, w) -> "Graph":
        """The graph on ``n`` nodes with edges ``(u[i], v[i], w[i])``.

        ``w`` may be one number for every edge.  Equal to adding the
        edges one by one with :meth:`add_edge`, in input order: the same
        :class:`GraphError` for the first bad edge, a repeated edge keeps
        its first position and its last weight, and every node's
        neighbours iterate in input order.
        """
        g = cls(n)
        g._fill(u, v, w)
        return g

    def _fill(self, u, v, w, edges=None) -> None:
        """Fill this still edgeless graph from edge arrays; ``edges``, if
        given, are the caller's own triples, named in an error."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.broadcast_to(np.asarray(w, dtype=np.float64), u.shape)
        bad = ((u < 0) | (u >= self.n) | (v < 0) | (v >= self.n) | (u == v)
               | ~(w > 0) | ~np.isfinite(w))
        if bad.any():
            i = int(bad.argmax())
            self._checked_weight(*(edges[i] if edges is not None else
                                   (u[i].item(), v[i].item(), w[i].item())))
        # half-edge 2i is u[i] -> v[i], 2i+1 is v[i] -> u[i]; a stable sort
        # by tail keeps each node's half-edges in input order
        tails = np.column_stack((u, v)).ravel()
        order = np.argsort(tails, kind="stable")
        heads = np.column_stack((v, u)).ravel()[order].tolist()
        weights = np.repeat(w, 2)[order].tolist()
        start = 0
        for x, end in enumerate(np.bincount(tails, minlength=self.n)
                                .cumsum().tolist()):
            self._adj[x] = dict(zip(heads[start:end], weights[start:end]))
            start = end
        self._m = sum(map(len, self._adj)) // 2
        self._csr_cache = None

    def _checked_weight(self, u: int, v: int, weight: float) -> float:
        """``weight`` as a float, or the :class:`GraphError` that makes
        ``(u, v, weight)`` an invalid edge."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loops are not allowed (node {u})")
        w = float(weight)
        if not (w > 0) or not math.isfinite(w):
            raise GraphError(f"edge weight must be positive and finite, got {weight!r}")
        return w

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add (or overwrite) the undirected edge ``{u, v}``."""
        w = self._checked_weight(u, v, weight)
        if v not in self._adj[u]:
            self._m += 1
        self._adj[u][v] = w
        self._adj[v][u] = w
        self._csr_cache = None

    def set_weight(self, u: int, v: int, weight: float) -> None:
        """Change the weight of an existing edge."""
        if v not in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        self.add_edge(u, v, weight)

    def _replace_weights(self, w) -> None:
        """Give the i-th edge of :meth:`edges` weight ``w[i]``; every
        neighbour order stays as it is."""
        w = np.asarray(w, dtype=np.float64)
        bad = ~(w > 0) | ~np.isfinite(w)
        if bad.any():
            raise GraphError("edge weight must be positive and finite, "
                             f"got {w[bad.argmax()].item()!r}")
        adj = self._adj
        for (u, v, _), x in zip(self.edges(), w.tolist()):
            adj[u][v] = x
            adj[v][u] = x
        self._csr_cache = None

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the undirected edge ``{u, v}`` (it must exist).

        Removal may disconnect the graph; callers that require the
        paper's connected model must re-:meth:`validate`.
        """
        self._check_node(u)
        self._check_node(v)
        if v not in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        del self._adj[u][v]
        del self._adj[v][u]
        self._m -= 1
        self._csr_cache = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _check_node(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise GraphError(f"node {u} out of range [0, {self.n})")

    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return self._m

    def nodes(self) -> range:
        """Iterate node IDs ``0..n-1``."""
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate edges once each, as ``(u, v, w)`` with ``u < v``."""
        for u in range(self.n):
            for v, w in self._adj[u].items():
                if u < v:
                    yield (u, v, w)

    def neighbors(self, u: int) -> dict[int, float]:
        """Neighbor -> weight mapping for node ``u`` (do not mutate)."""
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._adj[u]

    def weight(self, u: int, v: int) -> float:
        try:
            return self._adj[u][v]
        except KeyError:
            raise GraphError(f"edge ({u}, {v}) does not exist") from None

    def max_weight(self) -> float:
        """Largest edge weight (0.0 for an edgeless graph)."""
        data = self.to_csr().data
        return float(data.max()) if data.size else 0.0

    # ------------------------------------------------------------------
    # structure checks
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Connectivity check (the paper requires connected inputs)."""
        return connected_components(self.to_csr(), directed=False,
                                    return_labels=False) == 1

    def validate(self) -> None:
        """Raise :class:`GraphError` unless the graph meets the paper's model.

        Checks connectivity and that weights are polynomially bounded
        (we use ``w <= n**4`` as the concrete polynomial bound so that a
        distance always fits in one word).
        """
        if not self.is_connected():
            raise GraphError("graph is not connected")
        bound = float(self.n) ** 4 if self.n > 1 else 1.0
        if self.max_weight() > bound:
            u, v, w = next(e for e in self.edges() if e[2] > bound)
            raise GraphError(
                f"edge ({u},{v}) weight {w} exceeds polynomial bound n^4={bound}"
            )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_csr(self) -> sp.csr_matrix:
        """Symmetric CSR adjacency matrix (cached until the graph mutates)."""
        if self._csr_cache is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum([len(a) for a in self._adj], out=indptr[1:])
            csr = sp.csr_matrix(
                (np.fromiter(chain.from_iterable(a.values()
                                                 for a in self._adj),
                             dtype=np.float64, count=indptr[-1]),
                 np.fromiter(chain.from_iterable(self._adj),
                             dtype=np.int64, count=indptr[-1]),
                 indptr), shape=(self.n, self.n))
            csr.sort_indices()  # canonical whatever the insertion order
            self._csr_cache = csr
        return self._csr_cache

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` with ``weight`` attributes."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_weighted_edges_from(self.edges())
        return g

    def copy(self) -> "Graph":
        """An independent graph with the same edges (validated on the
        way in, so the adjacency is duplicated as is)."""
        g = Graph(self.n)
        g._adj = [dict(a) for a in self._adj]
        g._m = self._m
        return g

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self):  # mutable container semantics
        raise TypeError("Graph is unhashable (mutable)")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"
