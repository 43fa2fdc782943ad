"""The :class:`Graph` type: weighted, undirected, nodes ``0..n-1``.

Design notes
------------
The simulator and the distributed protocols need adjacency lookups that are
cheap in pure Python (``dict`` access), while the centralized baselines need
a sparse matrix for vectorized shortest paths via
:func:`scipy.sparse.csgraph.dijkstra`.  ``Graph`` therefore keeps a dict-of-
dicts adjacency as the source of truth and materializes a CSR matrix lazily
(cached; invalidated on mutation).

Nodes are consecutive integers ``0..n-1``: the paper's round-robin queue
scheduler (Algorithm 2) "assumes without loss of generality that
V = {0, 1, ..., n-1}", and we adopt the same convention globally.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError


class Graph:
    """A weighted undirected graph on nodes ``0..n-1``.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        Optional iterable of ``(u, v, weight)`` triples.  Weights must be
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
            for u, v, w in edges:
                self.add_edge(u, v, w)

    # ------------------------------------------------------------------
    # construction / mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add (or overwrite) the undirected edge ``{u, v}``."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loops are not allowed (node {u})")
        w = float(weight)
        if not (w > 0) or not np.isfinite(w):
            raise GraphError(f"edge weight must be positive and finite, got {weight!r}")
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
        return max((w for _, _, w in self.edges()), default=0.0)

    # ------------------------------------------------------------------
    # structure checks
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """BFS connectivity check (the paper requires connected inputs)."""
        if self.n == 1:
            return True
        seen = bytearray(self.n)
        stack = [0]
        seen[0] = 1
        count = 1
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    stack.append(v)
        return count == self.n

    def validate(self) -> None:
        """Raise :class:`GraphError` unless the graph meets the paper's model.

        Checks connectivity and that weights are polynomially bounded
        (we use ``w <= n**4`` as the concrete polynomial bound so that a
        distance always fits in one word).
        """
        if not self.is_connected():
            raise GraphError("graph is not connected")
        bound = float(self.n) ** 4 if self.n > 1 else 1.0
        for u, v, w in self.edges():
            if w > bound:
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
