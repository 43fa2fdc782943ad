"""The :class:`Graph` type: weighted, undirected, nodes ``0..n-1``.

Design notes
------------
A graph is one symmetric CSR matrix, held, not cached: both half-edges of
every edge with one weight, rows sorted (the order scipy's sweeps and
their tie-breaks read), scipy's index dtype.  :meth:`Graph.to_csr`
returns it.  Beside it, ``_order[indptr[u]:indptr[u + 1]]`` lists the
cells of row ``u`` in input order, which :meth:`Graph.neighbors` and
:meth:`Graph.edges` read: a node's neighbours iterate in the order the
edges touching it first appeared, exactly as a loop of
:meth:`Graph.add_edge` calls would leave them.  The per-node simulator
schedules its messages in that order and the ``assign_*`` weight draws
follow :meth:`Graph.edges`, so the same seed must give the same order.

A graph is filled in bulk: :meth:`Graph.from_arrays` (and ``Graph(n,
edges)``, which goes through it) validates edge arrays ``(u, v, w)`` in
numpy, with the same :class:`GraphError` the per-edge :meth:`Graph.add_edge`
raises for the first offending edge.  A weight change writes its two cells
in place; adding or removing an edge rebuilds the arrays.

Nodes are consecutive integers ``0..n-1``: the paper's round-robin queue
scheduler (Algorithm 2) "assumes without loss of generality that
V = {0, 1, ..., n-1}", and we adopt the same convention globally.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.errors import GraphError


def refused_edges(n: int, u, v, w) -> np.ndarray:
    """Mask of the edges ``(u[i], v[i], w[i])`` a graph on ``n`` nodes
    refuses: an id outside ``[0, n)``, a self-loop, a weight not > 0."""
    return ((u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
            | ~(w > 0) | ~np.isfinite(w))


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

    __slots__ = ("n", "_csr", "_order")

    def __init__(self, n: int, edges: Optional[Iterable[tuple[int, int, float]]] = None):
        if n <= 0:
            raise GraphError(f"graph must have at least one node, got n={n}")
        self.n = int(n)
        edges = [] if edges is None else [(u, v, w) for u, v, w in edges]
        self._fill(*(zip(*edges) if edges else ((), (), ())), edges)

    @classmethod
    def from_arrays(cls, n: int, u, v, w) -> "Graph":
        """The graph on ``n`` nodes with edges ``(u[i], v[i], w[i])`` (``w``
        may be one number): equal to adding them one by one with
        :meth:`add_edge`, the same :class:`GraphError` for the first bad
        edge, a repeat keeping its first position and its last weight."""
        g = cls(n)
        g._fill(u, v, w)
        return g

    def _fill(self, u, v, w, edges=None) -> None:
        """Hold the edges ``(u, v, w)``; ``edges`` are the caller's own
        triples, if any, named in an error."""
        w = np.asarray(w, dtype=np.float64)
        try:
            u, v = (np.asarray(x, dtype=np.int64) for x in (u, v))
        except OverflowError:  # an id past int64: add_edge's checks name it
            for e in edges or zip(u, v, np.broadcast_to(w, np.shape(u)).tolist()):
                self._checked_weight(*e)
        w = np.broadcast_to(w, u.shape)
        bad = refused_edges(self.n, u, v, w)
        if bad.any():
            i = int(bad.argmax())
            self._checked_weight(*(edges[i] if edges else
                                   (u[i].item(), v[i].item(), w[i].item())))
        # half-edge 2i is u[i] -> v[i], 2i+1 is v[i] -> u[i]
        self._assemble(np.column_stack((u, v)).ravel(),
                       np.column_stack((v, u)).ravel(), np.repeat(w, 2))

    def _assemble(self, tails, heads, weights) -> None:
        """Hold the half-edges ``tails[h] -> heads[h]`` (valid, given in
        input order): a repeated one keeps its first position and its
        last weight, as a loop of :meth:`add_edge` calls leaves it."""
        n = self.n
        key = tails * n + heads
        by_key = np.argsort(key)
        key = key[by_key]
        runs = np.flatnonzero(np.diff(key, prepend=-1))  # one per cell
        first = np.minimum.reduceat(by_key, runs)
        last = np.maximum.reduceat(by_key, runs)
        rows, cols = np.divmod(key[runs], n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        self._csr = sp.csr_matrix((weights[last], cols, indptr), shape=(n, n))
        # each row's cells ranked by the position of their first half-edge
        self._order = np.argsort(rows * key.size + first).astype(
            self._csr.indices.dtype)

    def _half_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(tails, heads, weights)`` of every half-edge: ``u`` ascending,
        then ``u``'s input order."""
        csr, order = self._csr, self._order
        return (np.repeat(np.arange(self.n), np.diff(csr.indptr)),
                csr.indices[order], csr.data[order])

    def _cell(self, u: int, v: int) -> int:
        """The CSR cell of the half-edge ``u -> v`` (``u`` in range), or -1."""
        indptr, indices = self._csr.indptr, self._csr.indices
        s, e = int(indptr[u]), int(indptr[u + 1])
        k = s + int(indices[s:e].searchsorted(v))
        return k if k < e and indices[k] == v else -1

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
        """Add (or overwrite) the undirected edge ``{u, v}``; a new edge
        comes last in both endpoints' neighbour order."""
        w = self._checked_weight(u, v, weight)
        k = self._cell(u, v)
        if k >= 0:
            self._csr.data[[k, self._cell(v, u)]] = w
            return
        tails, heads, weights = self._half_edges()
        self._assemble(np.append(tails, (u, v)), np.append(heads, (v, u)),
                       np.append(weights, (w, w)))

    def set_weight(self, u: int, v: int, weight: float) -> None:
        """Change the weight of an existing edge."""
        self.weight(u, v)  # it must exist
        self.add_edge(u, v, weight)

    def _replace_weights(self, w) -> None:
        """Give the i-th edge of :meth:`edges` weight ``w[i]``; every
        neighbour order stays as it is."""
        w = np.asarray(w, dtype=np.float64)
        bad = ~(w > 0) | ~np.isfinite(w)
        if bad.any():
            raise GraphError("edge weight must be positive and finite, "
                             f"got {w[bad.argmax()].item()!r}")
        tails, heads, _ = self._half_edges()
        up = self._order[tails < heads]
        # a symmetric matrix's cells, stably sorted by column, are the
        # transposes of its cells in row order
        mates = np.argsort(self._csr.indices, kind="stable")[up]
        self._csr.data[np.concatenate((up, mates))] = np.tile(w, 2)

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the undirected edge ``{u, v}`` (it must exist).  Removal
        may disconnect the graph: re-:meth:`validate` where that matters."""
        self._check_node(u)
        self._check_node(v)
        self.weight(u, v)  # it must exist
        tails, heads, weights = self._half_edges()
        keep = ~(((tails == u) & (heads == v)) | ((tails == v) & (heads == u)))
        self._assemble(tails[keep], heads[keep], weights[keep])

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise GraphError(f"node {u} out of range [0, {self.n})")

    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return self._csr.nnz // 2

    def nodes(self) -> range:
        """Iterate node IDs ``0..n-1``."""
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate edges once each, as ``(u, v, w)`` with ``u < v``: ``u``
        ascending, then ``u``'s neighbour order."""
        tails, heads, weights = self._half_edges()
        up = tails < heads
        return zip(tails[up].tolist(), heads[up].tolist(),
                   weights[up].tolist())

    def neighbors(self, u: int) -> dict[int, float]:
        """Neighbor -> weight mapping for node ``u``, in input order."""
        self._check_node(u)
        csr = self._csr
        s, e = csr.indptr[u:u + 2].tolist()
        heads, weights = csr.indices[s:e].tolist(), csr.data[s:e].tolist()
        return {heads[k - s]: weights[k - s] for k in self._order[s:e].tolist()}

    def degree(self, u: int) -> int:
        self._check_node(u)
        return int(self._csr.indptr[u + 1] - self._csr.indptr[u])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and self._cell(u, v) >= 0

    def weight(self, u: int, v: int) -> float:
        self._check_node(u)
        k = self._cell(u, v)
        if k < 0:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        return self._csr.data[k].item()

    def max_weight(self) -> float:
        """Largest edge weight (0.0 for an edgeless graph)."""
        return float(self._csr.data.max(initial=0.0))

    def is_connected(self) -> bool:
        """Connectivity check (the paper requires connected inputs)."""
        return connected_components(self._csr, directed=False,
                                    return_labels=False) == 1

    def validate(self) -> None:
        """Raise :class:`GraphError` unless the graph meets the paper's
        model: connected, weights polynomially bounded (``w <= n**4``, so
        that a distance always fits in one word)."""
        if not self.is_connected():
            raise GraphError("graph is not connected")
        bound = float(self.n) ** 4 if self.n > 1 else 1.0
        if self.max_weight() > bound:
            u, v, w = next(e for e in self.edges() if e[2] > bound)
            raise GraphError(f"edge ({u},{v}) weight {w} exceeds "
                             f"polynomial bound n^4={bound}")

    def to_csr(self) -> sp.csr_matrix:
        """The graph's own symmetric CSR adjacency matrix, rows sorted
        (read it, do not write it; a weight change writes into it)."""
        return self._csr

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` with ``weight`` attributes."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_weighted_edges_from(self.edges())
        return g

    def copy(self) -> "Graph":
        """An independent graph with the same edges, in the same order."""
        g = Graph(self.n)
        g._csr, g._order = self._csr.copy(), self._order.copy()
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(getattr(self._csr, f), getattr(other._csr, f))
            for f in ("indptr", "indices", "data"))

    def __hash__(self):  # mutable container semantics
        raise TypeError("Graph is unhashable (mutable)")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"
