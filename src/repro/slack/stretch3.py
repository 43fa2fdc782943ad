"""Stretch-3 sketches with ε-slack (paper Theorem 4.3).

Every node stores its distance to **every** node of an ε-density net.  For
a pair ``(u, v)`` where ``v`` is ε-far from ``u`` (at least ``εn`` vertices
are closer to ``u`` than ``v`` is), the closest net node ``u'`` to ``u``
satisfies ``d(u, u') <= R(u, ε) <= d(u, v)``, and routing through it gives
``d(u, u') + d(u', v) <= 3 d(u, v)``.

The estimate implemented is the paper's
``min_{w ∈ N} (d(u, w) + d(w, v))`` over the *shared* net — at least as
good as routing through ``u'`` alone, never below the true distance.

Construction is one k-Source Shortest Paths run with the net as sources:
``O(S · (1/ε) log n)`` rounds and ``O(S |E| (1/ε) log n)`` messages w.h.p.,
with sketches of ``O((1/ε) log n)`` words — all three measured by
experiment E6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.algorithms.ksource import k_source_shortest_paths
from repro.congest.metrics import RunMetrics
from repro.errors import ConfigError, QueryError
from repro.graphs.graph import Graph
from repro.graphs.metrics import distance_rows
from repro.rng import SeedLike, ensure_rng
from repro.slack.density_net import DensityNet, sample_density_net
from repro.tz.sketch import ColumnLabels
from repro.words import entry_words


@dataclass(frozen=True)
class Stretch3Sketch:
    """One node's Theorem 4.3 sketch: distances to all net nodes."""

    node: int
    eps: float
    entries: dict[int, float]  # net node -> d(u, net node)

    def size_words(self) -> int:
        return entry_words() * len(self.entries)

    def estimate_to(self, other: "Stretch3Sketch") -> float:
        """``min_w d(u, w) + d(w, v)`` over the shared net."""
        if self.node == other.node:
            return 0.0
        best = math.inf
        oe = other.entries
        for w, du in self.entries.items():
            dv = oe.get(w)
            if dv is not None and du + dv < best:
                best = du + dv
        if math.isinf(best):
            raise QueryError(
                f"sketches of {self.node} and {other.node} share no net node")
        return best


class Stretch3Labels(ColumnLabels):
    """Stretch3 sketches as columns: row ``j`` of the block ``dist`` is
    ``nodes[j]``'s distance to each net node of ``net_ids`` (sorted),
    +inf where none; read as the list of :class:`Stretch3Sketch`."""

    scheme = "stretch3"
    fields = ("eps", "nodes", "net_ids", "dist")

    @classmethod
    def from_sketches(cls, sketches: Sequence[Stretch3Sketch],
                      ) -> "Stretch3Labels":
        """One column per net node any sketch names.

        :raises ConfigError: on mixed ``eps``."""
        eps = sketches[0].eps
        for s in sketches:
            if s.eps != eps:
                raise ConfigError(
                    f"mixed eps in sketch set: {s.eps} vs {eps} "
                    f"(node {s.node})")
        ids = np.asarray(sorted({w for s in sketches for w in s.entries}),
                         dtype=np.int64)
        col = dict(zip(ids.tolist(), range(ids.size)))
        dist = np.full((len(sketches), ids.size), np.inf)
        for j, s in enumerate(sketches):
            dist[j, [col[w] for w in s.entries]] = list(s.entries.values())
        return cls(eps, np.asarray([s.node for s in sketches], dtype=np.int64),
                   ids, dist)

    def sizes_words(self) -> list[int]:
        """Every sketch stores one entry per net node."""
        return [entry_words() * self.net_ids.size] * len(self)

    def spliced(self, rows: np.ndarray, patch: "Stretch3Labels",
                ) -> "Stretch3Labels":
        """Position ``rows[j]`` holds ``patch``'s row ``j``, every other
        position keeps its own — a new object."""
        nodes, dist = self.nodes.copy(), self.dist.copy()
        nodes[rows], dist[rows] = patch.nodes, patch.dist
        return Stretch3Labels(self.eps, nodes, self.net_ids, dist)

    def _materialize(self) -> list[Stretch3Sketch]:
        members = self.net_ids.tolist()
        return [Stretch3Sketch(node=u, eps=self.eps,
                               entries=dict(zip(members, row)))
                for u, row in zip(self.nodes.tolist(), self.dist.tolist())]


def stretch3_artifacts(graph: Graph, seed: SeedLike, params) -> dict:
    """The stretch3 registry row's ``sample``: one density net for
    ``eps`` (an explicit ``net`` is taken as given)."""
    eps, net = params.get("eps"), params.get("net")
    if eps is None:
        raise ConfigError("stretch3 scheme needs eps")
    if net is None:
        net = sample_density_net(graph.n, eps, seed=seed)
    return {"eps": eps, "net": net}


def stretch3_sketches(graph: Graph, artifacts: dict) -> Stretch3Labels:
    """The stretch3 registry row's ``sketches``: every node's distances
    to the fixed net, read off the net members' rows — |N| sweeps from
    the net, each entry computed from the member, as the k-source run
    computes it."""
    members = np.unique(np.asarray(artifacts["net"].members, dtype=np.int64))
    block = np.ascontiguousarray(distance_rows(graph, members).T)
    return Stretch3Labels(artifacts["eps"], np.arange(graph.n), members,
                          block)


def stretch3_repair(graph: Graph, artifacts: dict, labels: Stretch3Labels,
                    dirty: Sequence[int]) -> tuple:
    """The stretch3 registry row's ``repair``, on the mutated graph: an
    entry ``d(w, u)`` is read off net member ``w``'s row, and a clean
    node's row is float-identical after the change, so only the dirty
    members are swept again.  Returns ``(owners, patch)``: every owner
    with a changed entry (sorted) and its rows, which
    ``labels.spliced`` puts in place — ``patch`` is ``None`` when no
    owner is re-issued."""
    cols = np.flatnonzero(np.isin(labels.net_ids, dirty))
    if not cols.size:
        return np.empty(0, dtype=np.int64), None
    rows = distance_rows(graph, labels.net_ids[cols])
    owners = np.flatnonzero((rows != labels.dist[:, cols].T).any(axis=0))
    block = labels.dist[owners]
    block[:, cols] = rows[:, owners].T
    return owners, Stretch3Labels(labels.eps, owners, labels.net_ids, block)


def build_stretch3_centralized(graph: Graph, eps: float, seed: SeedLike = None,
                               net: DensityNet = None,
                               ) -> tuple[Stretch3Labels, DensityNet]:
    """Centralized twin: net sampling + the net members' distance rows."""
    artifacts = stretch3_artifacts(graph, seed, {"eps": eps, "net": net})
    return stretch3_sketches(graph, artifacts), artifacts["net"]


def build_stretch3_distributed(graph: Graph, eps: float, seed: SeedLike = None,
                               net: DensityNet = None,
                               ) -> tuple[list[Stretch3Sketch], DensityNet, RunMetrics]:
    """Distributed build per Theorem 4.3: sample the net locally, then one
    k-Source Shortest Paths run with the net as the source set."""
    rng = ensure_rng(seed)
    net = stretch3_artifacts(graph, rng, {"eps": eps, "net": net})["net"]
    # a plain list, each dict in the order the run learned its entries
    per_node, metrics = k_source_shortest_paths(graph, net.members, seed=rng)
    return [Stretch3Sketch(node=u, eps=eps, entries=dict(entries))
            for u, entries in enumerate(per_node)], net, metrics
