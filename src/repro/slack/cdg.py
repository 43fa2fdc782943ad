"""(ε,k)-CDG sketches (paper Lemmas 4.4/4.5, Theorem 4.6).

The stretch-3 construction stores ``Θ((1/ε) log n)`` entries; the CDG
construction trades a worse stretch (``8k - 1`` on ε-far pairs) for a much
smaller sketch by running **Thorup–Zwick on the density net itself**:

* sample an ε-density net ``N`` (local coins, Lemma 4.2);
* one super-source Bellman-Ford so every ``u`` learns its *gateway* — the
  closest net node ``u'`` and ``d(u, u')``;
* run Algorithm 2 with the hierarchy ``A_0 = N ⊇ A_1 ⊇ …`` sampled with
  probability ``((10/ε) ln n)^{-1/k}`` per level.  The bunches/pivots of a
  net node computed *through G* coincide with what the metric completion of
  ``N`` would give, which is the paper's key observation (Lemma 4.5).

Sketch of ``u``: its gateway pair plus the TZ label of ``u'``.  Query:
``d(u, u') + d''(u', v') + d(v', v)`` where ``d''`` is the TZ estimate —
``<= (8k - 1) d(u, v)`` whenever ``v`` is ε-far from ``u`` (Theorem 4.6;
measured by experiment E7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.congest.metrics import RunMetrics
from repro.errors import ConfigError, QueryError
from repro.graphs.graph import Graph
from repro.rng import SeedLike, ensure_rng
from repro.slack.density_net import DensityNet, sample_density_net
from repro.algorithms.supersource import distances_to_set
from repro.tz.centralized import _set_keys, tz_sketches
from repro.tz.distributed import build_tz_sketches_distributed
from repro.tz.hierarchy import Hierarchy, sample_hierarchy
from repro.tz.sketch import ColumnLabels, TZLabels, TZSketch, estimate_distance
from repro.words import entry_words


@dataclass(frozen=True)
class CDGSketch:
    """One node's (ε,k)-CDG sketch."""

    node: int
    eps: float
    k: int
    gateway: int          # u' — closest net node
    gateway_dist: float   # d(u, u')
    label: TZSketch       # Thorup–Zwick label of u' (over the net)

    def size_words(self) -> int:
        return entry_words() + self.label.size_words()

    def estimate_to(self, other: "CDGSketch") -> float:
        if self.node == other.node:
            return 0.0
        through = estimate_distance(self.label, other.label)
        return self.gateway_dist + through + other.gateway_dist


class CDGLabels(ColumnLabels):
    """CDG sketches as columns: ``nodes[j]``'s gateway ``gateway_ids[j]``
    at ``gateway_dists[j]``, and ``net``, a
    :class:`~repro.tz.sketch.TZLabels` (its ``nodes`` sorted) holding
    every gateway's label; read as the list of :class:`CDGSketch`."""

    scheme = "cdg"
    fields = ("eps", "k", "nodes", "gateway_ids", "gateway_dists", "net")

    @classmethod
    def from_sketches(cls, sketches: Sequence[CDGSketch]) -> "CDGLabels":
        """:raises ConfigError: on mixed parameters, a label that is not
            its gateway's, or two labels for one gateway."""
        eps, k = sketches[0].eps, sketches[0].k
        labels: dict[int, TZSketch] = {}
        for s in sketches:
            if s.eps != eps or s.k != k:
                raise ConfigError(
                    f"mixed eps/k in sketch set: ({s.eps}, {s.k}) vs "
                    f"({eps}, {k}) (node {s.node})")
            if s.label.node != s.gateway:
                raise ConfigError(
                    f"node {s.node} ships the label of {s.label.node} but "
                    f"names gateway {s.gateway}")
            if labels.setdefault(s.gateway, s.label) != s.label:
                raise ConfigError(
                    f"conflicting labels for gateway {s.gateway}")
        return cls(eps, k, np.asarray([s.node for s in sketches],
                                      dtype=np.int64),
                   np.asarray([s.gateway for s in sketches], dtype=np.int64),
                   np.asarray([s.gateway_dist for s in sketches],
                              dtype=np.float64),
                   TZLabels.from_sketches([labels[w] for w in sorted(labels)]))

    def net_rows(self, ids: np.ndarray) -> np.ndarray:
        """The positions in ``net`` of net nodes ``ids``."""
        return np.searchsorted(self.net.nodes, ids)

    def sizes_words(self) -> list[int]:
        """The gateway pair plus the gateway's label, per sketch."""
        sizes = np.asarray(self.net.sizes_words(), dtype=np.int64)
        return (entry_words()
                + sizes[self.net_rows(self.gateway_ids)]).tolist()

    def _materialize(self) -> list[CDGSketch]:
        net, at = self.net._materialized(), self.net_rows(self.gateway_ids)
        return [CDGSketch(node=u, eps=self.eps, k=self.k, gateway=w,
                          gateway_dist=d, label=net[j])
                for u, w, d, j in zip(self.nodes.tolist(),
                                      self.gateway_ids.tolist(),
                                      self.gateway_dists.tolist(),
                                      at.tolist())]


def cdg_sampling_probability(n: int, eps: float, k: int) -> float:
    """The paper's net-hierarchy sampling probability
    ``((10/ε) ln n)^{-1/k}``, clamped into (0, 1]."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    base = 10.0 / eps * math.log(max(n, 2))
    return min(1.0, base ** (-1.0 / k))


def gateway_columns(graph: Graph, members) -> tuple[np.ndarray, np.ndarray]:
    """Per node ``d(u, N)`` and ``u'`` as two columns: the closest
    member of ``members``, the smallest id among equidistant ones,
    ``(inf, -1)`` where none is reachable — one sweep from the net, as
    the super-source run of
    :func:`~repro.algorithms.supersource.distances_to_set` computes it."""
    return _set_keys(graph.to_csr(), np.asarray(members, dtype=np.int64))


def link_gateways(eps: float, k: int, dist: np.ndarray, witness: np.ndarray,
                  net: TZLabels) -> CDGLabels:
    """Every node's sketch: node ``u``'s gateway ``witness[u]`` at
    ``dist[u]``, linked to its label in ``net``.

    :raises QueryError: when a node reaches no net member.
    """
    stranded = np.flatnonzero(witness < 0)
    if stranded.size:
        raise QueryError(
            f"the graph strands node {stranded[0]} from the density "
            f"net (no reachable member); use a net covering every component")
    return CDGLabels(eps, k, np.arange(len(witness)),
                     np.asarray(witness, dtype=np.int64),
                     np.asarray(dist, dtype=np.float64), net)


def cdg_artifacts(graph: Graph, seed: SeedLike, params) -> dict:
    """The cdg registry row's ``sample``: a density net for ``eps``, then
    the ``k``-level hierarchy over that net — in that order, from one
    stream; an explicit ``net`` / ``hierarchy`` is taken as given.  Every
    CDG build (centralized, distributed, a graceful level) samples here."""
    eps, k = params.get("eps"), params.get("k")
    if eps is None or k is None:
        raise ConfigError("cdg scheme needs eps and k")
    rng = ensure_rng(seed)
    net, hierarchy = params.get("net"), params.get("hierarchy")
    if net is None:
        net = sample_density_net(graph.n, eps, seed=rng)
    if hierarchy is None:
        hierarchy = sample_hierarchy(
            graph.n, k, q=cdg_sampling_probability(graph.n, eps, k),
            universe=net.members, seed=rng)
    return {"eps": eps, "k": k, "net": net, "hierarchy": hierarchy}


def cdg_sketches(graph: Graph, artifacts: dict) -> CDGLabels:
    """The cdg registry row's ``sketches``: every node's gateway from one
    :func:`gateway_columns` sweep over the net, linked to the gateway's
    Thorup–Zwick label over the fixed net and net hierarchy.

    :raises QueryError: when a node reaches no net member.
    """
    members = np.unique(np.asarray(artifacts["net"].members, dtype=np.int64))
    net = tz_sketches(graph, artifacts, members)
    dist, witness = gateway_columns(graph, members)
    return link_gateways(artifacts["eps"], artifacts["k"], dist, witness,
                         net)


def build_cdg_centralized(graph: Graph, eps: float, k: int,
                          seed: SeedLike = None,
                          net: Optional[DensityNet] = None,
                          hierarchy: Optional[Hierarchy] = None,
                          ) -> tuple[CDGLabels, DensityNet, Hierarchy]:
    """Centralized twin (used for differential tests and large-n stats)."""
    artifacts = cdg_artifacts(graph, seed, {"eps": eps, "k": k, "net": net,
                                            "hierarchy": hierarchy})
    return (cdg_sketches(graph, artifacts), artifacts["net"],
            artifacts["hierarchy"])


def build_cdg_distributed(graph: Graph, eps: float, k: int,
                          seed: SeedLike = None,
                          net: Optional[DensityNet] = None,
                          hierarchy: Optional[Hierarchy] = None,
                          sync: str = "oracle",
                          S: Optional[int] = None,
                          budget="whp",
                          ) -> tuple[CDGLabels, DensityNet, Hierarchy, RunMetrics]:
    """Distributed build per Lemma 4.5.

    Metrics are the sum of the super-source gateway run and the
    TZ-on-the-net run (net sampling costs zero rounds).

    Note the distributed TZ run hands *every* node a label over the net
    hierarchy; only the net nodes' labels enter the sketches, exactly as in
    the paper ("the nodes in N will have a sketch that is exactly equal to
    the sketch they would have if we ran Algorithm 2 on the metric
    completion of N").  A node's own gateway label reaches it through its
    gateway: ``u'`` is by definition the net node ``u`` talks to, one
    sketch-sized exchange away (the online protocol of experiment E10).
    """
    rng = ensure_rng(seed)
    artifacts = cdg_artifacts(graph, rng, {"eps": eps, "k": k, "net": net,
                                           "hierarchy": hierarchy})
    net, hierarchy = artifacts["net"], artifacts["hierarchy"]
    assignments, m1 = distances_to_set(graph, net.members, seed=rng)
    tz = build_tz_sketches_distributed(graph, hierarchy=hierarchy, sync=sync,
                                       seed=rng, S=S, budget=budget)
    dist, witness = np.array(assignments, dtype=np.float64).reshape(-1, 2).T
    net_labels = TZLabels.from_sketches([tz.sketches[w]
                                         for w in sorted(net.members)])
    return (link_gateways(eps, k, dist, witness, net_labels),
            net, hierarchy, m1 + tz.metrics)
