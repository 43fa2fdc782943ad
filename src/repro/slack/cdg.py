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
from repro.tz.sketch import TZSketch, estimate_distance
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


def cdg_sampling_probability(n: int, eps: float, k: int) -> float:
    """The paper's net-hierarchy sampling probability
    ``((10/ε) ln n)^{-1/k}``, clamped into (0, 1]."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    base = 10.0 / eps * math.log(max(n, 2))
    return min(1.0, base ** (-1.0 / k))


def gateways(graph: Graph, members) -> list[tuple[float, int]]:
    """Per node ``(d(u, N), u')``: the closest member of ``members``,
    the smallest id among equidistant ones, ``(inf, -1)`` where none is
    reachable — one sweep from the net, as the super-source run of
    :func:`~repro.algorithms.supersource.distances_to_set` computes it."""
    dist, witness = _set_keys(graph.to_csr(),
                              np.asarray(members, dtype=np.int64))
    return list(zip(dist.tolist(), witness.tolist()))


def link_gateways(eps: float, k: int, owners,
                  pairs: list[tuple[float, int]],
                  net_labels: dict[int, TZSketch]) -> list[CDGSketch]:
    """The owners' sketches: each gateway pair ``(d(u, u'), u')`` of
    ``pairs`` (one per owner) linked to ``u'``'s label.

    :raises QueryError: when an owner reaches no net member.
    """
    out = []
    for u, (gd, gw) in zip(owners, pairs):
        if gw < 0:
            raise QueryError(
                f"the graph strands node {u} from the density net (no "
                f"reachable member); use a net covering every component")
        out.append(CDGSketch(node=int(u), eps=eps, k=k, gateway=gw,
                             gateway_dist=gd, label=net_labels[gw]))
    return out


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


def cdg_sketches(graph: Graph, artifacts: dict,
                 owners: Optional[Sequence[int]] = None) -> list[CDGSketch]:
    """The cdg registry row's per-owner function: each owner's gateway
    from one :func:`gateways` sweep over the net, linked to the
    gateway's Thorup–Zwick label over the fixed net and net hierarchy.

    :raises QueryError: when an owner reaches no net member.
    """
    members = artifacts["net"].members
    labels = dict(zip(members, tz_sketches(graph, artifacts, members)))
    column = gateways(graph, members)
    owners = graph.nodes() if owners is None else owners
    return link_gateways(artifacts["eps"], artifacts["k"], owners,
                         [column[u] for u in owners], labels)


def build_cdg_centralized(graph: Graph, eps: float, k: int,
                          seed: SeedLike = None,
                          net: Optional[DensityNet] = None,
                          hierarchy: Optional[Hierarchy] = None,
                          ) -> tuple[list[CDGSketch], DensityNet, Hierarchy]:
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
                          ) -> tuple[list[CDGSketch], DensityNet, Hierarchy, RunMetrics]:
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
    net_labels = {w: tz.sketches[w] for w in net.members}
    metrics = m1 + tz.metrics
    return (link_gateways(eps, k, graph.nodes(), assignments, net_labels),
            net, hierarchy, metrics)
