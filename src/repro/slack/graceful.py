"""Gracefully degrading sketches (paper Section 4.1).

A sketch is *gracefully degrading* with stretch ``f(ε)`` if it achieves
stretch ``f(ε)`` with ε-slack **simultaneously for every** ``ε ∈ (0, 1)``.
The paper's construction (Theorem 4.8) is a union of ``O(log n)`` CDG
sketches, one per ``ε_i = 2^{-i}`` with ``k_i = O(log 1/ε_i)``; a query
takes the minimum over all component estimates.

Consequences measured by experiment E8:

* setting ``ε < 1/n`` makes every pair ε-far, so worst-case stretch is
  ``O(log n)`` (Lemma 4.7's first part);
* summing the per-annulus bounds gives **average stretch O(1)**
  (Lemma 4.7 / Corollary 4.9) — the headline improvement over plain
  Thorup–Zwick at ``k = log n``, bought for an extra ``O(log^2 n)`` factor
  in size (``O(log^4 n)`` words total) and construction time.
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
from repro.slack.cdg import (CDGLabels, CDGSketch, build_cdg_distributed,
                             cdg_artifacts, cdg_sketches)
from repro.tz.sketch import ColumnLabels


@dataclass(frozen=True)
class GracefulSketch:
    """Union of per-ε CDG sketches for one node."""

    node: int
    components: tuple[CDGSketch, ...]  # ordered by schedule index i = 1, 2, ...

    def size_words(self) -> int:
        return sum(c.size_words() for c in self.components)

    def estimate_to(self, other: "GracefulSketch") -> float:
        """Minimum over component estimates (never below the true distance,
        since every component estimate is a sum of real path lengths)."""
        if self.node == other.node:
            return 0.0
        if len(self.components) != len(other.components):
            raise QueryError("mismatched graceful sketches")
        return min(c.estimate_to(o)
                   for c, o in zip(self.components, other.components))

    def estimate_for_eps(self, other: "GracefulSketch", eps: float) -> float:
        """The single-component estimate the Theorem 4.8 analysis routes
        through: ε rounded down to the nearest power of 1/2."""
        if self.node == other.node:
            return 0.0
        i = max(1, math.ceil(math.log2(1.0 / eps)))
        i = min(i, len(self.components))
        return self.components[i - 1].estimate_to(other.components[i - 1])


class GracefulLabels(ColumnLabels):
    """Graceful sketches as columns: one
    :class:`~repro.slack.cdg.CDGLabels` per ε-level, over the same
    nodes; read as the list of :class:`GracefulSketch`."""

    scheme = "graceful"
    fields = ("levels",)

    def __init__(self, levels: Sequence[CDGLabels]):
        if not levels:
            raise ConfigError("graceful sketches need >= 1 component")
        super().__init__(tuple(levels))
        self.nodes = self.levels[0].nodes

    @classmethod
    def from_sketches(cls, sketches: Sequence[GracefulSketch],
                      ) -> "GracefulLabels":
        """:raises ConfigError: on mismatched component counts."""
        count = len(sketches[0].components)
        for s in sketches:
            if len(s.components) != count:
                raise ConfigError(
                    f"mismatched graceful sketches: node {s.node} has "
                    f"{len(s.components)} components, expected {count}")
        return cls([CDGLabels.from_sketches([s.components[i]
                                             for s in sketches])
                    for i in range(count)])

    def sizes_words(self) -> list[int]:
        """Every level's sketch size, summed per node."""
        return np.sum([level.sizes_words() for level in self.levels],
                      axis=0).tolist()

    def _materialize(self) -> list[GracefulSketch]:
        per_level = [level._materialized() for level in self.levels]
        return [GracefulSketch(node=u, components=tuple(
                    level[j] for level in per_level))
                for j, u in enumerate(self.nodes.tolist())]


def graceful_schedule(n: int) -> list[tuple[float, int]]:
    """The Theorem 4.8 parameter schedule: ``(ε_i, k_i)`` for
    ``i = 1..ceil(log2 n)`` with ``ε_i = 2^{-i}`` and ``k_i = i``
    (``k = O(log 1/ε)``).  The final ``ε`` is ``<= 1/n``, which makes every
    pair slack-covered and yields the worst-case ``O(log n)`` stretch."""
    if n < 2:
        raise ConfigError("graceful sketches need n >= 2")
    imax = max(1, math.ceil(math.log2(n)))
    return [(2.0 ** -i, i) for i in range(1, imax + 1)]


def graceful_artifacts(graph: Graph, seed: SeedLike, params) -> dict:
    """The graceful registry row's ``sample``: the Theorem 4.8 schedule
    (an explicit ``schedule`` is taken as given), then per level the CDG
    artifacts — net, then net hierarchy — back to back from one stream.
    ``components`` (what a build recorded) is taken as given too."""
    rng = ensure_rng(seed)
    schedule, components = params.get("schedule"), params.get("components")
    if schedule is None:
        schedule = graceful_schedule(graph.n)
    if components is None:
        components = [cdg_artifacts(graph, rng, {"eps": eps, "k": k})
                      for eps, k in schedule]
    return {"schedule": schedule, "components": components}


def graceful_sketches(graph: Graph, artifacts: dict) -> GracefulLabels:
    """The graceful registry row's ``sketches``: every node's CDG
    sketches of every level — one gateway sweep per level, over the
    graph's one CSR."""
    return GracefulLabels([cdg_sketches(graph, level)
                           for level in artifacts["components"]])


def build_graceful_centralized(graph: Graph, seed: SeedLike = None,
                               schedule: Optional[list[tuple[float, int]]] = None,
                               ) -> tuple[GracefulLabels, list[tuple[float, int]]]:
    """Centralized twin of the Theorem 4.8 build."""
    artifacts = graceful_artifacts(graph, seed, {"schedule": schedule})
    return graceful_sketches(graph, artifacts), artifacts["schedule"]


def build_graceful_distributed(graph: Graph, seed: SeedLike = None,
                               schedule: Optional[list[tuple[float, int]]] = None,
                               sync: str = "oracle",
                               S: Optional[int] = None,
                               budget="whp",
                               ) -> tuple[GracefulLabels, list[tuple[float, int]], RunMetrics]:
    """Distributed build: the O(log n) CDG instantiations run back to back
    ("we just run each of the O(log n) instantiations of the theorem back
    to back"), so the metrics are the straight sum."""
    rng = ensure_rng(seed)
    if schedule is None:
        schedule = graceful_schedule(graph.n)
    per_level = []
    total: Optional[RunMetrics] = None
    for eps, k in schedule:
        sketches, _, _, m = build_cdg_distributed(graph, eps, k, seed=rng,
                                                  sync=sync, S=S, budget=budget)
        per_level.append(sketches)
        total = m if total is None else total + m
    return GracefulLabels(per_level), schedule, total
