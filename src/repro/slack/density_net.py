"""ε-density nets (paper Definition 4.1 and Lemma 4.2).

A set ``N ⊆ V`` is an ε-density net if (1) every vertex ``u`` has a net
node within ``R(u, ε)`` — the radius of the smallest ball around ``u``
containing at least ``εn`` vertices — and (2) ``|N| <= (10/ε) ln n``.

The paper's construction (Lemma 4.2) is pure local sampling: every vertex
joins ``N`` independently with probability ``(5 ln n) / (ε n)`` (capped at
1), which needs **zero communication** — this is precisely the modification
the paper makes to the centralized CDG nets to get distributability.  Both
net properties then hold with high probability; :func:`verify_density_net`
checks them exactly (experiment E5 reports the empirical failure rate and
the A2 ablation compares against the original CDG parameters:
``|N| ~ 1/ε`` with radius ``2 R(u, ε)``).

The companion distributed step (every node learns its nearest net node) is
one super-source Bellman-Ford: ``O(S)`` rounds, ``O(S |E|)`` messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.algorithms.supersource import distances_to_set
from repro.congest.metrics import RunMetrics
from repro.errors import ConfigError
from repro.graphs.graph import Graph
from repro.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class DensityNet:
    """A sampled net with its parameters (members are sorted node IDs)."""

    eps: float
    n: int
    members: tuple[int, ...]

    def size(self) -> int:
        return len(self.members)

    def size_bound(self) -> float:
        """The Definition 4.1 cardinality bound ``(10/ε) ln n``."""
        return 10.0 / self.eps * math.log(max(self.n, 2))


def sampling_probability(n: int, eps: float) -> float:
    """Lemma 4.2's per-vertex join probability ``min(1, 5 ln n / (ε n))``."""
    if not (0.0 < eps <= 1.0):
        raise ConfigError(f"eps must be in (0, 1], got {eps}")
    return min(1.0, 5.0 * math.log(max(n, 2)) / (eps * n))


def sample_density_net(n: int, eps: float, seed: SeedLike = None) -> DensityNet:
    """Sample a net by independent local coin flips (Lemma 4.2).

    Resamples in the (exponentially unlikely) event that no vertex joined —
    an empty net cannot serve property (1).
    """
    rng = ensure_rng(seed)
    p = sampling_probability(n, eps)
    for _ in range(1000):
        mask = rng.random(n) < p
        if mask.any():
            return DensityNet(eps=eps, n=n,
                              members=tuple(int(v) for v in np.flatnonzero(mask)))
    raise ConfigError(f"net sampling kept drawing empty sets (n={n}, eps={eps})")


def ball_radii(dist: np.ndarray, eps: float) -> np.ndarray:
    """``R(u, ε)`` for every ``u``: the εn-th smallest entry in row ``u``
    of the n × n distance matrix ``dist`` (the row contains
    ``d(u, u) = 0``, so ``|B(u, R)| >= εn`` counts ``u``)."""
    n = dist.shape[0]
    need = max(1, math.ceil(eps * n))
    # partition is O(n) per row vs full sort's O(n log n)
    return np.partition(dist, need - 1, axis=1)[:, need - 1]


def verify_density_net(dist: np.ndarray, net: DensityNet) -> dict:
    """Exact check of both Definition 4.1 properties.

    Returns a report dict: per-property booleans plus the measured values,
    used by tests and experiment E5.
    """
    members = np.asarray(net.members, dtype=np.int64)
    radii = ball_radii(dist, net.eps)
    d_to_net = dist[:, members].min(axis=1)
    coverage_ok = bool(np.all(d_to_net <= radii + 1e-9))
    size_ok = net.size() <= net.size_bound()
    return {
        "coverage_ok": coverage_ok,
        "size_ok": size_ok,
        "size": net.size(),
        "size_bound": net.size_bound(),
        "worst_coverage_ratio": float(np.max(
            np.where(radii > 0, d_to_net / np.maximum(radii, 1e-300), 0.0))),
    }


def build_density_net_distributed(graph: Graph, eps: float,
                                  seed: SeedLike = None,
                                  ) -> tuple[DensityNet, list[tuple[float, int]], RunMetrics]:
    """Sample a net (zero rounds — local coins) and run the super-source
    Bellman-Ford so every node knows its nearest net node.

    Returns ``(net, assignments, metrics)`` with ``assignments[u] =
    (d(u, N), nearest net node)``.
    """
    rng = ensure_rng(seed)
    net = sample_density_net(graph.n, eps, seed=rng)
    assignments, metrics = distances_to_set(graph, net.members, seed=rng)
    return net, assignments, metrics


def cdg_original_net(dist: np.ndarray, eps: float,
                     seed: SeedLike = None) -> DensityNet:
    """The *original* Chan-Dinitz-Gupta density net for the A2 ablation:
    a greedy centralized construction of at most ``ceil(1/ε)`` nodes such
    that every vertex has a net node within ``2 R(u, ε)``.

    Greedy argument (as in [CDG06]): repeatedly pick the uncovered vertex
    ``u`` with smallest ``R(u, ε)`` and add it to the net; its ball
    ``B(u, R(u, ε))`` contains ``>= εn`` vertices, all of which become
    covered (any ``v`` in it has ``d(v, u) <= R(u,ε) + R(u,ε)``... within
    ``2 R(v, ε)`` since ``R(v, ε) >= R(u, ε) - d(u,v)`` need not hold in
    general metrics, so we verify coverage explicitly and keep adding until
    all vertices are covered — for the ablation's measurement purposes the
    *size* and *radius* actually achieved are what get reported).
    """
    n = dist.shape[0]
    radii = ball_radii(dist, eps)
    order = np.argsort(radii, kind="stable")
    covered = np.zeros(n, dtype=bool)
    members: list[int] = []
    for u in order:
        u = int(u)
        if covered[u]:
            continue
        members.append(u)
        covered |= dist[u] <= 2.0 * radii
    return DensityNet(eps=eps, n=n, members=tuple(sorted(members)))
