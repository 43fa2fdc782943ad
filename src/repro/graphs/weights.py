"""Weight-assignment schemes.

The paper's bounds hold for arbitrary nonnegative polynomially-bounded
weights; the experiments exercise several regimes because the
shortest-path diameter ``S`` (and hence round complexity) is driven by the
weight distribution, not just the topology:

* unit weights — ``S == D``; the baseline regime.
* uniform random weights — mild weight diversity; ``S`` grows modestly.
* exponential-ish (heavy-tailed integer) weights — a few very cheap edges
  create long (many-hop) shortest paths, inflating ``S`` relative to ``D``.

All functions draw the ``m`` weights in one vectorized call (the same
stream, and the same generator state afterwards, as one scalar draw per
edge in :meth:`Graph.edges` order) and write them back in that order.  They
mutate the graph in place and return it for chaining.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.rng import SeedLike, ensure_rng


def assign_unit_weights(g: Graph) -> Graph:
    """Set every edge weight to 1 (makes ``S == D``)."""
    g._replace_weights(np.ones(g.m))
    return g


def assign_uniform_weights(g: Graph, low: float = 1.0, high: float = 10.0,
                           seed: SeedLike = None) -> Graph:
    """I.i.d. ``Uniform[low, high]`` weights (rounded to integers >= 1)."""
    rng = ensure_rng(seed)
    g._replace_weights(np.maximum(1.0, np.ceil(rng.uniform(low, high, g.m))))
    return g


def assign_exponential_weights(g: Graph, scale: float = 10.0, seed: SeedLike = None) -> Graph:
    """Heavy-tailed integer weights ``1 + floor(Exp(scale))``.

    Creates the cheap-detour structure that separates ``S`` from ``D``.
    """
    rng = ensure_rng(seed)
    g._replace_weights(1.0 + np.floor(rng.exponential(scale, g.m)))
    return g


def assign_integer_weights(g: Graph, choices=(1, 2, 5, 10, 100), seed: SeedLike = None) -> Graph:
    """Weights drawn uniformly from a small fixed set (deterministic ratios,
    useful for hand-checkable tests)."""
    rng = ensure_rng(seed)
    arr = np.asarray(choices, dtype=np.float64)
    g._replace_weights(arr[rng.integers(0, len(arr), g.m)])
    return g
