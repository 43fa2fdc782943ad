"""Shared workload generators for the experiment suite.

Centralizing the graph construction keeps every experiment's workload
reproducible (fixed seeds derived from the experiment id) and documented
in one place: ER for unstructured networks, geometric for the
network-coordinate setting, grid/ring for high-diameter topologies,
star-path for the D-vs-S gap.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

from repro.graphs import (
    Graph,
    apsp,
    assign_uniform_weights,
    barabasi_albert,
    erdos_renyi,
    grid2d,
    random_geometric,
    ring,
    shortest_path_diameter,
    star_path,
)

BASE_SEED = 20120625  # SPAA'12 conference date — fixed workload seed


@functools.lru_cache(maxsize=64)
def workload(family: str, n: int, weighted: bool = False) -> Graph:
    """A reproducible experiment graph of the given family and size."""
    # a stable digest, not hash(): a str's hash is salted per process
    seed = BASE_SEED + zlib.crc32(
        repr((family, n, weighted)).encode()) % 100_000
    if family == "er":
        g = erdos_renyi(n, seed=seed)
    elif family == "ba":
        g = barabasi_albert(n, m_attach=2, seed=seed)
    elif family == "geo":
        g = random_geometric(n, seed=seed)
    elif family == "grid":
        side = int(round(n ** 0.5))
        g = grid2d(side, max(1, n // side))
    elif family == "ring":
        g = ring(n)
    elif family == "star_path":
        g = star_path(n)
    else:
        raise ValueError(f"unknown workload family {family!r}")
    if weighted and family not in ("geo",):  # geo is already weighted
        assign_uniform_weights(g, low=1, high=10, seed=seed + 1)
    return g


@functools.lru_cache(maxsize=64)
def workload_apsp(family: str, n: int, weighted: bool = False) -> np.ndarray:
    return apsp(workload(family, n, weighted))


@functools.lru_cache(maxsize=64)
def workload_S(family: str, n: int, weighted: bool = False) -> int:
    return shortest_path_diameter(workload(family, n, weighted))
