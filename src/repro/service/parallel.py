"""Parallel centralized TZ preprocessing (fan-out over cluster roots).

The [TZ05] preprocessing splits into a small shared stage — sampling the
hierarchy and running one multi-source Dijkstra per level — and the
dominant stage: growing one truncated cluster *per vertex*.  The
per-root computations are completely independent (the same separability
DiPOA exploits across subproblems), so this module fans them across
``multiprocessing`` workers — each runs the builder's own frontier
kernel (:func:`~repro.tz.centralized.grow_clusters`) on its share of the
roots — and merges the shards deterministically.

Determinism contract: for a fixed seed, ``jobs=1`` and ``jobs=N`` produce
*byte-identical* serialized sketch sets.  Two ingredients make that true:

* every worker computes the exact same cluster rows a serial run would
  (the computation consumes no randomness and no shared mutable state), and
* :func:`~repro.tz.centralized.merge_bunch_tables` sorts the entries
  into the canonical ``(owner, level, landmark)`` order, so bunch dict
  iteration order is independent of the sharding.

Roots are dealt round-robin (``roots[j::jobs]``) so each worker gets a
balanced mix of low-level roots (big clusters) and high-level roots.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Optional

from repro.errors import ConfigError
from repro.graphs.graph import Graph
from repro.rng import SeedLike
from repro.tz.centralized import (BunchTable, build_tz_sketches_timed,
                                  grow_clusters, merge_bunch_tables)
from repro.tz.hierarchy import Hierarchy
from repro.tz.sketch import TZSketch

# Worker-global build inputs, installed once per worker by the pool
# initializer (cheaper than pickling the graph into every task).
_WORKER_STATE: dict = {}


def _init_worker(graph, hierarchy, pivot_keys) -> None:
    _WORKER_STATE["build"] = (graph, hierarchy, pivot_keys)


def _grow_clusters(roots) -> BunchTable:
    return grow_clusters(*_WORKER_STATE["build"], roots)


def default_jobs() -> int:
    """Worker count used when ``jobs`` is not given: one per CPU."""
    return max(1, os.cpu_count() or 1)


def fanned_out(jobs: Optional[int]):
    """The cluster stage across ``jobs`` worker processes: a drop-in for
    :func:`~repro.tz.centralized.grow_clusters` returning the identical
    table, whatever the worker count (``None``: one per CPU).

    :raises ConfigError: when ``jobs < 1``.
    """
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")

    def grow(graph, hierarchy, pivot_keys, roots) -> BunchTable:
        workers = min(jobs, len(roots))
        if workers <= 1:
            return grow_clusters(graph, hierarchy, pivot_keys, roots)
        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=workers, initializer=_init_worker,
                      initargs=(graph, hierarchy, pivot_keys)) as pool:
            return merge_bunch_tables(pool.map(
                _grow_clusters, [roots[j::workers] for j in range(workers)]))

    return grow


def build_tz_sketches_parallel(graph: Graph, k: Optional[int] = None,
                               hierarchy: Optional[Hierarchy] = None,
                               seed: SeedLike = None,
                               jobs: Optional[int] = None,
                               ) -> tuple[list[TZSketch], Hierarchy]:
    """Centralized [TZ05] preprocessing with the cluster stage fanned
    across ``jobs`` worker processes.

    Drop-in replacement for
    :func:`~repro.tz.centralized.build_tz_sketches_centralized`: same
    parameters plus ``jobs``, and — for a shared seed/hierarchy — the
    *identical* sketch set, whatever the worker count.
    """
    return build_tz_sketches_timed(graph, k, hierarchy, seed,
                                   fanned_out(jobs))[:2]
