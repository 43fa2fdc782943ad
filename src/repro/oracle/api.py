"""The public build/query surface.

``build_sketches(graph, scheme=..., mode=...)`` dispatches to the right
construction and wraps the result in :class:`BuiltSketches`, which holds

* one sketch object per node (all schemes expose ``estimate_to`` and
  ``size_words``),
* the CONGEST cost (:class:`~repro.congest.metrics.RunMetrics`) for
  distributed builds (``None`` for centralized ones),
* the scheme metadata needed to interpret stretch guarantees.

TZ-specific parameters: ``k`` (and ``sync``/``S``/``budget`` when
distributed).  Slack schemes take ``eps`` (+ ``k`` for CDG); graceful takes
no scheme parameters (the schedule is fixed by Theorem 4.8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.congest.metrics import RunMetrics
from repro.errors import ConfigError
from repro.graphs.graph import Graph
from repro.oracle.schemes import SchemeSpec, get_scheme
from repro.rng import SeedLike
from repro.tz.centralized import describe_build
from repro.tz.sketch import estimate_distance


@dataclass
class BuiltSketches:
    """A complete per-node sketch set plus its provenance."""

    graph: Graph
    scheme: SchemeSpec
    mode: str
    params: dict
    sketches: list[Any]
    metrics: Optional[RunMetrics] = None
    extras: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def query(self, u: int, v: int, **kwargs) -> float:
        """Estimate ``d(u, v)`` from the two sketches alone."""
        su, sv = self.sketches[u], self.sketches[v]
        if self.scheme.name == "tz":
            return estimate_distance(su, sv, **kwargs)
        return su.estimate_to(sv)

    def connect(self, spec: str = "inproc://", *,
                cache_size: Optional[int] = None):
        """A serving session over this build —
        ``built.connect("inproc://jobs=4")`` is shorthand for
        :func:`repro.service.client.connect` with this sketch set as
        the source (``jobs=4`` cuts every batch across a GIL-releasing
        thread pool).  Returns an
        :class:`~repro.service.client.OracleClient`; close it (or use
        it as a context manager) when done.
        """
        from repro.service.client import connect as _connect

        return _connect(spec, self.sketches, cache_size=cache_size)

    def query_many(self, pairs):
        """Batched estimates for an iterable/array of ``(u, v)`` pairs —
        answers are bit-identical to looping :meth:`query`.  Served by a
        one-shard index built on first use and kept in ``extras``; open
        a session with :meth:`connect` for caching, threads or updates.
        """
        from repro.service.index import build_index, parse_pair_array

        index = self.extras.get("_index")
        if index is None:
            index = self.extras["_index"] = build_index(self.sketches)
        arr = parse_pair_array(pairs)
        return index.estimate_many(arr[:, 0], arr[:, 1])

    def updateable(self, num_shards: int = 1,
                   rebuild_threshold: Optional[float] = None):
        """An :class:`~repro.service.updates.UpdateableIndex` over this
        build — accepts edge-change streams and incrementally repairs
        the index (bit-identical to a rebuild with the same artifacts).

        Reuses the already-built sketches and the build's random
        artifacts (hierarchy / density net) from ``extras``, so no
        reconstruction happens here.  Centralized builds of ``tz`` /
        ``stretch3`` / ``cdg`` only: distributed builds' metrics would
        not survive a repair, and a graceful build does not record its
        per-component nets — construct
        :class:`~repro.service.updates.UpdateableIndex` from the graph
        and a seed for those.

        ``rebuild_threshold`` is the dirty fraction above which an
        apply rebuilds instead of repairing (default
        :data:`~repro.service.updates.REBUILD_THRESHOLD_DEFAULT`).

        :raises ConfigError: for a distributed build or a scheme whose
            artifacts are not recoverable from ``extras``.
        """
        from repro.service.updates import (REBUILD_THRESHOLD_DEFAULT,
                                           UpdateableIndex)

        if self.mode != "centralized":
            raise ConfigError(
                "updateable() needs a centralized build (distributed "
                "cost metrics cannot be repaired incrementally)")
        if not self.scheme.supports_updates:
            raise ConfigError(
                f"scheme {self.scheme.name!r} has no update support")
        if rebuild_threshold is None:
            rebuild_threshold = REBUILD_THRESHOLD_DEFAULT
        name = self.scheme.name
        artifacts: dict = {}
        if name == "tz":
            artifacts["hierarchy"] = self.extras["hierarchy"]
        elif name == "stretch3":
            artifacts["net"] = self.extras["net"]
            artifacts["eps"] = self.params["eps"]
        elif name == "cdg":
            artifacts["net"] = self.extras["net"]
            artifacts["hierarchy"] = self.extras["hierarchy"]
            artifacts["eps"] = self.params["eps"]
            artifacts["k"] = self.params["k"]
        else:
            raise ConfigError(
                f"a built {name!r} set does not record the artifacts an "
                f"updateable index needs; build "
                f"UpdateableIndex(graph, scheme={name!r}, seed=...) "
                f"directly instead")
        return UpdateableIndex(self.graph, scheme=name,
                               num_shards=num_shards,
                               rebuild_threshold=rebuild_threshold,
                               sketches=self.sketches, **artifacts)

    def sizes_words(self) -> list[int]:
        return [s.size_words() for s in self.sketches]

    def max_size_words(self) -> int:
        return max(self.sizes_words())

    def mean_size_words(self) -> float:
        sizes = self.sizes_words()
        return sum(sizes) / len(sizes)

    def stretch_bound(self) -> float:
        return self.scheme.stretch_bound({**self.params, "n": self.graph.n})

    def slack(self) -> Optional[float]:
        return self.scheme.slack_of({**self.params, "n": self.graph.n})

    def describe(self) -> str:
        if self.metrics is not None:
            cost = self.metrics.describe()
        elif "build" in self.extras:
            cost = f"centralized, {describe_build(self.extras['build'])}"
        else:
            cost = "centralized"
        return (f"[{self.scheme.name}/{self.mode}] n={self.graph.n} "
                f"max-size={self.max_size_words()}w, {cost}; "
                f"{self.scheme.describe({**self.params, 'n': self.graph.n})}")


_SYNC_PARAMS = ("sync", "S", "budget")
#: (scheme, mode) -> every keyword parameter that build reads
_PARAMS = {
    ("tz", "centralized"): ("k", "hierarchy"),
    ("tz", "distributed"): ("k", "hierarchy", *_SYNC_PARAMS),
    ("stretch3", "centralized"): ("eps", "net", "dist_matrix"),
    ("stretch3", "distributed"): ("eps", "net"),
    ("cdg", "centralized"): ("eps", "k", "net", "hierarchy", "dist_matrix"),
    ("cdg", "distributed"): ("eps", "k", "net", "hierarchy", *_SYNC_PARAMS),
    ("graceful", "centralized"): ("schedule", "dist_matrix"),
    ("graceful", "distributed"): ("schedule", *_SYNC_PARAMS),
}


def build_sketches(graph: Graph, scheme: str = "tz", mode: str = "centralized",
                   seed: SeedLike = None, **params) -> BuiltSketches:
    """Build distance sketches for every node of ``graph``.

    Parameters
    ----------
    scheme:
        ``"tz"`` | ``"stretch3"`` | ``"cdg"`` | ``"graceful"``.
    mode:
        ``"centralized"`` (fast reference construction) or
        ``"distributed"`` (full CONGEST protocol with cost accounting).
    params:
        Scheme-specific (see module docstring).  A parameter this
        scheme and mode do not read is a :class:`ConfigError`, never
        silently dropped (``sinc="echo"`` must not build with the
        oracle terminator).
    """
    spec = get_scheme(scheme)
    if mode not in ("centralized", "distributed"):
        raise ConfigError(f"unknown mode {mode!r}")
    allowed = _PARAMS[scheme, mode]
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ConfigError(
            f"a {mode} {scheme} build takes no parameter "
            f"{', '.join(map(repr, unknown))}; it reads: "
            f"{', '.join(allowed)}")

    if scheme == "tz":
        return _build_tz(graph, spec, mode, seed, params)
    if scheme == "stretch3":
        return _build_stretch3(graph, spec, mode, seed, params)
    if scheme == "cdg":
        return _build_cdg(graph, spec, mode, seed, params)
    if scheme == "graceful":
        return _build_graceful(graph, spec, mode, seed, params)
    raise ConfigError(f"scheme {scheme!r} has no builder")  # pragma: no cover


def _build_tz(graph, spec, mode, seed, params) -> BuiltSketches:
    from repro.tz.centralized import build_tz_sketches_timed
    from repro.tz.distributed import build_tz_sketches_distributed

    k = params.get("k")
    hierarchy = params.get("hierarchy")
    if k is None and hierarchy is None:
        raise ConfigError("tz scheme needs k (or an explicit hierarchy)")
    if mode == "centralized":
        sketches, h, report = build_tz_sketches_timed(graph, k, hierarchy,
                                                      seed)
        return BuiltSketches(graph, spec, mode, {"k": h.k}, sketches, None,
                             {"hierarchy": h, "build": report})
    res = build_tz_sketches_distributed(
        graph, k=k, hierarchy=hierarchy, seed=seed,
        sync=params.get("sync", "oracle"), S=params.get("S"),
        budget=params.get("budget", "whp"))
    return BuiltSketches(graph, spec, mode, {"k": res.hierarchy.k},
                         res.sketches, res.metrics,
                         {"hierarchy": res.hierarchy,
                          "max_queue_len": res.max_queue_len,
                          "tree_depth": res.tree_depth,
                          "sync": res.sync})


def _build_stretch3(graph, spec, mode, seed, params) -> BuiltSketches:
    from repro.slack.stretch3 import (build_stretch3_centralized,
                                      build_stretch3_distributed)

    eps = params.get("eps")
    if eps is None:
        raise ConfigError("stretch3 scheme needs eps")
    if mode == "centralized":
        sketches, net = build_stretch3_centralized(
            graph, eps, seed=seed, net=params.get("net"),
            dist_matrix=params.get("dist_matrix"))
        return BuiltSketches(graph, spec, mode, {"eps": eps}, sketches, None,
                             {"net": net})
    sketches, net, metrics = build_stretch3_distributed(
        graph, eps, seed=seed, net=params.get("net"))
    return BuiltSketches(graph, spec, mode, {"eps": eps}, sketches, metrics,
                         {"net": net})


def _build_cdg(graph, spec, mode, seed, params) -> BuiltSketches:
    from repro.slack.cdg import build_cdg_centralized, build_cdg_distributed

    eps, k = params.get("eps"), params.get("k")
    if eps is None or k is None:
        raise ConfigError("cdg scheme needs eps and k")
    if mode == "centralized":
        sketches, net, h = build_cdg_centralized(
            graph, eps, k, seed=seed, net=params.get("net"),
            hierarchy=params.get("hierarchy"),
            dist_matrix=params.get("dist_matrix"))
        return BuiltSketches(graph, spec, mode, {"eps": eps, "k": k},
                             sketches, None, {"net": net, "hierarchy": h})
    sketches, net, h, metrics = build_cdg_distributed(
        graph, eps, k, seed=seed, net=params.get("net"),
        hierarchy=params.get("hierarchy"), sync=params.get("sync", "oracle"),
        S=params.get("S"), budget=params.get("budget", "whp"))
    return BuiltSketches(graph, spec, mode, {"eps": eps, "k": k},
                         sketches, metrics, {"net": net, "hierarchy": h})


def _build_graceful(graph, spec, mode, seed, params) -> BuiltSketches:
    from repro.slack.graceful import (build_graceful_centralized,
                                      build_graceful_distributed)

    if mode == "centralized":
        sketches, schedule = build_graceful_centralized(
            graph, seed=seed, schedule=params.get("schedule"),
            dist_matrix=params.get("dist_matrix"))
        return BuiltSketches(graph, spec, mode, {}, sketches, None,
                             {"schedule": schedule})
    sketches, schedule, metrics = build_graceful_distributed(
        graph, seed=seed, schedule=params.get("schedule"),
        sync=params.get("sync", "oracle"), S=params.get("S"),
        budget=params.get("budget", "whp"))
    return BuiltSketches(graph, spec, mode, {}, sketches, metrics,
                         {"schedule": schedule})
