"""The public build/query surface.

``build_sketches(graph, scheme=..., mode=...)`` runs the scheme's
registry row (:mod:`repro.oracle.schemes` — ``sample`` then the
per-owner ``sketches`` function for a centralized build, the row's
``distributed`` builder otherwise; nothing here names a scheme) and
wraps the result in :class:`BuiltSketches`, which holds

* the sketch set — a centralized build's columns
  (:class:`~repro.tz.sketch.ColumnLabels`), read as one sketch object
  per node (all schemes expose ``estimate_to`` and ``size_words``),
* the CONGEST cost (:class:`~repro.congest.metrics.RunMetrics`) for
  distributed builds (``None`` for centralized ones),
* the scheme metadata needed to interpret stretch guarantees,
* the random ``artifacts`` the build drew or was handed — what a
  rebuild or an :meth:`~BuiltSketches.updateable` index needs to
  reproduce it.

TZ-specific parameters: ``k`` (and ``sync``/``S``/``budget`` when
distributed).  Slack schemes take ``eps`` (+ ``k`` for CDG); graceful takes
no scheme parameters (the schedule is fixed by Theorem 4.8).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.congest.metrics import RunMetrics
from repro.errors import ConfigError
from repro.graphs.graph import Graph
from repro.oracle.schemes import SCHEMES, SchemeSpec, get_scheme
from repro.rng import SeedLike
from repro.service.index import checked_pair
from repro.tz.centralized import describe_build
from repro.tz.sketch import ColumnLabels


@dataclass
class BuiltSketches:
    """A complete per-node sketch set plus its provenance."""

    graph: Graph
    scheme: SchemeSpec
    mode: str
    params: dict
    sketches: Sequence[Any]
    metrics: Optional[RunMetrics] = None
    extras: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def query(self, u: int, v: int, **kwargs) -> float:
        """Estimate ``d(u, v)`` from the two sketches alone.  An id
        outside ``[0, n)`` raises what :meth:`query_many` raises."""
        sketches = self.sketches
        # the per-pair loop of a caller pays for no check on good ids:
        # only an id the list refuses, or a negative one it would read
        # from the end, takes checked_pair
        try:
            su, sv = sketches[u], sketches[v]
            ok = u >= 0 and v >= 0
        except (IndexError, TypeError):
            ok = False
        if not ok:
            u, v = checked_pair(u, v, len(sketches))
            su, sv = sketches[u], sketches[v]
        # a call through an empty **kwargs costs ~40 % of the scan itself
        return su.estimate_to(sv, **kwargs) if kwargs else su.estimate_to(sv)

    def connect(self, spec: str = "inproc://", *,
                cache_size: Optional[int] = None):
        """A serving session over this build —
        ``built.connect("inproc://")`` is shorthand for
        :func:`repro.service.client.connect` with this sketch set as
        the source (the engine cuts a bulk batch across a GIL-releasing
        thread pool by itself).  Returns an
        :class:`~repro.service.client.OracleClient`; close it (or use
        it as a context manager) when done.
        """
        from repro.service.client import connect as _connect

        return _connect(spec, self.sketches, cache_size=cache_size)

    def query_many(self, pairs):
        """Batched estimates for an iterable/array of ``(u, v)`` pairs —
        answers are bit-identical to looping :meth:`query`.  Served by a
        one-shard index built on first use and kept in ``extras``; open
        a session with :meth:`connect` for a result cache
        (``cache_size=``), threads or updates.
        """
        from repro.service.index import build_index, parse_pair_array

        index = self.extras.get("_index")
        if index is None:
            index = self.extras["_index"] = build_index(self.sketches)
        arr = parse_pair_array(pairs, index.n)
        return index.estimate_many(arr[:, 0], arr[:, 1])

    def updateable(self, num_shards: int = 1):
        """An :class:`~repro.service.updates.UpdateableIndex` over this
        build — accepts edge-change streams and updates the index
        (stretch3 repairs, the other schemes rebuild; bit-identical to a
        rebuild with the same artifacts either way).

        Reuses the already-built sketches and the random artifacts the
        build recorded, so no reconstruction happens here.  Centralized
        builds only: a distributed build's cost metrics would not
        survive an update.

        :raises ConfigError: for a distributed build.
        """
        from repro.service.updates import UpdateableIndex

        if self.mode != "centralized":
            raise ConfigError(
                "updateable() needs a centralized build (distributed "
                "cost metrics cannot be repaired incrementally)")
        return UpdateableIndex(self.graph, scheme=self.scheme.name,
                               num_shards=num_shards,
                               sketches=self.sketches, **self.artifacts)

    def sizes_words(self) -> list[int]:
        if isinstance(self.sketches, ColumnLabels):
            return self.sketches.sizes_words()
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


#: (scheme, mode) -> every keyword parameter that build reads (a view of
#: the registry rows' ``reads``)
_PARAMS = {(name, mode): reads for name, spec in SCHEMES.items()
           for mode, reads in spec.reads.items()}


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
        oracle terminator); ``None`` means "not given".
    """
    spec = get_scheme(scheme)
    spec.check(mode, params)
    params = {key: v for key, v in params.items() if v is not None}
    build = spec.build if mode == "centralized" else spec.distributed
    sketches, artifacts, metrics, extras = build(graph, seed, params)
    # scalars are the build's parameters, sampled objects its extras
    scalars = {key: v for key, v in artifacts.items()
               if isinstance(v, numbers.Real)}
    extras.update((key, v) for key, v in artifacts.items()
                  if key not in scalars)
    return BuiltSketches(graph, spec, mode, scalars, sketches, metrics,
                         extras, artifacts)
