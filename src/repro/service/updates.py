"""Index updates on edge changes.

Every index the serving layer builds (:mod:`repro.service.index`) is a
frozen snapshot of one graph.  Real networks change, so this module adds
the **dynamic-update subsystem**: :class:`UpdateableIndex` accepts a
stream of :class:`EdgeChange` events (``increase`` / ``decrease`` /
``set`` weight, plus ``insert`` / ``remove`` where the scheme's
semantics allow) and brings the index to the mutated graph: a scheme
whose sketch entries are read off single sweeps (stretch3) repairs the
entries a change can have moved, every other scheme rebuilds.

An ``apply`` is three steps, none of which knows a scheme:

* the **dirty-source frontier** — for each changed edge ``{a, b}`` one
  shortest-path sweep from each endpoint decides, per node ``v``,
  whether *any* distance out of ``v`` can have moved: a weight increase
  matters to ``v`` only if the old edge was on a near-optimal ``v``-path
  (``d(v, a) + w_old <= d(v, b)`` or symmetrically, padded by a
  conservative float margin), a decrease only if the new edge opens a
  shorter route (``d(v, a) + w_new < d(v, b)`` or symmetrically).  A
  *clean* node's sweep is float-identical after the change, so every
  stored distance a build computes from it is reused byte-for-byte.  No
  dirty node: the apply is a no-op;
* the **sketches** — the scheme's registry row
  (:mod:`repro.oracle.schemes`) decides, with no threshold: a row with
  a ``repair`` (stretch3's) re-runs the build's own primitive on what
  the dirty set reaches and re-issues every owner whose sketch it
  changes, as a row patch ``(owners, patch)`` that the sketch set's
  ``spliced`` puts in place of their rows, at any dirty fraction; every
  other row rebuilds through its own ``sketches`` (TZ, CDG and graceful
  repairs cost about what a rebuild costs, ``docs/serving.md`` §8);
* the **index** — repaired or rebuilt, the new columns go through
  :func:`~repro.service.index.build_index`, as a build's do: the new
  store is byte for byte a from-scratch build's.

**The hard invariant** (property-tested per scheme × memory backing):
after ``apply``, the updated index answers *bit-identically* to an index
rebuilt from scratch on the mutated graph with the same random artifacts,
including :class:`~repro.errors.QueryError` parity when an update
disconnects the graph.  It holds by construction: repair, rebuild,
:meth:`UpdateableIndex.rebuild_reference` and
:func:`~repro.oracle.api.build_sketches` produce an owner's sketch with
the same function from the same artifacts (drawn once, by the row's
``sample``).

Epoch semantics: every effective ``apply`` produces a **new**
:class:`~repro.service.index.IndexStore` and bumps :attr:`epoch`; the old
store object is never mutated, which is what lets a serving session
hot-swap epochs while in-flight batches finish on the old store.  Serve
a live index by passing it as the source of
:func:`repro.service.client.connect` (any transport) or of an
:class:`~repro.service.server.OracleServer` —
``client.apply_updates(changes)`` then swaps with zero downtime, and a
TCP server pushes the epoch bump to every connected session
(``python -m repro serve GRAPH --updateable`` is the daemon form).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import ConfigError, GraphError
from repro.graphs.graph import Graph
from repro.graphs.metrics import distance_rows
from repro.oracle.schemes import get_scheme
from repro.rng import SeedLike, ensure_rng
from repro.service.index import IndexStore, build_index, sketch_columns
from repro.service.session import UpdateReport
from repro.tz.sketch import ColumnLabels

#: ops an :class:`EdgeChange` can carry
CHANGE_OPS = ("set", "increase", "decrease", "insert", "remove")

#: relative pad on the dirtiness tests — float path sums computed from
#: the two ends of a path can differ by a few ulps, so the frontier
#: tests over-approximate by this margin (more dirty nodes, never fewer)
_MARGIN_REL = 1e-9


# ----------------------------------------------------------------------
# the change stream
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EdgeChange:
    """One edge mutation.

    :param op: ``"set"`` / ``"increase"`` / ``"decrease"`` change the
        weight of an existing edge (direction-checked for the latter
        two); ``"insert"`` adds a new edge; ``"remove"`` deletes one.
    :param u,v: endpoints (order irrelevant — edges are undirected).
    :param weight: the new weight (ignored for ``"remove"``).
    """

    op: str
    u: int
    v: int
    weight: Optional[float] = None

    def __post_init__(self):
        if self.op not in CHANGE_OPS:
            raise ConfigError(f"unknown change op {self.op!r}; "
                              f"choose from {CHANGE_OPS}")
        if self.op != "remove":
            w = self.weight
            if w is None or not (float(w) > 0) or not np.isfinite(w):
                raise ConfigError(
                    f"{self.op} needs a positive finite weight, "
                    f"got {self.weight!r}")
        if self.u == self.v:
            raise ConfigError(f"self-loop change on node {self.u}")


def save_changes_jsonl(changes: Iterable[EdgeChange], path) -> None:
    """Persist a change stream as JSON lines (one tagged change per
    line; the envelope lives in :mod:`repro.oracle.serialization` with
    the library's other wire formats)."""
    from repro.oracle.serialization import change_to_dict

    with open(path, "w", encoding="ascii") as fh:
        for c in changes:
            fh.write(json.dumps(change_to_dict(c), separators=(",", ":")))
            fh.write("\n")


def load_changes_jsonl(path) -> list[EdgeChange]:
    """Load a change stream written by :func:`save_changes_jsonl`."""
    from repro.oracle.serialization import change_from_dict

    out = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(change_from_dict(json.loads(line)))
    return out


def sample_weight_changes(graph: Graph, count: int, seed: SeedLike = 0,
                          low: float = 0.5, high: float = 2.0,
                          ) -> list[EdgeChange]:
    """A reproducible batch of ``count`` random weight perturbations:
    distinct edges, each weight scaled by a uniform factor in
    ``[low, high]`` (the churn workload of ``bench/``)."""
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    edges = list(graph.edges())
    if not edges:
        raise ConfigError("graph has no edges to perturb")
    rng = ensure_rng(seed)
    picks = rng.choice(len(edges), size=min(count, len(edges)),
                       replace=False)
    out = []
    for j in picks:
        u, v, w = edges[int(j)]
        factor = float(rng.uniform(low, high))
        out.append(EdgeChange(op="set", u=u, v=v,
                              weight=max(w * factor, 1e-12)))
    return out


def sample_query_pairs(n: int, queries: int, seed: SeedLike = 0) -> np.ndarray:
    """A reproducible ``(queries, 2)`` workload of uniform random pairs."""
    rng = ensure_rng(seed)
    return rng.integers(0, n, size=(queries, 2), dtype=np.int64)


# ----------------------------------------------------------------------
# the dirty-source frontier
# ----------------------------------------------------------------------
def _dirty_for_change(d_a: np.ndarray, d_b: np.ndarray, w_old: float,
                      w_new: float) -> np.ndarray:
    """Boolean dirty mask for one weight change (``inf`` spellings cover
    insert — ``w_old = inf`` — and remove — ``w_new = inf``).

    Conservative: a node is kept *clean* only when no near-optimal path
    out of it can touch the edge, padded by :data:`_MARGIN_REL`.
    """
    both_far = np.isinf(d_a) & np.isinf(d_b)
    margin = _MARGIN_REL * (1.0 + np.where(np.isfinite(d_a), d_a, 0.0)
                            + np.where(np.isfinite(d_b), d_b, 0.0))
    dirty = np.zeros(d_a.shape[0], dtype=bool)
    if w_new < w_old:  # decrease / insert: a new route may open
        dirty |= (d_a + w_new < d_b + margin) | (d_b + w_new < d_a + margin)
    if w_new > w_old:  # increase / remove: an old route may close
        dirty |= (d_a + w_old <= d_b + margin) | (d_b + w_old <= d_a + margin)
    dirty &= ~both_far
    return dirty


def dirty_frontier(graph: Graph, changes: Sequence[EdgeChange],
                   ) -> np.ndarray:
    """Apply ``changes`` to ``graph`` **in place**, returning the sorted
    array of dirty sources — nodes whose distance row may have moved.

    Each change is tested against the graph state it lands on (two
    endpoint Dijkstra sweeps per change), so a batch composes exactly
    like replaying the changes one by one.

    :raises GraphError: for an ``insert`` of an existing edge, a
        ``remove``/weight change of a missing one, or an ``increase`` /
        ``decrease`` in the wrong direction — raised **before** any
        mutation lands, so a bad stream leaves the graph untouched.
    """
    shadow = graph.copy()  # validate the whole stream before mutating
    for c in changes:
        if not (0 <= c.u < shadow.n and 0 <= c.v < shadow.n):
            raise GraphError(f"change endpoints ({c.u}, {c.v}) out of "
                             f"range [0, {shadow.n})")
        if c.op == "insert":
            if shadow.has_edge(c.u, c.v):
                raise GraphError(
                    f"insert: edge ({c.u}, {c.v}) already exists "
                    f"(use set/increase/decrease)")
            shadow.add_edge(c.u, c.v, c.weight)
        elif c.op == "remove":
            shadow.remove_edge(c.u, c.v)
        else:
            w_old = shadow.weight(c.u, c.v)
            if c.op == "increase" and not c.weight > w_old:
                raise GraphError(
                    f"increase on ({c.u}, {c.v}): {c.weight} <= {w_old}")
            if c.op == "decrease" and not c.weight < w_old:
                raise GraphError(
                    f"decrease on ({c.u}, {c.v}): {c.weight} >= {w_old}")
            shadow.set_weight(c.u, c.v, c.weight)

    # the shadow pass above is the single validation point; from here on
    # every change is known to be legal against the state it lands on
    dirty = np.zeros(graph.n, dtype=bool)
    for c in changes:
        if c.op == "insert":
            w_old, w_new = np.inf, float(c.weight)
        elif c.op == "remove":
            w_old, w_new = graph.weight(c.u, c.v), np.inf
        else:
            w_old, w_new = graph.weight(c.u, c.v), float(c.weight)
        if w_new == w_old:
            continue
        d_a, d_b = distance_rows(graph, [c.u, c.v])  # the frontier sweep
        dirty |= _dirty_for_change(d_a, d_b, w_old, w_new)
        if c.op == "remove":
            graph.remove_edge(c.u, c.v)
        elif c.op == "insert":
            graph.add_edge(c.u, c.v, w_new)
        else:
            graph.set_weight(c.u, c.v, w_new)
    return np.flatnonzero(dirty)


# ----------------------------------------------------------------------
# the updateable index
# ----------------------------------------------------------------------
class UpdateableIndex:
    """A live index over a mutable graph: apply edge changes, get a new
    epoch's :class:`~repro.service.index.IndexStore`.

    :param graph: the starting graph (copied; later mutations happen on
        the copy via :meth:`apply`).
    :param scheme: a :data:`~repro.oracle.schemes.SCHEMES` row; its
        ``sample`` draws the artifacts once from
        ``seed``, as :func:`~repro.oracle.api.build_sketches` does, and
        they stay pinned, so a from-scratch rebuild is well defined.
    :param num_shards: landmark shard count of every epoch's store.
    :param sketches: optionally, the already-built sketch set for this
        exact (graph, artifacts) pair — its columns, or a plain list —
        skips the initial build.
    :param params: scheme parameters (``k`` / ``eps`` / ``hierarchy`` /
        ``net`` / ``schedule``), as for
        :func:`~repro.oracle.api.build_sketches` — or the ``artifacts``
        a build recorded, which ``sample`` takes as given.
    :raises ConfigError: on a keyword a centralized build of the scheme
        does not read (the message ``build_sketches`` gives).
    """

    def __init__(self, graph: Graph, scheme: str = "tz",
                 seed: SeedLike = None, num_shards: int = 1,
                 sketches: Optional[Sequence] = None, **params):
        self.graph = graph.copy()
        self.scheme = scheme
        self.num_shards = int(num_shards)
        self._spec = get_scheme(scheme)
        self._spec.check("centralized", params)
        self.artifacts = self._spec.sample(self.graph, seed, params)
        #: the current epoch's sketch set, as its scheme's columns
        self.sketches: ColumnLabels = (
            sketch_columns(sketches) if sketches is not None
            else self._spec.sketches(self.graph, self.artifacts))
        if self.sketches.scheme != scheme:
            raise ConfigError(f"{self.sketches.scheme} sketches for a "
                              f"{scheme} index")
        if len(self.sketches) != self.graph.n:
            raise ConfigError(
                f"{len(self.sketches)} sketches for a "
                f"{self.graph.n}-node graph")
        self.index: IndexStore = build_index(self.sketches,
                                             num_shards=self.num_shards)
        self.epoch = 0
        self.last_report: Optional[UpdateReport] = None

    # ------------------------------------------------------------------
    def apply(self, changes: Sequence[EdgeChange]) -> UpdateReport:
        """Apply a change batch and refresh the index.

        Repairs the sketch set where the scheme's row has a ``repair``,
        rebuilds it otherwise, and installs a **new** index object — the
        previous epoch's store is left untouched for readers still on
        it.
        Bit-identity with a from-scratch rebuild is the module
        invariant; see the module docstring.

        Atomic: the changes land on a working copy of the graph, and
        all state (graph, sketches, index, epoch) commits together only
        after the new sketches are built — an exception anywhere (a bad
        change, a rebuild that strands a node from a density net) leaves
        the index exactly as it was.
        """
        t0 = time.perf_counter()
        changes = list(changes)
        work = self.graph.copy()
        dirty = dirty_frontier(work, changes)
        t1 = time.perf_counter()
        n = work.n
        frac = dirty.size / n if n else 0.0
        secs = {"frontier": t1 - t0}
        if dirty.size == 0:
            self.graph = work  # weights may still have moved (harmlessly)
            secs["total"] = time.perf_counter() - t0
            report = UpdateReport(mode="noop", epoch=self.epoch,
                                  changes=len(changes), dirty=0, touched=0,
                                  n=n, dirty_fraction=0.0, seconds=secs)
            self.last_report = report
            return report
        if self._spec.repair is None:
            mode, touched = "rebuild", n
            sketches = self._spec.sketches(work, self.artifacts)
        else:
            mode = "repair"
            owners, patch = self._spec.repair(work, self.artifacts,
                                              self.sketches, dirty)
            touched = owners.size
            sketches = (self.sketches.spliced(owners, patch) if touched
                        else self.sketches)
        t2 = time.perf_counter()
        index = (self.index if sketches is self.sketches
                 else build_index(sketches, num_shards=self.num_shards))
        t3 = time.perf_counter()
        secs.update({"repair": t2 - t1, "index": t3 - t2, "total": t3 - t0})
        self.graph = work
        self.sketches = sketches
        self.index = index
        self.epoch += 1
        report = UpdateReport(mode=mode, epoch=self.epoch,
                              changes=len(changes), dirty=int(dirty.size),
                              touched=int(touched), n=n,
                              dirty_fraction=frac, seconds=secs)
        self.last_report = report
        return report

    def rebuild_reference(self) -> IndexStore:
        """A from-scratch build on the **current** graph with the same
        pinned artifacts — the oracle the bit-identity invariant
        compares against.  Does not mutate state."""
        return build_index(self._spec.sketches(self.graph, self.artifacts),
                           num_shards=self.num_shards)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"UpdateableIndex({self.scheme}, n={self.graph.n}, "
                f"epoch={self.epoch}, shards={self.num_shards})")
