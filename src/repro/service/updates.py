"""Incremental index updates on edge-weight changes.

Every index the serving layer builds (:mod:`repro.service.index`) is a
frozen snapshot of one graph.  Real networks change, so this module adds
the **dynamic-update subsystem**: :class:`UpdateableIndex` accepts a
stream of :class:`EdgeChange` events (``increase`` / ``decrease`` /
``set`` weight, plus ``insert`` / ``remove`` where the scheme's
semantics allow) and repairs the affected sketch entries in place of a
from-scratch rebuild.

An ``apply`` is three steps, none of which knows a scheme:

* the **dirty-source frontier** — for each changed edge ``{a, b}`` one
  shortest-path sweep from each endpoint decides, per node ``v``,
  whether *any* distance out of ``v`` can have moved: a weight increase
  matters to ``v`` only if the old edge was on a near-optimal ``v``-path
  (``d(v, a) + w_old <= d(v, b)`` or symmetrically, padded by a
  conservative float margin), a decrease only if the new edge opens a
  shorter route (``d(v, a) + w_new < d(v, b)`` or symmetrically).  Every
  scheme's sketch of a *clean* node is a pure function of that node's
  unchanged distance row (plus fixed random artifacts), so clean
  sketches are reused byte-for-byte;
* the **repair** — the scheme's registry row
  (:mod:`repro.oracle.schemes`) rebuilds the dirty owners' sketches: its
  ``repair`` function (``repair_tz`` … ``repair_graceful`` below) finds
  what else the dirty set reaches — the candidate cluster roots of a TZ
  label, the clean nodes behind a dirty CDG gateway — and ends in the
  row's per-owner ``sketches`` function, the one a build runs.  Past
  ``rebuild_threshold`` (default 0.25 of the nodes dirty) the same
  function simply runs over every owner: localized repair only wins
  while the frontier is small, and the fallback bounds the cost by a
  rebuild plus the frontier sweep.  The rule is inline, with no plug-in
  point: a cost model learning the two paths' seconds online lost to it
  on ``churn-mixed`` traffic (the table is in ``docs/serving.md`` §9);
* the **index refresh** — only sketch entries owned by touched nodes
  can change, so :func:`~repro.service.index.refresh_index` keeps the
  clean owners' rows of the TZ bunch table, merges the fresh rows in by
  the build's own sort and rebuilds the hash directory — the same bytes
  a from-scratch build gives.

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
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigError, GraphError
from repro.graphs.graph import Graph
from repro.graphs.metrics import distance_rows
from repro.oracle.schemes import get_scheme
from repro.rng import SeedLike, ensure_rng
from repro.service.index import IndexStore, build_index, refresh_index
from repro.service.session import UpdateReport
from repro.slack.cdg import cdg_sketches
from repro.slack.stretch3 import stretch3_sketches
from repro.tz.centralized import compute_pivot_keys, tz_sketches
from repro.tz.sketch import TZSketch

#: ops an :class:`EdgeChange` can carry
CHANGE_OPS = ("set", "increase", "decrease", "insert", "remove")

#: default dirty-fraction beyond which apply() falls back to a rebuild
REBUILD_THRESHOLD_DEFAULT = 0.25

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

    def as_dict(self) -> dict:
        d = {"op": self.op, "u": self.u, "v": self.v}
        if self.op != "remove":
            d["weight"] = float(self.weight)
        return d

    @classmethod
    def from_dict(cls, data: Mapping) -> "EdgeChange":
        try:
            return cls(op=str(data["op"]), u=int(data["u"]),
                       v=int(data["v"]), weight=data.get("weight"))
        except KeyError as exc:
            raise ConfigError(f"edge change missing field {exc}") from None


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
# per-scheme repairs, ``(graph, artifacts, sketches, dirty) -> {node:
# fresh sketch}``: discover what a dirty set can touch, then end in the
# registry row's per-owner function — the one a build runs
# ----------------------------------------------------------------------
def repair_tz(graph: Graph, artifacts: dict, sketches: list,
              dirty: Sequence[int], dist_rows: Optional[np.ndarray] = None,
              ) -> dict[int, TZSketch]:
    """The TZ labels of ``dirty`` nodes on the (already mutated) graph,
    bit-identical to a full build's: the build's per-owner function,
    handed the only sub-top cluster roots that can reach a dirty node
    (``sketches`` goes unread — a label depends on no other label).

    Bunch entries are direction-sensitive at the ulp level (a float path
    sum depends on which end the Dijkstra ran from), so every stored
    distance is computed in the **builder's direction — from the
    landmark**, by the builder: the dirty nodes' own rows only steer
    *which* clusters are grown and never supply a stored float.  A
    sub-top landmark ``w`` at level ``i`` is a candidate iff
    ``d(v, w) <= d(v, A_{i+1})`` for some dirty ``v``, padded by
    :data:`_MARGIN_REL` (an infinite threshold admits every reachable
    ``w``); its (small, truncated) cluster is re-grown.  The top level's
    untruncated clusters and the ``k`` pivot sweeps are a fixed cost the
    per-owner function pays for any owner set.

    :param dist_rows: optional pre-computed Dijkstra rows for ``dirty``
        (row ``j`` is node ``dirty[j]``); computed here when omitted.
    :returns: ``{node: new TZSketch}`` for exactly the dirty nodes.
    """
    if len(dirty) == 0:
        return {}
    hierarchy = artifacts["hierarchy"]
    pivot_keys = compute_pivot_keys(graph, hierarchy)
    if dist_rows is None:
        dist_rows = distance_rows(graph, dirty)
    roots = [np.empty(0, dtype=np.int64)]
    for i in range(hierarchy.k - 1):
        members = hierarchy.exact_level(i)
        thr = np.asarray([pivot_keys[i + 1][v].dist for v in dirty])
        bound = thr + _MARGIN_REL * (1.0 + thr)
        rows = dist_rows[:, members]
        near = (rows <= bound[:, None]) & np.isfinite(rows)
        roots.append(members[near.any(axis=0)])
    return dict(zip(dirty, tz_sketches(graph, artifacts, dirty,
                                       roots=np.concatenate(roots),
                                       pivot_keys=pivot_keys)))


def repair_stretch3(graph: Graph, artifacts: dict, sketches: list,
                    dirty: Sequence[int]) -> dict:
    """A stretch3 sketch is its owner's row over the net: the dirty
    owners' sketches are the build restricted to them."""
    return dict(zip(dirty, stretch3_sketches(graph, artifacts, dirty)))


def repair_cdg(graph: Graph, artifacts: dict, sketches: list,
               dirty: Sequence[int],
               dist_rows: Optional[np.ndarray] = None) -> dict:
    """Dirty owners get the build's sketch — new gateway, linked to the
    current net labels; a dirty *net member*'s label is repaired first
    (:func:`repair_tz` over the net hierarchy), and every clean
    node whose gateway it is is re-linked to the fresh label."""
    if dist_rows is None:
        dist_rows = distance_rows(graph, dirty)
    # every net member is its own gateway (d(w, w) = 0 always wins), so
    # member w's current label is sketches[w].label
    labels = {w: sketches[w].label for w in artifacts["net"].members}
    at = {v: j for j, v in enumerate(dirty) if v in labels}
    relabelled = repair_tz(graph, artifacts, sketches, list(at),
                           dist_rows=dist_rows[list(at.values())])
    labels.update(relabelled)
    fresh = dict(zip(dirty, cdg_sketches(graph, artifacts, dirty,
                                         dist_rows=dist_rows, labels=labels)))
    for u, s in enumerate(sketches):
        if u not in fresh and s.gateway in relabelled:
            fresh[u] = replace(s, label=labels[s.gateway])
    return fresh


def repair_graceful(graph: Graph, artifacts: dict, sketches: list,
                    dirty: Sequence[int]) -> dict:
    """Every level is a CDG repair over one shared block of dirty rows."""
    rows = distance_rows(graph, dirty)
    per_level = [repair_cdg(graph, level, [s.components[i] for s in sketches],
                            dirty, dist_rows=rows)
                 for i, level in enumerate(artifacts["components"])]
    return {u: replace(sketches[u], components=tuple(
                fresh.get(u, old)
                for fresh, old in zip(per_level, sketches[u].components)))
            for u in set().union(*per_level)}


# ----------------------------------------------------------------------
# the updateable index
# ----------------------------------------------------------------------
class UpdateableIndex:
    """A live index over a mutable graph: apply edge changes, get a new
    epoch's :class:`~repro.service.index.IndexStore`.

    :param graph: the starting graph (copied; later mutations happen on
        the copy via :meth:`apply`).
    :param scheme: a :data:`~repro.oracle.schemes.SCHEMES` row with a
        ``repair``; its ``sample`` draws the artifacts once from
        ``seed``, as :func:`~repro.oracle.api.build_sketches` does, and
        they stay pinned, so a from-scratch rebuild is well defined.
    :param num_shards: landmark shard count of every epoch's store.
    :param rebuild_threshold: dirty fraction above which :meth:`apply`
        falls back to a full rebuild (``None``:
        :data:`REBUILD_THRESHOLD_DEFAULT`).
    :param sketches: optionally, the already-built sketch set for this
        exact (graph, artifacts) pair — skips the initial build.
    :param params: scheme parameters (``k`` / ``eps`` / ``hierarchy`` /
        ``net`` / ``schedule``), as for
        :func:`~repro.oracle.api.build_sketches` — or the ``artifacts``
        a build recorded, which ``sample`` takes as given.
    :raises ConfigError: on a keyword a centralized build of the scheme
        does not read (the message ``build_sketches`` gives).
    """

    def __init__(self, graph: Graph, scheme: str = "tz",
                 seed: SeedLike = None, num_shards: int = 1,
                 rebuild_threshold: Optional[float] = None,
                 sketches: Optional[list] = None, **params):
        if rebuild_threshold is None:
            rebuild_threshold = REBUILD_THRESHOLD_DEFAULT
        if not (0.0 <= rebuild_threshold <= 1.0):
            raise ConfigError(f"rebuild_threshold must be in [0, 1], "
                              f"got {rebuild_threshold}")
        self.graph = graph.copy()
        self.scheme = scheme
        self.num_shards = int(num_shards)
        self.rebuild_threshold = float(rebuild_threshold)
        self._spec = get_scheme(scheme)
        if self._spec.repair is None:
            raise ConfigError(f"scheme {scheme!r} has no update support")
        self._spec.check("centralized", params)
        self.artifacts = self._spec.sample(self.graph, seed, params)
        self.sketches = (list(sketches) if sketches is not None else
                         self._spec.sketches(self.graph, self.artifacts))
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

        Repairs (or rebuilds, past the threshold) the sketch set and
        installs a **new** index object — the previous epoch's store is
        left untouched for readers still on it.  Bit-identity with a
        from-scratch rebuild is the module invariant; see the module
        docstring.

        Atomic: the changes land on a working copy of the graph, and
        all state (graph, sketches, index, epoch) commits together only
        after the repair succeeds — an exception anywhere (a bad
        change, a repair that strands a node from a density net) leaves
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
        mode = "rebuild" if frac > self.rebuild_threshold else "repair"
        if mode == "rebuild":
            sketches = self._spec.sketches(work, self.artifacts)
            touched = range(n)
            t2 = time.perf_counter()
            index = build_index(sketches, num_shards=self.num_shards)
        else:
            touched = self._spec.repair(work, self.artifacts, self.sketches,
                                        dirty.tolist())
            sketches = list(self.sketches)
            for v, fresh in touched.items():
                sketches[v] = fresh
            t2 = time.perf_counter()
            index = refresh_index(self.index, sketches, touched)
        t3 = time.perf_counter()
        secs.update({"repair": t2 - t1, "index": t3 - t2, "total": t3 - t0})
        self.graph = work
        self.sketches = sketches
        self.index = index
        self.epoch += 1
        report = UpdateReport(mode=mode, epoch=self.epoch,
                              changes=len(changes), dirty=int(dirty.size),
                              touched=len(touched), n=n,
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
