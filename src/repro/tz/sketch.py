"""The Thorup–Zwick label (sketch) and its O(k)-time distance estimation.

A label ``L(u)`` (paper Section 3.1) consists of

* the pivots ``p_i(u)`` — the vertex of ``A_i`` closest to ``u`` — with
  their distances, for ``i = 0..k-1``, and
* the bunch ``B(u) = ∪_i B_i(u)`` with distances, where
  ``B_i(u) = {w ∈ A_i : d(u,w) < d(u, A_{i+1})}``.

Every bunch member belongs to exactly one level (a member of ``A_{i+1}``
can never satisfy the strict level-``i`` inequality), so the bunch is a
plain ``vertex -> (distance, level)`` mapping.

Two query algorithms are provided:

* :func:`estimate_distance` with ``method="paper"`` — the level-scan of the
  paper's Lemma 3.2: find the first level ``i`` at which ``p_i(u) ∈ B_i(v)``
  or ``p_i(v) ∈ B_i(u)`` and route through that pivot.
* ``method="classic"`` — the original [TZ05] bunch-walk (``w <- p_i(u)``,
  swapping ``u`` and ``v`` each iteration until ``w ∈ B(v)``).

Both return an estimate ``d'`` with ``d(u,v) <= d' <= (2k-1) d(u,v)`` in
O(k) dictionary operations; experiment E2/A3 compares them empirically.

Size accounting follows the paper: a label stores IDs and distances, so its
size is ``2k`` words for the pivots plus ``2|B(u)|`` words for the bunch
(the level tag of a bunch entry rides along in the ID word; see
:mod:`repro.words`).

A builder hands its labels back as :class:`TZLabels` — pivot arrays and
bunch columns behind a read-only sequence of :class:`TZSketch` — so a
caller that only indexes or sizes them never builds the per-node dicts.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Literal, Optional

import numpy as np

from repro.errors import ConfigError, QueryError
from repro.words import entry_words


@dataclass(frozen=True)
class TZSketch:
    """The label ``L(u)`` of one vertex.

    Attributes
    ----------
    node:
        The vertex this label belongs to.
    k:
        Number of hierarchy levels (stretch parameter).
    pivots:
        ``pivots[i] = (p_i(u), d(u, p_i(u)))`` for ``i = 0..k-1``;
        ``pivots[0]`` is always ``(u, 0.0)``.
    bunch:
        ``v -> (d(u, v), level-of-v)`` for every ``v ∈ B(u)``.
    """

    node: int
    k: int
    pivots: tuple[tuple[int, float], ...]
    bunch: dict[int, tuple[float, int]]

    def __post_init__(self):
        if len(self.pivots) != self.k:
            raise QueryError(
                f"label of {self.node}: expected {self.k} pivots, "
                f"got {len(self.pivots)}")

    # ------------------------------------------------------------------
    def size_words(self) -> int:
        """Label size in words (paper's accounting: IDs + distances)."""
        return entry_words() * (len(self.pivots) + len(self.bunch))

    def bunch_size(self) -> int:
        return len(self.bunch)

    def bunch_at_level(self, i: int) -> dict[int, float]:
        """``B_i(u)`` with distances (mostly for tests/analysis)."""
        return {v: d for v, (d, lvl) in self.bunch.items() if lvl == i}

    def in_bunch_at_level(self, v: int, i: int) -> bool:
        entry = self.bunch.get(v)
        return entry is not None and entry[1] == i

    def bunch_distance(self, v: int) -> float:
        entry = self.bunch.get(v)
        if entry is None:
            raise QueryError(f"{v} not in bunch of {self.node}")
        return entry[0]


QueryMethod = Literal["paper", "classic"]


def bunch_dicts(landmark: np.ndarray, dist: np.ndarray, level: np.ndarray,
                bounds: np.ndarray) -> list[dict[int, tuple[float, int]]]:
    """Bunches from entry columns: bunch ``j`` is rows ``bounds[j]:
    bounds[j + 1]`` as ``landmark -> (dist, level)``, in row order."""
    land, dl, lv = landmark.tolist(), dist.tolist(), level.tolist()
    edges = bounds.tolist()
    return [dict(zip(land[a:b], zip(dl[a:b], lv[a:b])))
            for a, b in zip(edges[:-1], edges[1:])]


class ColumnLabels(Sequence):
    """A scheme's sketch set as columns, read as the list of its sketch
    objects.

    A subclass names its constructor's arguments in ``fields`` (each
    kept as an attribute, never written; ``nodes[j]`` is sketch ``j``'s
    node), its :meth:`sizes_words` and how to build its sketch objects
    (``_materialize``).  The first element access builds every sketch
    once, under a lock; from then on the object behaves as the list of
    them: indices (negative too), slices (lists), ``==`` against a list
    either way, ``repr``, pickling.  ``scheme`` names the registry row
    and the store that serve it, so nothing needs an element to tell.
    """

    scheme: str
    fields: tuple[str, ...]
    #: scheme -> its columns class, filled as each class is defined (a
    #: sketch's module defines its columns class, so a list of sketches
    #: always finds its class here)
    by_scheme: dict[str, type] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        ColumnLabels.by_scheme[cls.scheme] = cls

    def __init__(self, *args):
        if len(args) != len(self.fields):
            raise TypeError(f"{type(self).__name__} takes {self.fields}")
        for name, value in zip(self.fields, args):
            setattr(self, name, value)
        self._lock = threading.Lock()
        self._labels: Optional[list] = None

    def __len__(self) -> int:
        return len(self.nodes)

    def _materialized(self) -> list:
        labels = self._labels
        if labels is None:
            with self._lock:
                if self._labels is None:
                    self._labels = self._materialize()
                labels = self._labels
        return labels

    def __getitem__(self, index):
        return self._materialized()[index]

    def __iter__(self):
        return iter(self._materialized())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnLabels):
            other = other._materialized()
        if not isinstance(other, list):
            return NotImplemented
        return self._materialized() == other

    def __repr__(self) -> str:
        return repr(self._materialized())

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.fields)


class TZLabels(ColumnLabels):
    """The labels of a TZ sketch set as columns, read as the list of
    :class:`TZSketch`.

    Label ``j`` belongs to node ``nodes[j]``; its pivots are
    ``(pivot_ids[j, i], pivot_dists[j, i])`` for ``i < k`` and its bunch
    is the rows whose ``owner`` is ``j`` — ``owner`` sorted, an owner's
    rows in its bunch's iteration order — as ``landmark -> (dist,
    level)``.  Sizes (:meth:`sizes_words`) and the serving index read
    the columns.
    """

    scheme = "tz"
    fields = ("k", "nodes", "pivot_ids", "pivot_dists", "owner",
              "landmark", "dist", "level")

    @classmethod
    def from_sketches(cls, sketches: Sequence[TZSketch]) -> "TZLabels":
        """The columns of a list of same-``k`` labels — one pass over
        the dicts, label ``j`` keeping position ``j``.

        :raises ConfigError: on mixed ``k``."""
        count, k = len(sketches), sketches[0].k
        for s in sketches:
            if s.k != k:
                raise ConfigError(
                    f"mixed k in sketch set: {s.k} vs {k} (node {s.node})")
        sizes = np.fromiter((len(s.bunch) for s in sketches),
                            dtype=np.int64, count=count)
        total = int(sizes.sum())
        landmark = np.fromiter(chain.from_iterable(s.bunch for s in sketches),
                               dtype=np.int64, count=total)
        values = np.fromiter(
            chain.from_iterable(chain.from_iterable(
                s.bunch.values() for s in sketches)),
            dtype=np.float64, count=2 * total).reshape(total, 2)
        pivots = np.asarray([s.pivots for s in sketches],
                            dtype=np.float64).reshape(count, k, 2)
        return cls(k, np.fromiter((s.node for s in sketches), dtype=np.int64,
                                  count=count),
                   pivots[:, :, 0].astype(np.int64),
                   np.ascontiguousarray(pivots[:, :, 1]),
                   np.repeat(np.arange(count), sizes), landmark,
                   values[:, 0], values[:, 1].astype(np.int64))

    def sizes_words(self) -> list[int]:
        """:meth:`TZSketch.size_words` of every label, from the columns."""
        counts = np.bincount(self.owner, minlength=len(self))
        return (entry_words() * (self.k + counts)).tolist()

    def _materialize(self) -> list[TZSketch]:
        k, count = self.k, len(self)
        bunches = bunch_dicts(self.landmark, self.dist, self.level,
                              np.searchsorted(self.owner,
                                              np.arange(count + 1)))
        return [TZSketch(node=u, k=k, pivots=tuple(zip(ids, ds)), bunch=b)
                for u, ids, ds, b in zip(self.nodes.tolist(),
                                         self.pivot_ids.tolist(),
                                         self.pivot_dists.tolist(), bunches)]


def estimate_distance(su: TZSketch, sv: TZSketch,
                      method: QueryMethod = "paper") -> float:
    """Estimate ``d(u, v)`` from the two labels alone (Lemma 3.2).

    Never underestimates; overestimates by at most ``2k - 1``.
    """
    if su.k != sv.k:
        raise QueryError(f"labels have different k: {su.k} vs {sv.k}")
    if su.node == sv.node:
        return 0.0
    if method == "paper":
        return _estimate_paper(su, sv)
    if method == "classic":
        return _estimate_classic(su, sv)
    raise QueryError(f"unknown query method {method!r}")


#: :func:`estimate_distance` as a method — the single-pair entry point
#: every scheme's sketch exposes; the function itself, so a per-pair
#: loop pays one Python call, not two
TZSketch.estimate_to = estimate_distance


def _estimate_paper(su: TZSketch, sv: TZSketch) -> float:
    """Lemma 3.2: scan levels; route through the first shared pivot/bunch hit."""
    for i in range(su.k):
        pu, du = su.pivots[i]
        ev = sv.bunch.get(pu)
        if ev is not None and ev[1] == i:
            return du + ev[0]
        pv, dv = sv.pivots[i]
        eu = su.bunch.get(pv)
        if eu is not None and eu[1] == i:
            return dv + eu[0]
    raise QueryError(
        f"labels of {su.node} and {sv.node} share no level "
        f"(A_{su.k - 1} membership is inconsistent between them)")


def _estimate_classic(su: TZSketch, sv: TZSketch) -> float:
    """The original [TZ05] bunch-walk query."""
    a, b = su, sv
    w, dw = a.node, 0.0
    for i in range(su.k):
        eb = b.bunch.get(w)
        if eb is not None:
            return dw + eb[0]
        a, b = b, a
        w, dw = a.pivots[i + 1] if i + 1 < a.k else (None, math.inf)
        if w is None:
            break
    raise QueryError(
        f"bunch walk between {su.node} and {sv.node} fell off the hierarchy")


def query_level(su: TZSketch, sv: TZSketch) -> int:
    """The level ``i*`` at which the paper's query terminates (analysis aid:
    the stretch guarantee is ``2 i* + 1``)."""
    for i in range(su.k):
        pu, _ = su.pivots[i]
        ev = sv.bunch.get(pu)
        if ev is not None and ev[1] == i:
            return i
        pv, _ = sv.pivots[i]
        eu = su.bunch.get(pv)
        if eu is not None and eu[1] == i:
            return i
    raise QueryError("no terminating level")
