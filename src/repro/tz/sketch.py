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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from repro.errors import QueryError
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

    def estimate_to(self, other: "TZSketch",
                    method: "QueryMethod" = "paper") -> float:
        """:func:`estimate_distance` as a method — the single-pair
        entry point every scheme's sketch exposes."""
        return estimate_distance(self, other, method)


QueryMethod = Literal["paper", "classic"]


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
