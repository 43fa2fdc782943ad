"""The sampled set hierarchy A_0 ⊇ A_1 ⊇ … ⊇ A_{k-1}, A_k = ∅ (Section 3.1).

"A_0 = V, and for 1 <= i <= k-1 we get A_i by randomly sampling every vertex
in A_{i-1} with probability n^{-1/k}."  Each vertex's membership chain is an
independent sequence of coin flips, so a vertex's *level* — the largest
``i`` with ``u ∈ A_i`` — is a truncated geometric variable, and sampling
levels directly is an exact, vectorized implementation of the paper's
per-set coin flips.

Two generalizations needed elsewhere in the paper:

* the CDG construction (Lemma 4.5) runs Thorup–Zwick **on a density net**:
  the universe is ``N ⊆ V`` and the sampling probability is
  ``(10/ε · ln n)^{-1/k}`` instead of ``n^{-1/k}``.  ``universe`` and ``q``
  expose exactly those knobs.  Vertices outside the universe get level -1
  ("not even in A_0") and are never sources.
* [TZ05] requires ``A_{k-1} ≠ ∅`` for the query to be well defined (the
  paper's Lemma 3.2 uses ``p_{k-1}(u) ∈ B_{k-1}(v)`` as its backstop), and
  handles the ``A_{k-1} = ∅`` event by resampling; we do the same
  (``ensure_top_nonempty``).

Distribution note: although we sample the whole level array centrally (so
that the distributed run and the centralized baseline can share one random
outcome), each entry depends only on that vertex's own coins — in a real
deployment every node draws its level locally with zero communication,
exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class Hierarchy:
    """A concrete sampled hierarchy over ``n`` vertices.

    ``level[u]`` is the largest ``i`` with ``u ∈ A_i`` (-1 if ``u`` is not
    in the universe, i.e. not even in A_0 — the CDG-on-a-net case).
    """

    n: int
    k: int
    q: float
    level: np.ndarray  # shape (n,), dtype int64

    def __post_init__(self):
        if self.level.shape != (self.n,):
            raise ConfigError("level array shape mismatch")

    # ------------------------------------------------------------------
    def universe(self) -> np.ndarray:
        """Members of A_0."""
        return np.flatnonzero(self.level >= 0)

    def A(self, i: int) -> np.ndarray:
        """Members of A_i (``A_k`` and beyond are empty)."""
        if i >= self.k:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.level >= i)

    def exact_level(self, i: int) -> np.ndarray:
        """Members of ``A_i \\ A_{i+1}`` — the sources of phase ``i``."""
        return np.flatnonzero(self.level == i)

    def level_of(self, u: int) -> int:
        return int(self.level[u])

    def sizes(self) -> list[int]:
        """``[|A_0|, |A_1|, ..., |A_{k-1}|]``."""
        return [int((self.level >= i).sum()) for i in range(self.k)]


def sample_hierarchy(n: int, k: int, q: Optional[float] = None,
                     universe: Optional[Sequence[int]] = None,
                     seed: SeedLike = None,
                     ensure_top_nonempty: bool = True,
                     max_resample: int = 1000) -> Hierarchy:
    """Sample a hierarchy per Section 3.1.

    Parameters
    ----------
    n:
        Number of vertices of the host graph (levels are indexed by vertex).
    k:
        Number of levels (stretch parameter); ``k >= 1``.
    q:
        Per-step sampling probability.  Default ``|universe|^{-1/k}``
        (the paper's ``n^{-1/k}`` when the universe is all of V).
    universe:
        Members of A_0 (default: all vertices).  Vertices outside get
        level -1.
    ensure_top_nonempty:
        Resample until ``A_{k-1} != ∅`` (at most ``max_resample`` times),
        mirroring [TZ05].  With the default ``q`` the failure probability
        per attempt is tiny, so this is almost always a single draw.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    rng = ensure_rng(seed)
    if universe is None:
        members = np.arange(n, dtype=np.int64)
    else:
        members = np.unique(np.asarray(list(universe), dtype=np.int64))
        if members.size and (members[0] < 0 or members[-1] >= n):
            raise ConfigError("universe members out of range")
    if members.size == 0:
        raise ConfigError("universe must be nonempty")
    if q is None:
        q = float(members.size) ** (-1.0 / k)
    if not (0.0 < q <= 1.0):
        raise ConfigError(f"sampling probability must be in (0, 1], got {q}")

    for _ in range(max(1, max_resample)):
        # level = number of consecutive successful promotions, capped at k-1.
        # Drawing the full promotion matrix reproduces the paper's per-set
        # coin flips exactly (each column i is the A_i -> A_{i+1} round).
        levels = np.full(n, -1, dtype=np.int64)
        if k == 1:
            levels[members] = 0
        else:
            flips = ensure_rng(rng).random((members.size, k - 1)) < q
            # first failed promotion determines the level
            failed = ~flips
            first_fail = np.where(failed.any(axis=1),
                                  failed.argmax(axis=1), k - 1)
            levels[members] = first_fail
        h = Hierarchy(n=n, k=k, q=q, level=levels)
        if not ensure_top_nonempty or h.A(k - 1).size > 0:
            return h
    raise ConfigError(
        f"could not sample a hierarchy with nonempty A_{k-1} after "
        f"{max_resample} attempts (|universe|={members.size}, k={k}, q={q})")


def tz_artifacts(graph, seed: SeedLike, params) -> dict:
    """The tz registry row's ``sample``: the one random artifact of a
    Thorup–Zwick build is its hierarchy — an explicit ``hierarchy`` is
    taken as given, otherwise one is drawn for ``k`` with the paper's
    ``n^{-1/k}``.  Every tz build (any mode) samples here."""
    k, hierarchy = params.get("k"), params.get("hierarchy")
    if hierarchy is None:
        if k is None:
            raise ConfigError("tz scheme needs k (or an explicit hierarchy)")
        hierarchy = sample_hierarchy(graph.n, int(k), seed=seed)
    elif k is not None and k != hierarchy.k:
        raise ConfigError(f"k={k} conflicts with hierarchy.k={hierarchy.k}")
    return {"k": hierarchy.k, "hierarchy": hierarchy}
