"""Pre-indexed sketch stores behind the batched query engine.

Every scheme in the library has a vectorized index here, all conforming to
the :class:`IndexStore` protocol:

* :class:`TZIndex` — Thorup–Zwick labels flattened into dense pivot/top
  tables plus hashed per-landmark shard tables.
* :class:`Stretch3Index` — the Theorem 4.3 sketches as one dense
  ``(n, |N|)`` node × net-node distance matrix; a batch is a gather and a
  row-wise min.
* :class:`CDGIndex` — gateway arrays plus a :class:`TZIndex` over the net
  labels (remapped to a compact universe); a batch is two gathers around
  one TZ sub-batch.
* :class:`GracefulIndex` — one :class:`CDGIndex` per ε-component; a batch
  is the component-wise minimum.

Batched answers are **bit-identical** to the scheme's single-pair query
(``estimate_distance`` / ``estimate_to``) — the test suite asserts this
pair by pair, including :class:`~repro.errors.QueryError` parity on
disconnected graphs.  Use :func:`build_index` to get the right store for a
homogeneous sketch set.

Every store also decomposes a batch into **per-landmark-shard probe
tasks** (``plan`` → ``shard_answer`` × S → ``finish``), which is what
:class:`~repro.service.workers.ShardServer` runs on its threads.  The
decomposition is part of the determinism contract: ``shard_answer`` is a
pure function of ``(shard data, request)``, and ``finish`` combines
responses by shard id, never by completion order, so any worker count
yields the same bytes.  See ``docs/architecture.md`` for the dataflow
diagram.

Notes on the TZ layout (the template the other stores reuse):

* ``pivot_ids`` / ``pivot_dists`` — dense ``(n, k)`` tables of the pivot
  entries ``p_i(u), d(u, p_i(u))``.
* a **dense top-level table** — by Lemma 3.2's backstop, ``B_{k-1}(v)``
  contains *all* of ``A_{k-1}`` for every ``v`` (the level-``k`` threshold
  is infinite), so the level-``k-1`` bunch entries form a complete
  ``n x |A_{k-1}|`` distance matrix; a top-level probe is a plain array
  gather instead of a search.
* per-shard **landmark tables** for the sub-top levels — every remaining
  bunch entry ``w ∈ B_i(u)``, ``i < k-1``, becomes one row
  ``(owner u, landmark w, distance, level)``.  Rows are keyed by the
  composite integer ``u * n + w``, stored sorted (the canonical wire
  order) and mirrored into an open-addressing hash table, so a batch of
  membership probes costs 1-3 vectorized gathers per probe with no
  Python-level loop.

Sharding is by landmark (``w % num_shards``): all entries naming landmark
``w`` live in shard ``w mod S``.  A query batch is routed shard by shard,
which maps directly onto a multi-process serving topology (each shard can
be owned by one worker; the landmark is known *before* the lookup, so the
router needs no sketch data).

The dense split requires that level-``k-1`` entries and sub-top entries
never share a landmark — true for every honest TZ construction, where an
entry's level is the landmark's own hierarchy level.  Hand-crafted sketch
sets violating this are detected at build time and stored fully sharded
(slower, still exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import ConfigError, QueryError
from repro.slack.cdg import CDGSketch
from repro.slack.graceful import GracefulSketch
from repro.slack.stretch3 import Stretch3Sketch
from repro.tz.sketch import TZSketch

_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)  # Fibonacci hashing constant


# ----------------------------------------------------------------------
# the store protocol
# ----------------------------------------------------------------------
@runtime_checkable
class IndexStore(Protocol):
    """What the serving layer requires of a pre-built sketch index.

    Implementations promise two things:

    1. **Bit-identity** — :meth:`estimate_many` returns, for every pair,
       the exact float the scheme's single-pair query would return, and
       raises :class:`~repro.errors.QueryError` exactly when some pair in
       the batch would raise it singly.
    2. **Shard decomposition** — ``estimate_many`` is equivalent to::

           state, requests = store.plan(us, vs)
           responses = [store.shard_answer(s, r)
                        for s, r in enumerate(requests)]
           answers = store.finish(state, responses)

       where each ``shard_answer`` call touches only shard ``s``'s slice
       of the store and is a pure function of its arguments (so it can
       run in a worker process), and ``finish`` combines responses by
       shard id.  Answers are independent of ``num_shards``.
    """

    n: int
    num_shards: int

    def estimate_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Batched distance estimates for equal-length id arrays."""
        ...

    def estimate(self, u: int, v: int) -> float:
        """Single-pair convenience wrapper over :meth:`estimate_many`."""
        ...

    def nnz(self) -> int:
        """Total number of stored entries."""
        ...

    def shard_sizes(self) -> list[int]:
        """Stored entry count per landmark shard."""
        ...

    def plan(self, us: np.ndarray, vs: np.ndarray) -> tuple[Any, list]:
        """Validate a batch and split it into per-shard requests."""
        ...

    def shard_answer(self, shard: int, request: Any) -> Any:
        """Serve one shard's request (pure; safe in a worker process)."""
        ...

    def finish(self, state: Any, responses: list) -> np.ndarray:
        """Combine the per-shard responses into the final answers."""
        ...


def _validated_pairs(us, vs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared batch validation: contiguous int64 arrays, ids in [0, n)."""
    us = np.ascontiguousarray(us, dtype=np.int64)
    vs = np.ascontiguousarray(vs, dtype=np.int64)
    if us.shape != vs.shape or us.ndim != 1:
        raise QueryError("estimate_many wants two equal-length 1-d arrays")
    if us.size and (us.min() < 0 or vs.min() < 0
                    or max(int(us.max()), int(vs.max())) >= n):
        raise QueryError(f"node id out of range [0, {n})")
    return us, vs


def parse_pair_array(pairs) -> np.ndarray:
    """Normalize a ``dist_many`` workload — any iterable of ``(u, v)``
    pairs or a ``(Q, 2)`` integer array — to an int64 ``(Q, 2)`` array
    (shared by the engine and the shard-server front ends).

    :raises ConfigError: on any other shape.
    """
    if isinstance(pairs, np.ndarray):
        arr = pairs.astype(np.int64, copy=False)
    else:
        arr = np.asarray(list(pairs), dtype=np.int64)
    if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
        raise ConfigError(
            f"dist_many wants a (Q, 2) pair array, got shape {arr.shape}")
    return arr.reshape(-1, 2)


def _unresolved_error(message: str, row: int) -> QueryError:
    """A QueryError tagged with the offending batch row (wrapping stores
    use the tag to re-raise with their own node ids)."""
    err = QueryError(message)
    err.row = row
    return err


class _BaseIndex:
    """Shared driver: ``estimate_many`` as the in-process plan/probe/finish
    loop, plus the single-pair wrapper."""

    def estimate_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Batched estimates, bit-identical to the single-pair query."""
        state, requests = self.plan(us, vs)
        if self.num_shards == 1:
            # trivial layout: one shard owns everything — go straight to
            # the kernel and skip the enumerate/scatter round-trip
            return self.finish(state, [self.shard_answer(0, requests[0])])
        responses = [self.shard_answer(s, r) for s, r in enumerate(requests)]
        return self.finish(state, responses)

    def estimate(self, u: int, v: int) -> float:
        """Single-pair convenience wrapper over :meth:`estimate_many`."""
        return float(self.estimate_many(np.asarray([u]), np.asarray([v]))[0])


# ----------------------------------------------------------------------
# Thorup–Zwick
# ----------------------------------------------------------------------
def _compose_keys(owners: np.ndarray, landmarks: np.ndarray,
                  n: np.int64) -> np.ndarray:
    """Composite probe keys ``owner * n + landmark``.

    A negative landmark (the ``INF_KEY`` pivot sentinel -1, possible on
    disconnected graphs) must never match: mapped to -2, which matches
    neither a stored key (>= 0) nor the hash table's -1 empty marker, so
    the probe reports it absent — exactly like ``bunch.get(-1)``.
    """
    return np.where(landmarks < 0, -2, owners * n + landmarks)


def _flatten_bunches(owners: Sequence[int], sketches: Sequence[TZSketch],
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
    """The bunch entries of ``sketches`` as ``(owner, landmark, dist,
    level)`` columns, ``owners[j]`` owning the entries of
    ``sketches[j]`` — one pass over the dicts, everything after it is
    array work."""
    sizes = np.fromiter((len(s.bunch) for s in sketches), dtype=np.int64,
                        count=len(sketches))
    total = int(sizes.sum())
    landmarks = np.fromiter(
        chain.from_iterable(s.bunch for s in sketches),
        dtype=np.int64, count=total)
    values = np.fromiter(
        chain.from_iterable(chain.from_iterable(
            s.bunch.values() for s in sketches)),
        dtype=np.float64, count=2 * total).reshape(total, 2)
    return (np.repeat(np.asarray(owners, dtype=np.int64), sizes), landmarks,
            values[:, 0], values[:, 1].astype(np.int64))


def _build_shards(keys: np.ndarray, dists: np.ndarray, levels: np.ndarray,
                  shard_of: np.ndarray, which: Iterable[int],
                  ) -> dict[int, "_Shard"]:
    """The landmark shards ``which`` over the given entries (entry ``j``
    lives in shard ``shard_of[j]``), each sorted by composite key."""
    order = np.lexsort((keys, shard_of))
    keys, dists, levels = keys[order], dists[order], levels[order]
    shard_of = shard_of[order]
    out = {}
    for sidx in which:
        a, b = np.searchsorted(shard_of, (sidx, sidx + 1))
        slot_key, slot_idx, mask, shift = _build_hash(keys[a:b])
        out[sidx] = _Shard(keys=keys[a:b], dists=dists[a:b],
                           levels=levels[a:b], slot_key=slot_key,
                           slot_idx=slot_idx, mask=mask, shift=shift)
    return out


def _build_hash(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Open-addressing hash table over composite keys.

    Returns ``(slot_key, slot_idx, mask, shift)``: power-of-two table at
    load factor <= 0.5, empty slots keyed -1.  Probing costs 1-3 gathers —
    beats binary search, whose ~log2(nnz) dependent accesses dominate the
    batched lookup profile.
    """
    size = 1
    while size < max(2, 2 * keys.size):
        size <<= 1
    shift = 64 - size.bit_length() + 1
    slot_key = np.full(size, -1, dtype=np.int64)
    slot_idx = np.zeros(size, dtype=np.int64)
    mask = size - 1
    if keys.size:
        cur = (((keys.astype(np.uint64) * _HASH_MULT) >> np.uint64(shift))
               .astype(np.int64) & mask)
        pend = np.arange(keys.size)
        while pend.size:
            slots = cur[pend]
            empty = slot_key[slots] == -1
            # first pending entry per empty slot wins this round
            _, first = np.unique(slots[empty], return_index=True)
            winners = np.flatnonzero(empty)[first]
            slot_key[slots[winners]] = keys[pend[winners]]
            slot_idx[slots[winners]] = pend[winners]
            placed = np.zeros(pend.size, dtype=bool)
            placed[winners] = True
            pend = pend[~placed]
            cur[pend] = (cur[pend] + 1) & mask
    return slot_key, slot_idx, mask, shift


@dataclass(frozen=True)
class _Shard:
    """One landmark shard: composite-key-sorted bunch entries plus a hash
    table for O(1) batched probes."""

    keys: np.ndarray    # int64, sorted: owner * n + landmark
    dists: np.ndarray   # float64
    levels: np.ndarray  # int64
    slot_key: np.ndarray
    slot_idx: np.ndarray
    mask: int
    shift: int

    def probe(self, keys: np.ndarray) -> np.ndarray:
        """Entry index for each probe key, -1 where absent."""
        cur = (((keys.astype(np.uint64) * _HASH_MULT)
                >> np.uint64(self.shift)).astype(np.int64) & self.mask)
        # unrolled first round: most probes resolve without a collision
        at = self.slot_key[cur]
        hit = at == keys
        pos = np.where(hit, self.slot_idx[cur], -1)
        pend = np.flatnonzero(~hit & (at != -1))
        while pend.size:
            cur[pend] = (cur[pend] + 1) & self.mask
            slots = cur[pend]
            at = self.slot_key[slots]
            hit = at == keys[pend]
            pos[pend[hit]] = self.slot_idx[slots[hit]]
            pend = pend[~hit & (at != -1)]
        return pos


@dataclass
class _TZPlan:
    """In-flight state of one batched TZ query (master side only)."""

    us: np.ndarray
    vs: np.ndarray
    hit: np.ndarray       # (q, k, 2) bool, top level prefilled if dense
    cand: np.ndarray      # (q, k, 2) float64, ditto
    via: np.ndarray       # (q, kk, 2) pivot distances awaiting probe sums
    kk: int               # levels routed through the shard tables
    idx: list             # per-shard positions into the flat probe array
    nprobe: int           # flat probe count


class TZIndex(_BaseIndex):
    """Flat-array index over a TZ sketch set, built for batched queries.

    :param sketches: one :class:`~repro.tz.sketch.TZSketch` per node,
        indexed by node ID.
    :param num_shards: number of landmark shards (``>= 1``).  Answers are
        independent of the shard count; it only changes the physical
        layout (and the unit of work a
        :class:`~repro.service.workers.ShardServer` hands one worker).
    :raises ConfigError: on an empty set, a non-TZ sketch, mixed ``k``,
        or ``num_shards < 1``.
    """

    def __init__(self, sketches: Sequence[TZSketch], num_shards: int = 1):
        if not sketches:
            raise ConfigError("cannot index an empty sketch set")
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        n = len(sketches)
        k = sketches[0].k
        for s in sketches:
            if not isinstance(s, TZSketch):
                raise ConfigError(
                    f"TZIndex only indexes TZSketch, got {type(s).__name__}")
            if s.k != k:
                raise ConfigError(
                    f"mixed k in sketch set: {s.k} vs {k} (node {s.node})")
        self.n = n
        self.k = k
        self.num_shards = int(num_shards)

        owners, landmarks, dists, levels = _flatten_bunches(range(n),
                                                            sketches)
        # the dense top block is sound only if no landmark mixes level-(k-1)
        # entries with sub-top entries (honest TZ output never does; see
        # module docstring) — otherwise store everything sharded
        at_top = levels == k - 1
        has_top = np.zeros(n, dtype=bool)
        has_top[landmarks[at_top]] = True
        has_sub = np.zeros(n, dtype=bool)
        has_sub[landmarks[~at_top]] = True
        self.dense_top = not (has_top & has_sub).any()
        self.top_ids = (np.flatnonzero(has_top) if self.dense_top
                        else np.empty(0, dtype=np.int64))
        #: column of each top landmark in the dense table (-1 elsewhere)
        self.top_col = np.full(n, -1, dtype=np.int64)
        self.top_col[self.top_ids] = np.arange(self.top_ids.size)
        #: dense ``d(v, w)`` for top landmarks; +inf marks a (pathological)
        #: missing entry so the probe correctly reports "not found"
        self.top_dist = np.full((n, self.top_ids.size), np.inf,
                                dtype=np.float64)
        dense = self.top_col[landmarks] >= 0
        self.top_dist[owners[dense], self.top_col[landmarks[dense]]] = (
            dists[dense])

        pivots = np.asarray([s.pivots for s in sketches], dtype=np.float64)
        self.pivot_ids = pivots[:, :, 0].astype(np.int64)
        self.pivot_dists = np.ascontiguousarray(pivots[:, :, 1])
        #: True when any pivot is the INF_KEY sentinel (-1, inf) — only on
        #: disconnected graphs; the batch path then masks sentinel probes
        self.sentinel_pivots = bool((self.pivot_ids < 0).any())
        sub = ~dense
        shards = _build_shards(owners[sub] * n + landmarks[sub], dists[sub],
                               levels[sub], landmarks[sub] % self.num_shards,
                               range(self.num_shards))
        self.shards: list[_Shard] = [shards[s] for s in range(self.num_shards)]

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    def nnz(self) -> int:
        """Total number of bunch entries (dense top block included)."""
        sub = sum(sh.keys.size for sh in self.shards)
        return sub + int(np.isfinite(self.top_dist).sum())

    def shard_sizes(self) -> list[int]:
        """Sharded (sub-top) entry count per landmark shard."""
        return [sh.keys.size for sh in self.shards]

    # ------------------------------------------------------------------
    # shard routing and probing
    # ------------------------------------------------------------------
    def _route(self, keys: np.ndarray, landmarks: np.ndarray,
               ) -> tuple[list, list[np.ndarray]]:
        """Group flat composite keys by landmark shard.

        Returns ``(idx, requests)``: per-shard positions into the flat
        array (``[None]`` for the trivial single-shard layout) and the
        per-shard key arrays.
        """
        if self.num_shards == 1:
            return [None], [keys]
        shard_of = landmarks % self.num_shards
        idx = [np.flatnonzero(shard_of == s) for s in range(self.num_shards)]
        return idx, [keys[i] for i in idx]

    def shard_answer(self, shard: int, request: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Probe shard ``shard`` with composite keys.

        Returns ``(dist, level)`` with level -1 where absent (the distance
        is then unspecified; a -1 level never matches a scan level, so the
        garbage value is never selected).  Pure: touches only this shard's
        hash table, so it can run in a worker process.
        """
        sh = self.shards[shard]
        if request.size == 0 or sh.keys.size == 0:
            return (np.zeros(request.size, dtype=np.float64),
                    np.full(request.size, -1, dtype=np.int64))
        pos = sh.probe(request)
        # gather with pos=-1 wrapping to the last entry is safe: the level
        # is forced to -1 there (see above)
        return sh.dists[pos], np.where(pos >= 0, sh.levels[pos], -1)

    def _scatter(self, idx: list, responses: list, total: int,
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Merge per-shard probe responses back into flat arrays."""
        if self.num_shards == 1:
            return responses[0]
        dist = np.zeros(total, dtype=np.float64)
        level = np.full(total, -1, dtype=np.int64)
        for pos, (d, lvl) in zip(idx, responses):
            dist[pos] = d
            level[pos] = lvl
        return dist, level

    def _probe_keys(self, keys: np.ndarray, landmarks: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Route flat composite keys through the shard hash tables; returns
        ``(dist, level)`` with level -1 where absent."""
        idx, requests = self._route(keys, landmarks)
        responses = [self.shard_answer(s, r) for s, r in enumerate(requests)]
        return self._scatter(idx, responses, keys.size)

    def lookup(self, owners: np.ndarray, landmarks: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched bunch probe: for each ``(owner, landmark)`` pair return
        ``(dist, level, found)`` — ``found[j]`` is False when the landmark
        is not in the owner's bunch (then dist/level are undefined).

        Owners must be real node ids; a landmark outside ``[0, n)`` (e.g.
        the INF_KEY pivot sentinel -1) is simply never a member.
        """
        owners = np.ascontiguousarray(owners, dtype=np.int64)
        landmarks = np.ascontiguousarray(landmarks, dtype=np.int64)
        m = owners.shape[0]
        if m and (owners.min() < 0 or owners.max() >= self.n):
            raise QueryError(f"owner id out of range [0, {self.n})")
        dist = np.zeros(m, dtype=np.float64)
        level = np.full(m, -1, dtype=np.int64)
        in_range = (landmarks >= 0) & (landmarks < self.n)
        col = np.where(in_range, self.top_col[landmarks % self.n], -1)
        is_top = col >= 0
        ti = np.flatnonzero(is_top)
        if ti.size:
            d = self.top_dist[owners[ti], col[ti]]
            ok = np.isfinite(d)
            oi = ti[ok]
            dist[oi] = d[ok]
            level[oi] = self.k - 1
        rest = np.flatnonzero(~is_top & in_range)
        if rest.size:
            keys = _compose_keys(owners[rest], landmarks[rest],
                                 np.int64(self.n))
            d, lvl = self._probe_keys(keys, landmarks[rest])
            dist[rest] = d
            level[rest] = lvl
        return dist, level, level >= 0

    # ------------------------------------------------------------------
    # the batched Lemma 3.2 query, decomposed per the IndexStore contract
    # ------------------------------------------------------------------
    def plan(self, us: np.ndarray, vs: np.ndarray) -> tuple[_TZPlan, list]:
        """Validate the batch, gather pivots and the dense-top hits, and
        split the sub-top membership probes into per-shard key requests."""
        us, vs = _validated_pairs(us, vs, self.n)
        return self._plan_checked(us, vs)

    def _plan_checked(self, us: np.ndarray, vs: np.ndarray,
                      ) -> tuple[_TZPlan, list]:
        """:meth:`plan` minus the batch validation — wrapping stores
        (CDG, graceful) route already-validated compact-universe ids
        here so a batch is checked once, not once per layer."""
        q, k, n = us.shape[0], self.k, self.n

        pu = self.pivot_ids[us]      # (q, k)
        pv = self.pivot_ids[vs]
        du = self.pivot_dists[us]
        dv = self.pivot_dists[vs]

        # hit/candidate matrix in Lemma 3.2's exact check order: columns
        # (level 0 dir 1), (level 0 dir 2), ..., (level k-1 dir 1),
        # (level k-1 dir 2); argmax then picks the first hit per row
        hit = np.empty((q, k, 2), dtype=bool)
        cand = np.empty((q, k, 2), dtype=np.float64)

        # the sentinel masks are pure overhead on connected graphs, where
        # no pivot is ever -1 — compose keys directly in that case
        compose = _compose_keys if self.sentinel_pivots else (
            lambda o, lm, nn: o * nn + lm)

        kk = k - 1 if self.dense_top else k
        if kk:
            keys = np.empty((q, kk, 2), dtype=np.int64)
            keys[:, :, 0] = compose(vs[:, None], pu[:, :kk], n)
            keys[:, :, 1] = compose(us[:, None], pv[:, :kk], n)
            flat = keys.reshape(-1)
            if self.num_shards > 1:
                # landmarks only needed for routing; clamp the -2 sentinel
                # keys of the fully-sharded path into a valid shard (they
                # can never match a stored key anyway)
                lms = flat % n if self.dense_top else np.maximum(flat, 0) % n
            else:
                lms = flat
            via = np.empty((q, kk, 2), dtype=np.float64)
            via[:, :, 0] = du[:, :kk]
            via[:, :, 1] = dv[:, :kk]
            idx, requests = self._route(flat, lms)
        else:
            flat = np.empty(0, dtype=np.int64)
            via = np.empty((q, 0, 2), dtype=np.float64)
            idx, requests = self._route(flat, flat)

        if self.dense_top:
            if self.top_ids.size:
                # the landmark >= 0 guard keeps the INF_KEY sentinel pivot
                # (-1, on disconnected graphs) from wrapping into a column
                if self.sentinel_pivots:
                    c0 = np.where(pu[:, kk] >= 0,
                                  self.top_col[pu[:, kk]], -1)
                    c1 = np.where(pv[:, kk] >= 0,
                                  self.top_col[pv[:, kk]], -1)
                else:
                    c0 = self.top_col[pu[:, kk]]
                    c1 = self.top_col[pv[:, kk]]
                t0 = self.top_dist[vs, np.maximum(c0, 0)]
                hit[:, kk, 0] = (c0 >= 0) & np.isfinite(t0)
                cand[:, kk, 0] = du[:, kk] + t0
                t1 = self.top_dist[us, np.maximum(c1, 0)]
                hit[:, kk, 1] = (c1 >= 0) & np.isfinite(t1)
                cand[:, kk, 1] = dv[:, kk] + t1
            else:  # degenerate: no top-level entries anywhere
                hit[:, kk, :] = False
                cand[:, kk, :] = np.inf

        state = _TZPlan(us=us, vs=vs, hit=hit, cand=cand, via=via, kk=kk,
                        idx=idx, nprobe=flat.size)
        return state, requests

    def finish(self, state: _TZPlan, responses: list) -> np.ndarray:
        """Fold the shard probe responses into the Lemma 3.2 level scan:
        first hit wins, exactly like the single-pair reference."""
        us, vs, kk = state.us, state.vs, state.kk
        q, k = us.shape[0], self.k
        if kk:
            d, lvl = self._scatter(state.idx, responses, state.nprobe)
            state.hit[:, :kk, :] = (
                lvl.reshape(q, kk, 2)
                == np.arange(kk, dtype=np.int64)[None, :, None])
            state.cand[:, :kk, :] = state.via + d.reshape(q, kk, 2)
        hit2 = state.hit.reshape(q, 2 * k)
        first = np.argmax(hit2, axis=1)
        rows = np.arange(q)
        est = np.where(us == vs, 0.0,
                       state.cand.reshape(q, 2 * k)[rows, first])
        unresolved = (us != vs) & ~hit2[rows, first]
        if unresolved.any():
            j = int(np.flatnonzero(unresolved)[0])
            raise _unresolved_error(
                f"labels of {int(us[j])} and {int(vs[j])} share no level "
                f"(A_{self.k - 1} membership is inconsistent between them)",
                j)
        return est

    # ------------------------------------------------------------------
    # buffer-pack split: physical arrays vs pure logic
    # ------------------------------------------------------------------
    def pack_arrays(self) -> dict[str, np.ndarray]:
        """Every array this store reads at query time, by name (the
        payload of :func:`index_to_pack`)."""
        out = {
            "pivot_ids": self.pivot_ids, "pivot_dists": self.pivot_dists,
            "top_ids": self.top_ids, "top_col": self.top_col,
            "top_dist": self.top_dist,
        }
        for s, sh in enumerate(self.shards):
            out[f"s{s}.keys"] = sh.keys
            out[f"s{s}.dists"] = sh.dists
            out[f"s{s}.levels"] = sh.levels
            out[f"s{s}.slot_key"] = sh.slot_key
            out[f"s{s}.slot_idx"] = sh.slot_idx
        return out

    def pack_meta(self) -> dict:
        """The scalar (non-array) state, JSON-compatible."""
        return {"n": self.n, "k": self.k, "num_shards": self.num_shards,
                "dense_top": self.dense_top,
                "sentinel_pivots": self.sentinel_pivots,
                "shard_hash": [[sh.mask, sh.shift] for sh in self.shards]}

    @classmethod
    def _from_pack(cls, meta: dict, arrays) -> "TZIndex":
        """Rebuild the store as a pure-logic view over packed arrays —
        no copies, bit-identical answers for any backing."""
        self = cls.__new__(cls)
        self.n = int(meta["n"])
        self.k = int(meta["k"])
        self.num_shards = int(meta["num_shards"])
        self.dense_top = bool(meta["dense_top"])
        self.sentinel_pivots = bool(meta["sentinel_pivots"])
        self.pivot_ids = arrays["pivot_ids"]
        self.pivot_dists = arrays["pivot_dists"]
        self.top_ids = arrays["top_ids"]
        self.top_col = arrays["top_col"]
        self.top_dist = arrays["top_dist"]
        self.shards = [
            _Shard(keys=arrays[f"s{s}.keys"], dists=arrays[f"s{s}.dists"],
                   levels=arrays[f"s{s}.levels"],
                   slot_key=arrays[f"s{s}.slot_key"],
                   slot_idx=arrays[f"s{s}.slot_idx"],
                   mask=int(mask), shift=int(shift))
            for s, (mask, shift) in enumerate(meta["shard_hash"])]
        return self

    # ------------------------------------------------------------------
    # incremental refresh (the dynamic-update subsystem's index hook)
    # ------------------------------------------------------------------
    def apply_sketch_updates(self, dirty: dict[int, TZSketch]) -> "TZIndex":
        """A **new** index with the ``dirty`` owners' sketches replaced,
        touching only the landmark shards their entries live in.

        The clean shards' arrays (keys, distances, hash tables) are
        shared with this index by reference — only shards holding an old
        or new entry of a dirty owner are rebuilt, which is what makes a
        small update batch much cheaper than ``TZIndex(sketches)`` from
        scratch.  ``self`` is never mutated (epoch semantics: readers on
        the old store are unaffected).

        :raises ConfigError: when a replacement sketch is incompatible
            with this index's physical layout (wrong ``k``, or an entry
            whose level disagrees with the dense-top split — callers
            fall back to a full rebuild).
        """
        n, k, S = self.n, self.k, self.num_shards
        for u, s in dirty.items():
            if not (0 <= u < n):
                raise ConfigError(f"dirty owner {u} out of range [0, {n})")
            if not isinstance(s, TZSketch) or s.k != k:
                raise ConfigError(
                    f"replacement sketch for {u} is not a k={k} TZSketch")
        owners = np.asarray(sorted(dirty), dtype=np.int64)
        fresh = [dirty[u] for u in owners.tolist()]
        own, landmarks, dists, levels = _flatten_bunches(owners, fresh)
        dense = self.top_col[landmarks] >= 0
        drift = np.flatnonzero(dense != (self.dense_top & (levels == k - 1)))
        if drift.size:
            j = drift[0]
            raise ConfigError(
                f"entry ({own[j]}, {landmarks[j]}) at level {levels[j]} "
                f"disagrees with the dense-top layout (rebuild required)")

        new = TZIndex.__new__(TZIndex)
        new.n, new.k, new.num_shards = n, k, S
        new.dense_top = self.dense_top
        new.top_ids = self.top_ids
        new.top_col = self.top_col

        pivots = np.asarray([s.pivots for s in fresh], dtype=np.float64)
        new.pivot_ids = np.array(self.pivot_ids)
        new.pivot_ids[owners] = pivots[:, :, 0].astype(np.int64)
        new.pivot_dists = np.array(self.pivot_dists)
        new.pivot_dists[owners] = pivots[:, :, 1]
        new.sentinel_pivots = bool((new.pivot_ids < 0).any())
        new.top_dist = np.array(self.top_dist)
        new.top_dist[owners, :] = np.inf
        new.top_dist[own[dense], self.top_col[landmarks[dense]]] = (
            dists[dense])

        # a shard is rebuilt iff it holds an old or a new entry of a dirty
        # owner: its clean owners' rows plus the dirty owners' new ones
        sub = ~dense
        parts = [(own[sub] * n + landmarks[sub], dists[sub], levels[sub],
                  landmarks[sub] % S)]
        affected = set(parts[0][3].tolist())
        for sidx, sh in enumerate(self.shards):
            stale = np.isin(sh.keys // n, owners)
            if stale.any():
                affected.add(sidx)
            if sidx in affected:
                keep = ~stale
                parts.append((sh.keys[keep], sh.dists[keep], sh.levels[keep],
                              np.full(int(keep.sum()), sidx)))
        new.shards = list(self.shards)  # clean shards shared by reference
        for sidx, shard in _build_shards(
                *map(np.concatenate, zip(*parts)), affected).items():
            new.shards[sidx] = shard
        return new

    def _to_sketches(self) -> list[TZSketch]:
        """Invert the build: the per-node sketch set this index stores
        (exact — every pivot and bunch entry round-trips bitwise)."""
        bunches: list[dict[int, tuple[float, int]]] = [
            dict() for _ in range(self.n)]
        for u, w, d, lvl in self.iter_entries():
            bunches[u][w] = (d, lvl)
        return [TZSketch(node=u, k=self.k,
                         pivots=tuple(
                             (int(self.pivot_ids[u, i]),
                              float(self.pivot_dists[u, i]))
                             for i in range(self.k)),
                         bunch=bunches[u])
                for u in range(self.n)]

    # ------------------------------------------------------------------
    # canonical entry stream (serialization / equality)
    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterable[tuple[int, int, float, int]]:
        """All bunch entries as ``(owner, landmark, dist, level)`` in global
        composite-key order — a canonical stream independent of the shard
        count and of the dense/sparse storage split."""
        merged = [(int(key), float(sh.dists[j]), int(sh.levels[j]))
                  for sh in self.shards
                  for j, key in enumerate(sh.keys)]
        for u in range(self.n):
            for j in range(self.top_ids.size):
                d = self.top_dist[u, j]
                if np.isfinite(d):
                    merged.append((u * self.n + int(self.top_ids[j]),
                                   float(d), self.k - 1))
        merged.sort(key=lambda e: e[0])
        for key, d, lvl in merged:
            yield key // self.n, key % self.n, d, lvl

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TZIndex):
            return NotImplemented
        return (self.n == other.n and self.k == other.k
                and np.array_equal(self.pivot_ids, other.pivot_ids)
                and np.array_equal(self.pivot_dists, other.pivot_dists)
                and list(self.iter_entries()) == list(other.iter_entries()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TZIndex(n={self.n}, k={self.k}, nnz={self.nnz()}, "
                f"shards={self.num_shards})")


# ----------------------------------------------------------------------
# stretch-3 (Theorem 4.3)
# ----------------------------------------------------------------------
class Stretch3Index(_BaseIndex):
    """Dense node × net-node distance table over a stretch-3 sketch set.

    The single-pair query is ``min_w d(u, w) + d(w, v)`` over the shared
    ε-density net; with all entries in one ``(n, |N|)`` matrix (missing
    entries stored as +inf, which no min ever selects) a batch is two row
    gathers, one addition, and a row-wise min — the same floats the dict
    loop in :meth:`~repro.slack.stretch3.Stretch3Sketch.estimate_to`
    produces, since an IEEE-754 min is order-independent.

    Sharding is by net-node id (``w % num_shards``): each shard owns a
    column block and answers a batch with its partial per-pair min; the
    combine step is an elementwise min over shards.

    :param sketches: one :class:`~repro.slack.stretch3.Stretch3Sketch`
        per node, indexed by node ID.
    :param num_shards: number of net-node shards (``>= 1``); answers are
        shard-independent.
    :raises ConfigError: on an empty set, a non-stretch3 sketch, mixed
        ``eps``, or ``num_shards < 1``.
    """

    def __init__(self, sketches: Sequence[Stretch3Sketch],
                 num_shards: int = 1):
        if not sketches:
            raise ConfigError("cannot index an empty sketch set")
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        for s in sketches:
            if not isinstance(s, Stretch3Sketch):
                raise ConfigError(
                    f"Stretch3Index only indexes Stretch3Sketch, "
                    f"got {type(s).__name__}")
        eps = sketches[0].eps
        for s in sketches:
            if s.eps != eps:
                raise ConfigError(
                    f"mixed eps in sketch set: {s.eps} vs {eps} "
                    f"(node {s.node})")
        self.n = len(sketches)
        self.eps = eps
        self.num_shards = int(num_shards)
        #: sorted net-node ids — the columns of the dense table
        self.net_ids = np.asarray(
            sorted({w for s in sketches for w in s.entries}), dtype=np.int64)
        col = {int(w): j for j, w in enumerate(self.net_ids)}
        #: dense ``d(u, w)``; +inf marks a missing entry
        self.dist = np.full((self.n, self.net_ids.size), np.inf,
                            dtype=np.float64)
        for u, s in enumerate(sketches):
            for w, d in s.entries.items():
                self.dist[u, col[w]] = d
        #: per-shard column blocks (net node ``w`` lives in ``w mod S``)
        self._shard_cols = [
            np.flatnonzero(self.net_ids % self.num_shards == s)
            for s in range(self.num_shards)]

    def nnz(self) -> int:
        """Number of stored (finite) node → net-node entries."""
        return int(np.isfinite(self.dist).sum())

    def shard_sizes(self) -> list[int]:
        """Stored entry count per net-node shard."""
        return [int(np.isfinite(self.dist[:, cols]).sum())
                for cols in self._shard_cols]

    # ------------------------------------------------------------------
    def estimate_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Batched estimates via the direct columnar kernel — two row
        gathers, one add, one row-wise min over the full table (an IEEE
        min is order-independent, so this is bit-identical to the
        shard-partial decomposition for any shard count)."""
        us, vs = _validated_pairs(us, vs, self.n)
        if self.net_ids.size:
            best = (self.dist[us] + self.dist[vs]).min(axis=1)
        else:
            best = np.full(us.size, np.inf, dtype=np.float64)
        return self._combine(us, vs, best)

    def plan(self, us: np.ndarray, vs: np.ndarray) -> tuple[Any, list]:
        """Validate the batch; every shard receives the full pair list
        (each owns a disjoint column block of the min)."""
        us, vs = _validated_pairs(us, vs, self.n)
        return (us, vs), [(us, vs)] * self.num_shards

    def shard_answer(self, shard: int, request: Any) -> np.ndarray:
        """Partial per-pair min over this shard's net-node columns
        (+inf where the shard contributes no finite route)."""
        us, vs = request
        cols = self._shard_cols[shard]
        if cols.size == 0:
            return np.full(us.size, np.inf, dtype=np.float64)
        if cols.size == self.net_ids.size:
            # the shard owns every column (single-shard layout): plain
            # row gathers beat the 2-d fancy gather
            return (self.dist[us] + self.dist[vs]).min(axis=1)
        through = (self.dist[us[:, None], cols[None, :]]
                   + self.dist[vs[:, None], cols[None, :]])
        return through.min(axis=1)

    def finish(self, state: Any, responses: list) -> np.ndarray:
        """Elementwise min over the shard partials; QueryError where no
        shard found a shared net node (exactly when the dict loop would
        have raised)."""
        us, vs = state
        best = responses[0]
        for part in responses[1:]:
            best = np.minimum(best, part)
        return self._combine(us, vs, best)

    def _combine(self, us: np.ndarray, vs: np.ndarray,
                 best: np.ndarray) -> np.ndarray:
        """Shared tail of the kernel and the shard combine: zero the
        diagonal, raise on pairs with no shared net node."""
        est = np.where(us == vs, 0.0, best)
        bad = (us != vs) & ~np.isfinite(best)
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise _unresolved_error(
                f"sketches of {int(us[j])} and {int(vs[j])} share no "
                f"net node", j)
        return est

    # ------------------------------------------------------------------
    # buffer-pack split
    # ------------------------------------------------------------------
    def pack_arrays(self) -> dict[str, np.ndarray]:
        """Every array this store reads at query time, by name."""
        return {"net_ids": self.net_ids, "dist": self.dist}

    def pack_meta(self) -> dict:
        """The scalar (non-array) state, JSON-compatible."""
        return {"n": self.n, "eps": self.eps, "num_shards": self.num_shards}

    @classmethod
    def _from_pack(cls, meta: dict, arrays) -> "Stretch3Index":
        """Rebuild as a view over packed arrays (the shard column split
        is a pure function of ``net_ids`` and ``num_shards``)."""
        self = cls.__new__(cls)
        self.n = int(meta["n"])
        self.eps = float(meta["eps"])
        self.num_shards = int(meta["num_shards"])
        self.net_ids = arrays["net_ids"]
        self.dist = arrays["dist"]
        self._shard_cols = [
            np.flatnonzero(self.net_ids % self.num_shards == s)
            for s in range(self.num_shards)]
        return self

    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterable[tuple[int, int, float]]:
        """Finite entries as ``(owner, net node, dist)``, sorted by
        ``(owner, net node)`` — the canonical serialization stream."""
        for u in range(self.n):
            row = self.dist[u]
            for j in np.flatnonzero(np.isfinite(row)):
                yield u, int(self.net_ids[j]), float(row[j])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Stretch3Index):
            return NotImplemented
        return (self.n == other.n and self.eps == other.eps
                and list(self.iter_entries()) == list(other.iter_entries()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Stretch3Index(n={self.n}, net={self.net_ids.size}, "
                f"nnz={self.nnz()}, shards={self.num_shards})")


# ----------------------------------------------------------------------
# (ε,k)-CDG (Theorem 4.6)
# ----------------------------------------------------------------------
class CDGIndex(_BaseIndex):
    """Gateway arrays plus a TZ sub-index over the net labels.

    The single-pair query is ``d(u, u') + d''(u', v') + d(v', v)`` where
    ``d''`` is the TZ estimate between the gateways' labels.  The store
    keeps the gateway pairs in flat arrays and the labels — remapped onto
    a compact 0-based universe — in a :class:`TZIndex`, so a batch is two
    gathers around one TZ sub-batch.  Sharding (and hence the
    :class:`~repro.service.workers.ShardServer` decomposition) is
    delegated to the sub-index.

    :param sketches: one :class:`~repro.slack.cdg.CDGSketch` per node,
        indexed by node ID.
    :param num_shards: landmark shard count of the TZ sub-index.
    :raises ConfigError: on an empty set, a non-CDG sketch, mixed
        ``eps``/``k``, a sketch whose label is not its gateway's, or two
        sketches shipping different labels for the same gateway.
    """

    def __init__(self, sketches: Sequence[CDGSketch], num_shards: int = 1):
        if not sketches:
            raise ConfigError("cannot index an empty sketch set")
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        for s in sketches:
            if not isinstance(s, CDGSketch):
                raise ConfigError(
                    f"CDGIndex only indexes CDGSketch, got {type(s).__name__}")
        eps, k = sketches[0].eps, sketches[0].k
        labels: dict[int, TZSketch] = {}
        for s in sketches:
            if s.eps != eps or s.k != k:
                raise ConfigError(
                    f"mixed eps/k in sketch set: ({s.eps}, {s.k}) vs "
                    f"({eps}, {k}) (node {s.node})")
            if s.label.node != s.gateway:
                raise ConfigError(
                    f"node {s.node} ships the label of {s.label.node} but "
                    f"names gateway {s.gateway}")
            prev = labels.get(s.gateway)
            if prev is None:
                labels[s.gateway] = s.label
            elif prev != s.label:
                raise ConfigError(
                    f"conflicting labels for gateway {s.gateway}")
        lk = next(iter(labels.values())).k
        for lbl in labels.values():
            if lbl.k != lk:
                raise ConfigError(
                    f"mixed k in net labels: {lbl.k} vs {lk}")
        self.n = len(sketches)
        self.eps = eps
        self.k = k
        self.num_shards = int(num_shards)
        self.gateway_ids = np.asarray([s.gateway for s in sketches],
                                      dtype=np.int64)
        self.gateway_dists = np.asarray([s.gateway_dist for s in sketches],
                                        dtype=np.float64)
        # original-id label map (one per gateway) — see the ``labels``
        # property (pack-built stores reconstruct it lazily instead)
        self._labels: Optional[dict[int, TZSketch]] = labels

        # compact universe: every id a label mentions (owners, bunch
        # landmarks, non-sentinel pivots), remapped to 0..m-1 so the TZ
        # sub-index wastes no rows on non-net nodes
        universe = set(labels)
        for lbl in labels.values():
            universe.update(lbl.bunch)
            universe.update(p for p, _ in lbl.pivots if p >= 0)
        self.net_ids = np.asarray(sorted(universe), dtype=np.int64)
        slot = {int(w): j for j, w in enumerate(self.net_ids)}
        subs = []
        for j, w in enumerate(self.net_ids):
            lbl = labels.get(int(w))
            if lbl is None:
                # a net node referenced by labels but never a gateway: it
                # is never queried as an owner, so an empty placeholder
                # row keeps the universe contiguous without inventing data
                subs.append(TZSketch(node=j, k=lk,
                                     pivots=((-1, math.inf),) * lk,
                                     bunch={}))
            else:
                subs.append(TZSketch(
                    node=j, k=lbl.k,
                    pivots=tuple((slot[p] if p >= 0 else -1, d)
                                 for p, d in lbl.pivots),
                    bunch={slot[w2]: entry
                           for w2, entry in lbl.bunch.items()}))
        self._sub = TZIndex(subs, num_shards=self.num_shards)
        #: per-node slot of the gateway's label in the sub-index
        self._gw_slot = np.asarray([slot[int(g)] for g in self.gateway_ids],
                                   dtype=np.int64)

    @property
    def labels(self) -> dict[int, TZSketch]:
        """Original-id net-label map, one entry per gateway (the
        serialization form).  Sketch-built stores carry it from
        construction; pack-built stores reconstruct it exactly from the
        TZ sub-index by mapping the compact universe back through
        ``net_ids`` (the remap is a bijection, so the round trip is
        bitwise)."""
        if self._labels is None:
            gateways = {int(g) for g in self.gateway_ids}
            net = self.net_ids
            labels: dict[int, TZSketch] = {}
            for j, sub in enumerate(self._sub._to_sketches()):
                w = int(net[j])
                if w not in gateways:
                    continue
                labels[w] = TZSketch(
                    node=w, k=sub.k,
                    pivots=tuple(((int(net[p]) if p >= 0 else -1), d)
                                 for p, d in sub.pivots),
                    bunch={int(net[b]): entry
                           for b, entry in sub.bunch.items()})
            self._labels = labels
        return self._labels

    def nnz(self) -> int:
        """Stored entries: gateway pairs plus the sub-index's bunches."""
        return self.n + self._sub.nnz()

    def shard_sizes(self) -> list[int]:
        """Sharded entry count per landmark shard of the sub-index."""
        return self._sub.shard_sizes()

    # ------------------------------------------------------------------
    def plan(self, us: np.ndarray, vs: np.ndarray) -> tuple[Any, list]:
        """Validate the batch and plan the gateway-label TZ sub-batch."""
        us, vs = _validated_pairs(us, vs, self.n)
        return self._plan_checked(us, vs)

    def _plan_checked(self, us: np.ndarray, vs: np.ndarray,
                      ) -> tuple[Any, list]:
        """:meth:`plan` minus the batch validation.  The gateway slots
        gathered from ``_gw_slot`` are valid sub-universe ids by
        construction, so the TZ sub-plan skips its own check too —
        one validation per batch, however deep the store nests."""
        sub_state, requests = self._sub._plan_checked(self._gw_slot[us],
                                                      self._gw_slot[vs])
        return (us, vs, sub_state), requests

    def shard_answer(self, shard: int, request: Any) -> Any:
        """Delegate the probe to the TZ sub-index shard."""
        return self._sub.shard_answer(shard, request)

    def finish(self, state: Any, responses: list) -> np.ndarray:
        """Wrap the sub-index's answers in the gateway legs, re-raising
        unresolved pairs with the original node ids."""
        us, vs, sub_state = state
        try:
            through = self._sub.finish(sub_state, responses)
        except QueryError as exc:
            j = getattr(exc, "row", None)
            if j is None:  # pragma: no cover - defensive
                raise
            raise _unresolved_error(
                f"cdg sketches of {int(us[j])} and {int(vs[j])} share no "
                f"level (gateways {int(self.gateway_ids[us[j]])} and "
                f"{int(self.gateway_ids[vs[j]])})", j) from None
        est = (self.gateway_dists[us] + through) + self.gateway_dists[vs]
        return np.where(us == vs, 0.0, est)

    # ------------------------------------------------------------------
    # buffer-pack split
    # ------------------------------------------------------------------
    def pack_arrays(self) -> dict[str, np.ndarray]:
        """Own arrays plus the TZ sub-index's, namespaced ``sub.*``."""
        out = {"gateway_ids": self.gateway_ids,
               "gateway_dists": self.gateway_dists,
               "net_ids": self.net_ids, "gw_slot": self._gw_slot}
        for name, arr in self._sub.pack_arrays().items():
            out[f"sub.{name}"] = arr
        return out

    def pack_meta(self) -> dict:
        """The scalar state, with the sub-index's meta nested."""
        return {"n": self.n, "eps": self.eps, "k": self.k,
                "num_shards": self.num_shards,
                "sub": self._sub.pack_meta()}

    @classmethod
    def _from_pack(cls, meta: dict, arrays) -> "CDGIndex":
        """Rebuild as views over packed arrays; the label dict is
        reconstructed lazily only if serialization/equality asks."""
        self = cls.__new__(cls)
        self.n = int(meta["n"])
        self.eps = float(meta["eps"])
        self.k = int(meta["k"])
        self.num_shards = int(meta["num_shards"])
        self.gateway_ids = arrays["gateway_ids"]
        self.gateway_dists = arrays["gateway_dists"]
        self.net_ids = arrays["net_ids"]
        self._gw_slot = arrays["gw_slot"]
        prefix = "sub."
        sub_arrays = {name[len(prefix):]: arr for name, arr in arrays.items()
                      if name.startswith(prefix)}
        self._sub = TZIndex._from_pack(meta["sub"], sub_arrays)
        self._labels = None
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CDGIndex):
            return NotImplemented
        return (self.n == other.n and self.eps == other.eps
                and self.k == other.k
                and np.array_equal(self.gateway_ids, other.gateway_ids)
                and np.array_equal(self.gateway_dists, other.gateway_dists)
                and self.labels == other.labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CDGIndex(n={self.n}, net={self.net_ids.size}, "
                f"nnz={self.nnz()}, shards={self.num_shards})")


# ----------------------------------------------------------------------
# gracefully degrading (Theorem 4.8)
# ----------------------------------------------------------------------
class GracefulIndex(_BaseIndex):
    """One :class:`CDGIndex` per ε-component; a batch takes the
    component-wise minimum — the same floats as
    :meth:`~repro.slack.graceful.GracefulSketch.estimate_to`.

    A pair is unresolved exactly when *any* component is unresolved for
    it, matching the single-pair ``min`` over component estimates (which
    consumes every component).  Shard ``s`` of this store is the union of
    shard ``s`` across the component sub-indexes, so one worker still
    owns one landmark shard end to end.

    :param sketches: one :class:`~repro.slack.graceful.GracefulSketch`
        per node, indexed by node ID.
    :param num_shards: landmark shard count for every component.
    :raises ConfigError: on an empty set, a non-graceful sketch, or
        mismatched component counts.
    """

    def __init__(self, sketches: Sequence[GracefulSketch],
                 num_shards: int = 1):
        if not sketches:
            raise ConfigError("cannot index an empty sketch set")
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        for s in sketches:
            if not isinstance(s, GracefulSketch):
                raise ConfigError(
                    f"GracefulIndex only indexes GracefulSketch, "
                    f"got {type(s).__name__}")
        levels = len(sketches[0].components)
        for s in sketches:
            if len(s.components) != levels:
                raise ConfigError(
                    f"mismatched graceful sketches: node {s.node} has "
                    f"{len(s.components)} components, expected {levels}")
        if levels == 0:
            raise ConfigError("graceful sketches need >= 1 component")
        self.n = len(sketches)
        self.num_shards = int(num_shards)
        #: per-ε-level CDG stores, ordered by schedule index
        self.components = [
            CDGIndex([s.components[i] for s in sketches],
                     num_shards=self.num_shards)
            for i in range(levels)]

    def nnz(self) -> int:
        """Total stored entries across all components."""
        return sum(c.nnz() for c in self.components)

    def shard_sizes(self) -> list[int]:
        """Per-shard entry count summed across components."""
        per = [c.shard_sizes() for c in self.components]
        return [sum(sizes[s] for sizes in per)
                for s in range(self.num_shards)]

    # ------------------------------------------------------------------
    def plan(self, us: np.ndarray, vs: np.ndarray) -> tuple[Any, list]:
        """Plan every component's sub-batch; shard ``s``'s request is the
        tuple of the components' shard-``s`` requests."""
        us, vs = _validated_pairs(us, vs, self.n)
        states, per_comp = [], []
        for comp in self.components:
            # validated once above — components share this store's id space
            st, reqs = comp._plan_checked(us, vs)
            states.append(st)
            per_comp.append(reqs)
        requests = [tuple(per_comp[i][s] for i in range(len(self.components)))
                    for s in range(self.num_shards)]
        return (us, vs, states), requests

    def shard_answer(self, shard: int, request: Any) -> Any:
        """Serve shard ``shard`` of every component."""
        return tuple(comp.shard_answer(shard, r)
                     for comp, r in zip(self.components, request))

    def finish(self, state: Any, responses: list) -> np.ndarray:
        """Component-wise minimum (any unresolved component raises, as the
        single-pair ``min`` over a raising generator would)."""
        us, vs, states = state
        est: Optional[np.ndarray] = None
        for i, comp in enumerate(self.components):
            part = comp.finish(states[i], [responses[s][i]
                                           for s in range(self.num_shards)])
            est = part if est is None else np.minimum(est, part)
        return est

    # ------------------------------------------------------------------
    # buffer-pack split
    # ------------------------------------------------------------------
    def pack_arrays(self) -> dict[str, np.ndarray]:
        """Every component's arrays, namespaced ``c<i>.*``."""
        out: dict[str, np.ndarray] = {}
        for i, comp in enumerate(self.components):
            for name, arr in comp.pack_arrays().items():
                out[f"c{i}.{name}"] = arr
        return out

    def pack_meta(self) -> dict:
        """The scalar state, one nested meta per ε-component."""
        return {"n": self.n, "num_shards": self.num_shards,
                "components": [c.pack_meta() for c in self.components]}

    @classmethod
    def _from_pack(cls, meta: dict, arrays) -> "GracefulIndex":
        """Rebuild every component as a view over its array slice."""
        self = cls.__new__(cls)
        self.n = int(meta["n"])
        self.num_shards = int(meta["num_shards"])
        self.components = []
        for i, comp_meta in enumerate(meta["components"]):
            prefix = f"c{i}."
            comp_arrays = {name[len(prefix):]: arr
                           for name, arr in arrays.items()
                           if name.startswith(prefix)}
            self.components.append(CDGIndex._from_pack(comp_meta,
                                                       comp_arrays))
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GracefulIndex):
            return NotImplemented
        return self.n == other.n and self.components == other.components

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GracefulIndex(n={self.n}, "
                f"components={len(self.components)}, nnz={self.nnz()}, "
                f"shards={self.num_shards})")


# ----------------------------------------------------------------------
# the factory
# ----------------------------------------------------------------------
#: sketch type -> (scheme name, index class); the single source of truth
#: for which store serves which scheme
INDEX_TYPES: dict[type, tuple[str, type]] = {
    TZSketch: ("tz", TZIndex),
    Stretch3Sketch: ("stretch3", Stretch3Index),
    CDGSketch: ("cdg", CDGIndex),
    GracefulSketch: ("graceful", GracefulIndex),
}


def index_class_for(sketches: Sequence[Any]) -> Optional[type]:
    """The :class:`IndexStore` class serving this sketch set, or ``None``
    when the set is empty, mixed, or of an unknown type."""
    if not sketches:
        return None
    entry = INDEX_TYPES.get(type(sketches[0]))
    if entry is None:
        return None
    first = type(sketches[0])
    if not all(isinstance(s, first) for s in sketches):
        return None
    return entry[1]


def scheme_name_of(sketches: Sequence[Any]) -> Optional[str]:
    """The registry name (``"tz"`` …) of a homogeneous sketch set, or
    ``None`` when unrecognized."""
    if index_class_for(sketches) is None:
        return None
    return INDEX_TYPES[type(sketches[0])][0]


def scheme_name_of_index(index: IndexStore) -> Optional[str]:
    """The registry name (``"tz"`` …) behind a built store, or ``None``."""
    tag = INDEX_TAGS.get(type(index))
    return tag[: -len("_index")] if tag else None


def build_index(sketches: Sequence[Any], num_shards: int = 1) -> IndexStore:
    """Build the right :class:`IndexStore` for a homogeneous sketch set.

    :raises ConfigError: when no index class serves this set (empty,
        mixed types, or an unknown sketch type).
    """
    cls = index_class_for(sketches)
    if cls is None:
        kinds = sorted({type(s).__name__ for s in sketches}) or ["(empty)"]
        raise ConfigError(
            f"no batched index for this sketch set ({', '.join(kinds)}); "
            f"indexable types: "
            f"{', '.join(t.__name__ for t in INDEX_TYPES)}")
    return cls(sketches, num_shards=num_shards)


def refresh_index(index: IndexStore, sketches: Sequence[Any],
                  touched: Iterable[int]) -> IndexStore:
    """A new store serving ``sketches``, where only the ``touched``
    owners differ from what ``index`` serves — the index-side
    ``apply_updates`` path of the dynamic-update subsystem.

    :class:`TZIndex` takes the shard-surgical route
    (:meth:`TZIndex.apply_sketch_updates`): clean landmark shards are
    shared with the old store by reference and only affected shards are
    rebuilt.  Other store types (whose layouts couple owners across the
    whole table) are rebuilt from the sketch list; either way the old
    store object is left untouched and the result is exactly
    ``build_index(sketches, num_shards=index.num_shards)``.
    """
    touched = sorted(int(u) for u in touched)
    if not touched:
        return index
    if isinstance(index, TZIndex):
        try:
            return index.apply_sketch_updates(
                {u: sketches[u] for u in touched})
        except ConfigError:  # layout drifted — take the full rebuild
            pass
    return build_index(sketches, num_shards=index.num_shards)


def _empty_shard() -> _Shard:
    """A landmark shard with no entries (the canonical empty layout —
    exactly what :class:`TZIndex` builds when no entry routes to a
    shard, so restricted and partially-built stores are byte-identical)."""
    keys = np.empty(0, dtype=np.int64)
    slot_key, slot_idx, mask, shift = _build_hash(keys)
    return _Shard(keys=keys, dists=np.empty(0, dtype=np.float64),
                  levels=np.empty(0, dtype=np.int64),
                  slot_key=slot_key, slot_idx=slot_idx, mask=mask,
                  shift=shift)


def restrict_index_shards(index: IndexStore, lo: int, hi: int) -> IndexStore:
    """A new store serving only landmark shards ``[lo, hi)`` — the unit a
    fleet host owns (``repro serve --shard-range LO:HI``).

    Router state (pivot tables, the dense top block, gateway arrays, net
    universes) is kept in full, so ``plan`` and ``finish`` on the
    restricted store behave exactly like the original's; only the
    shard-local tables outside the range are replaced by canonical empty
    ones.  ``shard_answer`` for an owned shard is bit-identical to the
    full store's, and the restriction is idempotent.  ``[0, S)`` returns
    the store itself unchanged.

    :raises ConfigError: on an invalid range or an unknown store type.
    """
    S = index.num_shards
    lo, hi = int(lo), int(hi)
    if not (0 <= lo < hi <= S):
        raise ConfigError(
            f"shard range [{lo}, {hi}) invalid for {S} shards")
    if (lo, hi) == (0, S):
        return index
    if isinstance(index, TZIndex):
        new = TZIndex.__new__(TZIndex)
        new.n, new.k, new.num_shards = index.n, index.k, S
        new.dense_top = index.dense_top
        new.sentinel_pivots = index.sentinel_pivots
        new.pivot_ids = index.pivot_ids
        new.pivot_dists = index.pivot_dists
        new.top_ids = index.top_ids
        new.top_col = index.top_col
        new.top_dist = index.top_dist
        new.shards = [sh if lo <= s < hi else _empty_shard()
                      for s, sh in enumerate(index.shards)]
        return new
    if isinstance(index, Stretch3Index):
        new = Stretch3Index.__new__(Stretch3Index)
        new.n, new.eps, new.num_shards = index.n, index.eps, S
        new.net_ids = index.net_ids
        dist = np.array(index.dist)
        for s, cols in enumerate(index._shard_cols):
            if not (lo <= s < hi):
                dist[:, cols] = np.inf
        new.dist = dist
        new._shard_cols = index._shard_cols
        return new
    if isinstance(index, CDGIndex):
        new = CDGIndex.__new__(CDGIndex)
        new.n, new.eps, new.k = index.n, index.eps, index.k
        new.num_shards = S
        new.gateway_ids = index.gateway_ids
        new.gateway_dists = index.gateway_dists
        new.net_ids = index.net_ids
        new._gw_slot = index._gw_slot
        new._sub = restrict_index_shards(index._sub, lo, hi)
        new._labels = None
        return new
    if isinstance(index, GracefulIndex):
        new = GracefulIndex.__new__(GracefulIndex)
        new.n, new.num_shards = index.n, S
        new.components = [restrict_index_shards(c, lo, hi)
                          for c in index.components]
        return new
    raise ConfigError(
        f"cannot shard-restrict a {type(index).__name__}")


# ----------------------------------------------------------------------
# buffer-pack plumbing: any store <-> (tag, meta, named arrays)
# ----------------------------------------------------------------------
#: index class -> serialization/pack type tag
INDEX_TAGS: dict[type, str] = {
    TZIndex: "tz_index",
    Stretch3Index: "stretch3_index",
    CDGIndex: "cdg_index",
    GracefulIndex: "graceful_index",
}
_TAG_TO_CLASS = {tag: cls for cls, tag in INDEX_TAGS.items()}


def index_to_pack(index: IndexStore, backing: str = "heap", *,
                  path: Optional[str] = None,
                  delete_file: bool = False) -> "PackedIndex":
    """Split any store into its physical arrays, copied once into a
    :class:`~repro.service.buffers.BufferPack` of the chosen backing.

    :param backing: ``"heap"`` or ``"mmap"``.
    :param path: target file for ``"mmap"``.
    :param delete_file: delete the mmap file on pack close.
    :raises ConfigError: for a store type without a pack encoding.
    """
    from repro.service.buffers import BufferPack, PackedIndex

    tag = INDEX_TAGS.get(type(index))
    if tag is None:
        raise ConfigError(
            f"no buffer-pack encoding for {type(index).__name__}")
    pack = BufferPack.from_arrays(index.pack_arrays(), backing=backing,
                                  path=path, delete_file=delete_file)
    return PackedIndex(tag=tag, meta=index.pack_meta(), pack=pack)


def index_from_pack(packed) -> IndexStore:
    """Rebuild a store as a pure-logic view over a pack — zero-copy,
    bit-identical answers for any backing.

    Accepts a :class:`~repro.service.buffers.PackedIndex` or a bare
    ``(tag, meta, BufferPack)`` triple.  The store's arrays are views
    that keep the pack's buffer (heap bytes or file mapping) alive for
    as long as the store lives.
    """
    tag, meta, pack = ((packed.tag, packed.meta, packed.pack)
                       if hasattr(packed, "pack") else packed)
    cls = _TAG_TO_CLASS.get(tag)
    if cls is None:
        raise ConfigError(f"unknown packed index tag {tag!r}")
    return cls._from_pack(meta, pack.as_dict())
