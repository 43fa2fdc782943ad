"""Pre-indexed sketch stores behind the batched query engine.

Every scheme in the library has a vectorized index here, all conforming to
the :class:`IndexStore` protocol:

* :class:`TZIndex` — Thorup–Zwick labels flattened into dense pivot/top
  tables plus one hashed bunch table behind a miss filter.
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

A lone pair is the paper's own query and skips the batch machinery:
``estimate(u, v)`` — and the engine's batch of one — is the store's
scalar ``_estimate_checked`` over the same arrays (TZ: Lemma 3.2's level
scan with one ``item`` read per cell it needs, behind the same miss
filter; CDG: that scan between the gateway labels plus the two legs;
graceful: the min over its components; stretch-3: one row sum and min).
It returns the batch path's float bit for bit, and its ``QueryError``.

Every store answers a batch in three steps: ``_plan_checked(ends) →
(state, request)``, ``answer(request) → response`` (the one kernel
entry, pure) and ``_finish(state, response) → answers``.  None of them
reads ``num_shards``: the shard count is a layout parameter of the RPIX
container (the order of a few stored rows and columns), and neither
the answers nor their cost depend on it (dataflow diagram:
``docs/architecture.md``).

Notes on the TZ layout (the template the other stores reuse):

* ``pivot_ids`` / ``pivot_dists`` — dense ``(n, k)`` tables of the pivot
  entries ``p_i(u), d(u, p_i(u))``.
* a **dense top-level table** — by Lemma 3.2's backstop, ``B_{k-1}(v)``
  contains *all* of ``A_{k-1}`` for every ``v`` (the level-``k`` threshold
  is infinite), so the level-``k-1`` bunch entries form a complete
  ``n x |A_{k-1}|`` distance matrix; a top-level probe is a plain array
  gather instead of a search.
* **one bunch table** for the sub-top levels — every remaining bunch
  entry ``w ∈ B_i(u)``, ``i < k-1``, is one row ``(key, distance,
  level)`` keyed by the composite integer ``u * n + w``.  Rows are
  sorted by ``(landmark shard, key)``, a landmark ``w`` living in shard
  ``w mod S``; ``bounds`` holds the S+1 shard offsets, so a shard is
  the row range ``bounds[s]:bounds[s+1]`` — a layout, not a separate
  structure.
* **one hash directory** (open addressing, ``slot_key`` / ``slot_idx``)
  over every key, so a batch of membership probes is one kernel call.
* **one miss filter** in front of it — a blocked Bloom filter derived
  from the resident keys at load, never stored.  ``E|B_i(v)| <= n^{1/k}``
  against n nodes, so nearly every ``p_i(u) ∈ B_i(v)`` probe is absent:
  the filter proves it in one gather; only what it passes walks on.

The dense split requires that level-``k-1`` entries and sub-top entries
never share a landmark — true for every honest TZ construction, where an
entry's level is the landmark's own hierarchy level.  Hand-crafted sketch
sets violating this are detected at build time and stored fully sharded
(slower, still exact).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import (TYPE_CHECKING, Any, Iterable, Optional, Protocol,
                    Sequence, runtime_checkable)

import numpy as np

from repro.errors import ConfigError, QueryError
from repro.tz.sketch import TZSketch

if TYPE_CHECKING:
    from repro.slack.cdg import CDGSketch
    from repro.slack.graceful import GracefulSketch
    from repro.slack.stretch3 import Stretch3Sketch

_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)  # Fibonacci hashing constant
#: the same hash in Python ints (a one-key probe; numpy scalars would
#: warn on the wrap-around the uint64 arrays do silently)
_HASH_MULT_INT, _U64 = int(_HASH_MULT), (1 << 64) - 1

#: cells of the one windowed gather that ends a TZ probe (see
#: :meth:`TZIndex._probe`): about what two more rounds of the walk cost
_WINDOW_CELLS = 1 << 12

#: resident keys per 64-bit word of a TZ store's miss filter; the word
#: count rounds up to a power of two, so 16-32 bits per key — the knee of
#: the size / false-positive / qps table in CHANGES.md (PR 21): half the
#: size passes 3x the misses, twice the size serves no faster
_FILTER_KEYS_PER_WORD = 4
#: the two filter bits of a key, by the 12 hash bits that choose them
_FILTER_BITS = (np.uint64(1) << (np.arange(4096, dtype=np.uint64) >> 6)
                | np.uint64(1) << (np.arange(4096, dtype=np.uint64) & 63))
_PICK_BITS, _PICK_MASK = np.uint64(12), np.uint64(4095)

#: cells of one ``(rows, columns)`` gather block of the stretch-3 kernel
#: (float64, so 512 KB per temporary): larger batches are cut into row
#: blocks so the gathered rows are still cache-resident when reduced
_BLOCK_CELLS = 1 << 16


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
       the batch would raise it singly, tagged with the first such
       batch row (``exc.row``).
    2. **plan → answer → finish** — ``estimate_many`` is equivalent
       to::

           state, request = store._plan_checked(validated_pairs(us, vs, n))
           answers = store._finish(state, store.answer(request))

       ``answer`` is pure (it reads the store, writes nothing shared),
       so it runs on any thread.  A probe that finds nothing answers
       the canonical ``(0.0, -1)``, so equal stores give byte-equal
       responses.  A pair's answer depends on that pair only (any cut
       of a batch gives the same floats), never on S.
    """

    n: int
    num_shards: int

    def estimate_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Batched distance estimates for equal-length id arrays."""
        ...

    def estimate(self, u: int, v: int) -> float:
        """The single-pair query: one float, bit-identical to
        :meth:`estimate_many` on that pair, errors included."""
        ...

    def _estimate_checked(self, u: int, v: int) -> float:
        """:meth:`estimate` on two ids the caller range-checked — what
        the engine answers a one-pair batch with (a
        :class:`~repro.errors.QueryError` carries ``row`` 0)."""
        ...

    def nnz(self) -> int:
        """Total number of stored entries."""
        ...

    def shard_sizes(self) -> list[int]:
        """Stored entry count per landmark shard."""
        ...

    def _plan_checked(self, ends: np.ndarray) -> tuple[Any, Any]:
        """What ``_finish`` needs and the batch's one request, from the
        ``(2, q)`` endpoint array ``[us; vs]`` the caller validated
        (:func:`pair_columns`)."""
        ...

    def answer(self, request: Any) -> Any:
        """Serve one planned request in one pass (pure; safe on any
        thread)."""
        ...

    def _finish(self, state: Any, response: Any) -> np.ndarray:
        """Combine the response into the final answers."""
        ...


def _check_ids(ids: np.ndarray, n: int) -> None:
    """Every id of an int64 array in ``[0, n)``: one unsigned compare
    checks both bounds (a negative id reads as >= 2^63)."""
    if np.count_nonzero(ids.view(np.uint64) >= n):
        raise QueryError(f"node id out of range [0, {n})")


def validated_pairs(us, vs, n: int) -> np.ndarray:
    """Shared batch validation: two id columns as one ``(2, q)`` int64
    endpoint array ``[us; vs]``, ids in [0, n)."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if us.shape != vs.shape or us.ndim != 1:
        raise QueryError("estimate_many wants two equal-length 1-d arrays")
    ends = np.concatenate((us, vs)).reshape(2, us.size)
    _check_ids(ends, n)
    return ends


def _node_id(x) -> int:
    """A node id as a Python int (never a float, however integral)."""
    try:
        return operator.index(x)
    except TypeError:
        raise ConfigError(f"node ids must be integers, got {x!r}") from None


def checked_pair(u, v, n: int) -> tuple[int, int]:
    """A lone pair's ids as Python ints in ``[0, n)``: a batch's rules
    (:func:`pair_columns`), with the same errors."""
    u, v = _node_id(u), _node_id(v)
    if not (0 <= u < n and 0 <= v < n):
        raise QueryError(f"node id out of range [0, {n})")
    return u, v


def parse_pair_array(pairs, n: int) -> np.ndarray:
    """Normalize a ``dist_many`` workload — any iterable of ``(u, v)``
    pairs or a ``(Q, 2)`` integer array — to an int64 ``(Q, 2)`` array
    (shared by the engine and the tcp client).

    :raises ConfigError: on any other shape, or a non-integer id.
    :raises QueryError: on an id outside int64 (outside ``[0, n)``).
    """
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    arr = np.asarray(pairs)
    if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
        raise ConfigError(
            f"dist_many wants a (Q, 2) pair array, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":
        # floats, or ints no integer dtype holds: checked pair by pair
        rows = pairs.tolist() if isinstance(pairs, np.ndarray) else pairs
        return np.array([checked_pair(u, v, n) for u, v in rows],
                        dtype=np.int64).reshape(-1, 2)
    # a uint64 id >= 2^63 wraps negative: still out of range
    return arr.astype(np.int64, copy=False).reshape(-1, 2)


def pair_columns(pairs, n: int) -> np.ndarray:
    """A ``dist_many`` workload as the validated ``(2, q)`` endpoint
    array ``[us; vs]`` — what a session edge hands ``_plan_checked``, so
    a batch is parsed, copied and checked once: one copy of the ``(q,
    2)`` pairs into stacked columns (each row a contiguous id column),
    range-checked by one compare (ConfigError: bad shape; QueryError: id
    out of range)."""
    ends = np.ascontiguousarray(parse_pair_array(pairs, n).T)
    _check_ids(ends, n)
    return ends


def _unresolved_error(message: str, row: int) -> QueryError:
    """A QueryError tagged with the offending batch row (wrapping stores
    use the tag to re-raise with their own node ids)."""
    err = QueryError(message)
    err.row = row
    return err


def _prefixed(prefix: str, arrays: dict) -> dict:
    """A nested store's arrays under its namespace in the parent's."""
    return {prefix + name: arr for name, arr in arrays.items()}


def _unprefixed(prefix: str, arrays) -> dict:
    """Inverse of :func:`_prefixed`: the arrays of one namespace."""
    return {name[len(prefix):]: arr for name, arr in arrays.items()
            if name.startswith(prefix)}


class _BaseIndex:
    """Shared driver: the one way a store comes to hold state, and
    ``estimate_many`` / ``estimate`` over the store's own steps.

    A store's physical form is ``(meta, arrays)`` — JSON-compatible
    scalars plus named contiguous arrays, what :meth:`pack_meta` /
    :meth:`pack_arrays` return and an RPIX container holds.  The
    sketch constructor (:meth:`_flatten`), the container loader and
    incremental refresh each produce that pair and hand it to
    :meth:`_install`, which adopts the arrays as they are (views, no
    copies) and derives everything else.
    """

    #: registry name of the scheme served (``"tz"`` …)
    scheme: str

    def __init__(self, sketches: Sequence[Any], num_shards: int = 1):
        if not sketches:
            raise ConfigError("cannot index an empty sketch set")
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        self._install(*self._flatten(sketches, int(num_shards)))

    @classmethod
    def _from_pack(cls, meta: dict, arrays):
        """The store over already-flattened state — no copies,
        bit-identical answers wherever the arrays' bytes live.

        :raises KeyError: when ``meta`` / ``arrays`` lack an entry.
        :raises ConfigError: when the arrays' shapes contradict it.
        """
        self = cls.__new__(cls)
        self._install(meta, arrays)
        return self

    def _consistent(self, ok: bool) -> None:
        """Called by ``_install`` with the shape relations its arrays
        must satisfy (a corrupt container's need not)."""
        if not ok:
            raise ConfigError(f"{type(self).__name__} arrays do not have "
                              f"the shapes their meta implies")

    def estimate_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Batched estimates, bit-identical to the single-pair query."""
        state, request = self._plan_checked(validated_pairs(us, vs, self.n))
        return self._finish(state, self.answer(request))

    # the three steps in list form — a batch's one request in a list,
    # its one response in a list — as ``bench/workloads.py`` drives them
    # by hand on a traced run; they go once the benchmark stops
    # calling them
    def plan(self, us: np.ndarray, vs: np.ndarray) -> tuple[Any, list]:
        """Validate a batch and plan it: ``(state, [request])``."""
        state, request = self._plan_checked(validated_pairs(us, vs, self.n))
        return state, [request]

    def shard_answer(self, shard: int, request: Any) -> Any:
        """:meth:`answer` (``shard`` is not read)."""
        return self.answer(request)

    def finish(self, state: Any, responses: list) -> np.ndarray:
        """:meth:`_finish` on the one response of :meth:`plan`'s
        request."""
        (response,) = responses
        return self._finish(state, response)

    def estimate(self, u: int, v: int) -> float:
        """The single-pair query: ids checked, then the store's scalar
        ``_estimate_checked``."""
        return self._estimate_checked(*checked_pair(u, v, self.n))


# ----------------------------------------------------------------------
# Thorup–Zwick
# ----------------------------------------------------------------------
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


def _bunch_table(keys: np.ndarray, dists: np.ndarray, levels: np.ndarray,
                 n: int, num_shards: int) -> dict[str, np.ndarray]:
    """The stored form of a set of sub-top entries: rows sorted by
    ``(landmark shard, key)``, the S+1 shard offsets, and the directory
    over every key.  ``dists`` / ``levels`` carry one trailing **absent
    row** ``(0.0, -1)``: an empty directory slot points at -1, which
    wraps to it, so a probe that finds nothing gathers the canonical
    answer instead of branching."""
    shard_of = keys % n % num_shards
    order = np.lexsort((keys, shard_of))
    keys = keys[order]
    slot_key, slot_idx = _build_hash(keys)
    return {"keys": keys,
            "dists": np.append(dists[order], 0.0),
            "levels": np.append(levels[order], np.int64(-1)),
            "bounds": np.searchsorted(shard_of[order],
                                      np.arange(num_shards + 1)),
            "slot_key": slot_key, "slot_idx": slot_idx}


def _build_hash(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Open-addressing directory ``(slot_key, slot_idx)`` over composite
    keys: power-of-two table at load factor <= 0.5, linear probing from
    the Fibonacci hash of the key; an empty slot is keyed -1 and points
    at row -1.  Probing costs 1-3 gathers — beats binary search, whose
    ~log2(nnz) dependent accesses dominate the batched lookup profile.
    """
    size = 1
    while size < max(2, 2 * keys.size):
        size <<= 1
    mask, shift = _hash_params(size)
    slot_key = np.full(size, -1, dtype=np.int64)
    slot_idx = np.full(size, -1, dtype=np.int64)
    cur = ((keys.view(np.uint64) * _HASH_MULT) >> shift).view(np.int64)
    pend = np.arange(keys.size)
    # scratch: per slot, the first pending entry that wants it this round
    claim = np.full(size, keys.size, dtype=np.int64)
    while pend.size:
        slots = cur[pend]
        free = np.flatnonzero(slot_key[slots] == -1)
        wanted = slots[free]
        np.minimum.at(claim, wanted, free)
        won = claim[wanted] == free
        claim[wanted] = keys.size
        winners = free[won]
        slot_key[wanted[won]] = keys[pend[winners]]
        slot_idx[wanted[won]] = pend[winners]
        placed = np.zeros(pend.size, dtype=bool)
        placed[winners] = True
        pend = pend[~placed]
        cur[pend] = (cur[pend] + 1) & mask
    return slot_key, slot_idx


def _hash_params(size: int) -> tuple[int, np.uint64]:
    """``(mask, shift)`` of a directory of ``size`` (a power of two)
    slots: a key's home slot is the top ``log2(size)`` bits of its
    Fibonacci hash."""
    return size - 1, np.uint64(64 - size.bit_length() + 1)


def _miss_filter(keys: np.ndarray) -> tuple[np.ndarray, np.uint64]:
    """``(words, shift)`` of a single-word blocked Bloom filter over
    ``keys``: a key sets two bits of one ``uint64`` word, all three
    chosen by its Fibonacci hash — the word by the top bits (``h >>
    shift``), the bits by the twelve below.  No false negatives; about
    1 % of absent keys pass.  Built in row blocks, never stored."""
    words = 2
    while words * _FILTER_KEYS_PER_WORD < keys.size:
        words <<= 1
    shift = _hash_params(words)[1]
    filt = np.zeros(words, dtype=np.uint64)
    for i in range(0, keys.size, _BLOCK_CELLS):
        h = keys[i:i + _BLOCK_CELLS].view(np.uint64) * _HASH_MULT
        np.bitwise_or.at(filt, (h >> shift).view(np.int64),
                         _filter_bits(h, shift - _PICK_BITS))
    return filt, shift


def _filter_bits(h: np.ndarray, pick: np.uint64) -> np.ndarray:
    """Each hash's two-bit mask in its filter word, chosen by the twelve
    hash bits from ``pick`` up (``pick`` = the word shift minus 12)."""
    return _FILTER_BITS.take(((h >> pick) & _PICK_MASK).view(np.int64))


@dataclass
class _TZPlan:
    """In-flight state of one batched TZ query (master side only)."""

    ends: np.ndarray      # (2, q) endpoints [us; vs]
    hit: np.ndarray       # (k, 2, q) bool, top level prefilled if dense
    cand: np.ndarray      # (k, 2, q) float64, ditto
    via: np.ndarray       # (kk, 2, q) view of the pivot distances awaiting
    #                       probe sums, kk the levels probed in the bunch
    #                       table


class TZIndex(_BaseIndex):
    """Flat-array index over a TZ sketch set, built for batched queries.

    A batch pays for its pairs, not for numpy call overhead: it arrives
    as one stacked ``(2, q)`` endpoint array, so ``plan`` reads each
    per-node table (pivot ids, pivot distances, top-pivot columns) with
    one gather for both ends and writes every probe key with one add;
    ``answer`` walks the directory only when the miss filter passes a
    key; ``finish`` takes the first hit with one ``copyto`` per check
    and finds the unresolved pairs as the NaNs left, with no Python-level
    reductions.

    :param sketches: one :class:`~repro.tz.sketch.TZSketch` per node,
        indexed by node ID.
    :param num_shards: number of landmark shards (``>= 1``).  Answers are
        independent of the shard count; it only changes the order of the
        bunch table's rows.
    :raises ConfigError: on an empty set, a non-TZ sketch, mixed ``k``,
        or ``num_shards < 1``.
    """

    scheme = "tz"

    @staticmethod
    def _flatten(sketches: Sequence[TZSketch], num_shards: int,
                 ) -> tuple[dict, dict]:
        """``(meta, arrays)`` of a sketch set, validated."""
        n = len(sketches)
        k = sketches[0].k
        for s in sketches:
            if not isinstance(s, TZSketch):
                raise ConfigError(
                    f"TZIndex only indexes TZSketch, got {type(s).__name__}")
            if s.k != k:
                raise ConfigError(
                    f"mixed k in sketch set: {s.k} vs {k} (node {s.node})")

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
        dense_top = not (has_top & has_sub).any()
        top_ids = (np.flatnonzero(has_top) if dense_top
                   else np.empty(0, dtype=np.int64))
        top_col = np.full(n, -1, dtype=np.int64)
        top_col[top_ids] = np.arange(top_ids.size)
        top_dist = np.full((n, top_ids.size), np.inf, dtype=np.float64)
        dense = top_col[landmarks] >= 0
        top_dist[owners[dense], top_col[landmarks[dense]]] = dists[dense]

        pivots = np.asarray([s.pivots for s in sketches], dtype=np.float64)
        pivot_ids = pivots[:, :, 0].astype(np.int64)
        sub = ~dense
        return ({"n": n, "k": k, "num_shards": num_shards,
                 "dense_top": dense_top,
                 "sentinel_pivots": bool((pivot_ids < 0).any())},
                {"pivot_ids": pivot_ids,
                 "pivot_dists": np.ascontiguousarray(pivots[:, :, 1]),
                 "top_ids": top_ids, "top_col": top_col,
                 "top_dist": top_dist,
                 **_bunch_table(owners[sub] * n + landmarks[sub], dists[sub],
                                levels[sub], n, num_shards)})

    def _install(self, meta: dict, arrays) -> None:
        """Adopt the stored state — exactly what :meth:`pack_meta` and
        :meth:`pack_arrays` hold, as views, no copies — and derive the
        per-node tables ``plan`` reads (computed here, never stored)."""
        self.n = int(meta["n"])
        self.k = int(meta["k"])
        self.num_shards = int(meta["num_shards"])
        self.dense_top = bool(meta["dense_top"])
        #: True when any pivot is the INF_KEY sentinel (-1, inf) — only on
        #: disconnected graphs; the batch path then masks sentinel probes
        self.sentinel_pivots = bool(meta["sentinel_pivots"])
        self.pivot_ids = arrays["pivot_ids"]
        self.pivot_dists = arrays["pivot_dists"]
        self.top_ids = arrays["top_ids"]
        #: column of each top landmark in the dense table (-1 elsewhere)
        self.top_col = arrays["top_col"]
        #: dense ``d(v, w)`` for top landmarks; +inf marks a (pathological)
        #: missing entry so the probe correctly reports "not found"
        self.top_dist = arrays["top_dist"]
        #: the sub-top entries, sorted by ``(landmark shard, key)``;
        #: ``dists`` / ``levels`` end with the absent row ``(0.0, -1)``
        self.keys = arrays["keys"]
        self.dists = arrays["dists"]
        self.levels = arrays["levels"]
        #: shard ``s`` is rows ``bounds[s]:bounds[s + 1]``
        self.bounds = arrays["bounds"]
        self.slot_key = arrays["slot_key"]
        self.slot_idx = arrays["slot_idx"]
        n, S, slots = self.n, self.num_shards, self.slot_key.size
        self._consistent(
            self.pivot_ids.shape == self.pivot_dists.shape == (n, self.k)
            and self.top_col.shape == (n,) and self.top_ids.ndim == 1
            and self.top_dist.shape == (n, self.top_ids.size)
            and self.keys.ndim == 1 and self.bounds.shape == (S + 1,)
            and self.dists.shape == self.levels.shape == (self.keys.size + 1,)
            and self.slot_idx.shape == (slots,)
            and slots >= 2 and slots & (slots - 1) == 0)
        self.mask, self.shift = _hash_params(slots)
        #: the miss filter over the resident keys (derived, never stored)
        self._filter, self._filter_shift = _miss_filter(self.keys)
        self._filter_pick = self._filter_shift - _PICK_BITS

        #: levels probed in the bunch table (the rest is dense)
        self._kk = self.k - 1 if self.dense_top else self.k
        #: ``(kk, 1, 1)``: the level each row of ``_finish``'s hits checks
        self._level_rows = np.arange(self._kk, dtype=np.int64)[:, None, None]
        #: the dense table as one row of cells, for a flat ``take``
        self._top_cells = self.top_dist.reshape(-1)
        #: node -> dense-table column of its top pivot (-1: sentinel pivot
        #: or not a top landmark), so a top probe is one 2-d gather
        top = self.pivot_ids[:, self.k - 1]
        self._top_pivot_col = np.where(top >= 0, self.top_col[top], -1)
        #: slot offsets 1..L+1, L the longest occupied run of the
        #: directory: no walk passes more than L occupied slots
        empty = np.flatnonzero(self.slot_key == -1)
        runs = np.diff(empty, append=empty[0] + self.slot_key.size) - 1
        self._window = np.arange(1, int(runs.max()) + 2)
        #: the hash parameters as Python ints, for the scalar probe
        self._scalar_hash = (int(self.shift), self.mask,
                             int(self._filter_shift), int(self._filter_pick))

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    def nnz(self) -> int:
        """Total number of bunch entries (dense top block included)."""
        return self.keys.size + int(np.isfinite(self.top_dist).sum())

    def shard_sizes(self) -> list[int]:
        """Sharded (sub-top) entry count per landmark shard."""
        return np.diff(self.bounds).tolist()

    # ------------------------------------------------------------------
    # the probe kernel
    # ------------------------------------------------------------------
    def _probe(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(dist, level)`` of each composite key — the absent row
        ``(0.0, -1)`` where the key is not resident.  Every membership
        probe of the store goes through here, once per :meth:`answer`.

        Nearly every probe is a miss, so the miss filter is asked
        first — one gather from a cache-resident table — and the output
        is prefilled with the absent row.  Only the keys the filter
        passes (the resident ones and about 1 % of the rest; for a lone
        pair usually none) walk the directory: from the home slot to the
        first slot that holds the key or is empty, whose row index
        gathers the answer (an empty slot's -1 wraps to the absent row).
        A round of the walk costs a dozen numpy calls however few keys
        are pending, so once the pending keys' whole remaining walks fit
        in :data:`_WINDOW_CELLS` cells they are gathered at once.
        """
        h = keys.view(np.uint64) * _HASH_MULT
        bits = _filter_bits(h, self._filter_pick)
        word = self._filter.take((h >> self._filter_shift).view(np.int64))
        np.bitwise_and(word, bits, out=word)
        live = (word == bits).nonzero()[0]
        dist = np.zeros(keys.size, dtype=np.float64)
        level = np.empty(keys.size, dtype=np.int64)
        level.fill(-1)
        if not live.size:
            return dist, level

        keys = keys.take(live)
        cur = (h.take(live) >> self.shift).view(np.int64)
        at = self.slot_key.take(cur)
        pend = ((at != keys) & (at != -1)).nonzero()[0]
        seen = 1  # slots of its walk every pending key has passed
        while pend.size:
            ahead = self._window[:self._window.size - seen]
            if pend.size * ahead.size <= _WINDOW_CELLS:
                slots = (cur[pend][:, None] + ahead) & self.mask
                at = self.slot_key.take(slots)
                stop = (at == keys[pend][:, None]) | (at == -1)
                cur[pend] = slots[np.arange(pend.size), stop.argmax(axis=1)]
                break
            nxt = (cur[pend] + 1) & self.mask
            cur[pend] = nxt
            at = self.slot_key.take(nxt)
            pend = pend[(at != keys[pend]) & (at != -1)]
            seen += 1
        pos = self.slot_idx.take(cur)
        dist[live] = self.dists.take(pos)
        level[live] = self.levels.take(pos)
        return dist, level

    def _probe_one(self, key: int) -> tuple[float, int]:
        """:meth:`_probe` of one non-negative key in Python ints: the
        same Fibonacci hash, filter word and bits, and directory walk,
        each array read one ``item``."""
        shift, mask, filter_shift, pick = self._scalar_hash
        h = key * _HASH_MULT_INT & _U64
        b = h >> pick & 4095
        bits = 1 << (b >> 6) | 1 << (b & 63)
        if self._filter.item(h >> filter_shift) & bits != bits:
            return 0.0, -1
        slot_key, cur = self.slot_key, h >> shift
        while True:
            at = slot_key.item(cur)
            if at == key:
                pos = self.slot_idx.item(cur)
                return self.dists.item(pos), self.levels.item(pos)
            if at == -1:
                return 0.0, -1
            cur = cur + 1 & mask

    def _estimate_checked(self, u: int, v: int) -> float:
        """Lemma 3.2 for one pair, in scalar Python over this store's
        own arrays: the level scan of :meth:`_finish` in its check order
        — at each level ``p_i(u) ∈ B_i(v)``, then ``p_i(v) ∈ B_i(u)`` —
        returning at the first hit, so a lone pair pays a few ``item``
        reads and usually one filter word per probe instead of the
        batch path's forty-odd numpy calls.  Same floats (one IEEE add
        of the same two doubles) and the same :class:`QueryError`."""
        if u == v:
            return 0.0
        n, k, piv, pd = self.n, self.k, self.pivot_ids, self.pivot_dists
        for i in range(self._kk):
            # a sentinel pivot (-1) is never a bunch member
            w = piv.item(u, i)
            if w >= 0:
                d, level = self._probe_one(v * n + w)
                if level == i:
                    return pd.item(u, i) + d
            w = piv.item(v, i)
            if w >= 0:
                d, level = self._probe_one(u * n + w)
                if level == i:
                    return pd.item(v, i) + d
        if self.dense_top:
            top, width = self.k - 1, self.top_ids.size
            for a, b in ((u, v), (v, u)):
                col = self._top_pivot_col.item(a)
                if col >= 0:
                    t = self._top_cells.item(b * width + col)
                    if math.isfinite(t):
                        return pd.item(a, top) + t
        raise _unresolved_error(
            f"labels of {u} and {v} share no level "
            f"(A_{k - 1} membership is inconsistent between them)", 0)

    def answer(self, request: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Probe the table with the planned composite keys in one kernel
        call: ``(dist, level)`` per key, the absent row ``(0.0, -1)``
        for a key that is not resident.  Pure: reads the table and the
        directory, writes nothing shared."""
        return self._probe(request)

    # ------------------------------------------------------------------
    # the batched Lemma 3.2 query, decomposed per the IndexStore contract
    # ------------------------------------------------------------------
    def _plan_checked(self, ends: np.ndarray) -> tuple[_TZPlan, np.ndarray]:
        """Gather pivots and the dense-top hits of a validated batch;
        its sub-top membership probes are one flat key request,
        pair-major.  The endpoints come stacked, ``[us; vs]``, so every
        per-node table is read by one gather for both ends."""
        q, k, kk, n = ends.shape[1], self.k, self._kk, self.n
        piv = self.pivot_ids.take(ends, axis=0)      # (2, q, k)
        pd = self.pivot_dists.take(ends, axis=0)

        # hit/candidate rows in Lemma 3.2's exact check order — (level 0
        # dir 1), (level 0 dir 2), ..., (level k-1 dir 1), (level k-1
        # dir 2) — one contiguous row of q per check; the first hit
        # down the rows wins
        hit = np.empty((k, 2, q), dtype=bool)
        cand = np.empty((k, 2, q), dtype=np.float64)

        # the probes themselves are pair-major, (q, kk, 2): the order of
        # the wire.  They are written through the (2, q, kk) view that
        # matches the gathered pivots, so the add runs along q.  Direction
        # 0 looks u's pivots up in v's bunch, direction 1 the reverse: a
        # probe's owner is the other end (``[::-1]`` swaps the rows)
        keys = np.empty((q, kk, 2), dtype=np.int64)
        by_end = keys.transpose(2, 0, 1)
        landmarks = piv[:, :, :kk]
        np.add((ends * n)[::-1, :, None], landmarks, out=by_end)
        if self.sentinel_pivots:
            # a sentinel pivot (-1, on disconnected graphs) must never
            # match: key -2 equals neither a stored key (>= 0) nor the
            # directory's empty marker, exactly like ``bunch.get(-1)``
            np.copyto(by_end, -2, where=landmarks < 0)

        if self.dense_top:
            top_hit = hit[kk]
            if self.top_ids.size:
                # column -1 (sentinel pivot, or a pivot outside the top
                # block) reads a neighbouring cell, masked out of the hit
                col = self._top_pivot_col.take(ends)
                t = self._top_cells.take(
                    np.add((ends * self.top_ids.size)[::-1], col))
                np.isfinite(t, out=top_hit)
                top_hit &= col >= 0
                np.add(pd[:, :, kk], t, out=cand[kk])
            else:  # degenerate: no top-level entries anywhere
                top_hit.fill(False)
                cand[kk] = np.inf

        return _TZPlan(ends=ends, hit=hit, cand=cand,
                       via=pd[:, :, :kk].transpose(2, 0, 1)), keys.reshape(-1)

    def _finish(self, state: _TZPlan, response: tuple) -> np.ndarray:
        """Fold the probe response into the Lemma 3.2 level scan: first
        hit wins, exactly like the single-pair reference.

        Each check's candidates are copied where it hit into a
        NaN-prefilled answer, from the last check to the first.  A hit's
        candidate is a sum of terms that are finite or +inf, never NaN,
        so the NaNs left are exactly the unresolved pairs."""
        ends = state.ends
        q, kk = ends.shape[1], self._kk
        d, lvl = response
        hit, cand = state.hit, state.cand
        np.equal(lvl.reshape(q, kk, 2).transpose(1, 2, 0), self._level_rows,
                 out=hit[:kk])
        np.add(state.via, d.reshape(q, kk, 2).transpose(1, 2, 0),
               out=cand[:kk])
        est = np.empty(q, dtype=np.float64)
        est.fill(np.nan)
        rows = 2 * self.k
        for row_hit, row_cand in zip(hit.reshape(rows, q)[::-1],
                                     cand.reshape(rows, q)[::-1]):
            np.copyto(est, row_cand, where=row_hit)
        np.copyto(est, 0.0, where=ends[0] == ends[1])
        unresolved = np.isnan(est)
        if np.count_nonzero(unresolved):
            j = int(unresolved.argmax())
            raise _unresolved_error(
                f"labels of {ends[0, j]} and {ends[1, j]} share no level "
                f"(A_{self.k - 1} membership is inconsistent between them)",
                j)
        return est

    # ------------------------------------------------------------------
    # the physical form: what a container holds
    # ------------------------------------------------------------------
    def pack_arrays(self) -> dict[str, np.ndarray]:
        """Every array this store keeps, by name, in container order."""
        return {name: getattr(self, name) for name in (
            "pivot_ids", "pivot_dists", "top_ids", "top_col", "top_dist",
            "keys", "dists", "levels", "bounds", "slot_key", "slot_idx")}

    def pack_meta(self) -> dict:
        """The scalar (non-array) state, JSON-compatible."""
        return {"n": self.n, "k": self.k, "num_shards": self.num_shards,
                "dense_top": self.dense_top,
                "sentinel_pivots": self.sentinel_pivots}

    # ------------------------------------------------------------------
    # incremental refresh (the dynamic-update subsystem's index hook)
    # ------------------------------------------------------------------
    def apply_sketch_updates(self, dirty: dict[int, TZSketch]) -> "TZIndex":
        """A **new** index with the ``dirty`` owners' sketches replaced —
        byte for byte what ``TZIndex(sketches, num_shards)`` builds from
        the updated set, without flattening the clean owners' bunches
        again: their rows are kept, the dirty owners' rows are dropped
        by one mask and the fresh ones merged in by the build's own
        sort, and the directory is rebuilt over the result.  ``self`` is
        never mutated (epoch semantics: readers on the old store are
        unaffected).

        :raises ConfigError: when a replacement sketch is incompatible
            with this index's physical layout (wrong ``k``, or an entry
            whose level disagrees with the dense-top split — callers
            fall back to a full rebuild).
        """
        n, k = self.n, self.k
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

        arrays = self.pack_arrays()
        pivots = np.asarray([s.pivots for s in fresh], dtype=np.float64)
        pivot_ids = arrays["pivot_ids"] = np.array(self.pivot_ids)
        pivot_ids[owners] = pivots[:, :, 0].astype(np.int64)
        arrays["pivot_dists"] = np.array(self.pivot_dists)
        arrays["pivot_dists"][owners] = pivots[:, :, 1]
        top_dist = arrays["top_dist"] = np.array(self.top_dist)
        top_dist[owners, :] = np.inf
        top_dist[own[dense], self.top_col[landmarks[dense]]] = dists[dense]

        is_dirty = np.zeros(n, dtype=bool)
        is_dirty[owners] = True
        keep = ~is_dirty[self.keys // n]
        sub = ~dense
        arrays.update(_bunch_table(
            np.concatenate([self.keys[keep], own[sub] * n + landmarks[sub]]),
            np.concatenate([self.dists[:-1][keep], dists[sub]]),
            np.concatenate([self.levels[:-1][keep], levels[sub]]),
            n, self.num_shards))
        meta = {**self.pack_meta(),
                "sentinel_pivots": bool((pivot_ids < 0).any())}
        return TZIndex._from_pack(meta, arrays)

    # ------------------------------------------------------------------
    # canonical entry columns (serialization / equality)
    # ------------------------------------------------------------------
    def entry_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray]:
        """All bunch entries as ``(owner, landmark, dist, level)`` columns
        in global composite-key order, dense top block included — the
        canonical view, independent of the shard count and of the
        dense/sparse storage split."""
        rows, cols = np.nonzero(np.isfinite(self.top_dist))
        keys = np.concatenate([self.keys, rows * self.n + self.top_ids[cols]])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        return (keys // self.n, keys % self.n,
                np.concatenate([self.dists[:-1],
                                self.top_dist[rows, cols]])[order],
                np.concatenate([self.levels[:-1],
                                np.full(rows.size, self.k - 1)])[order])

    def iter_entries(self) -> Iterable[tuple[int, int, float, int]]:
        """:meth:`entry_columns` as a stream of ``(owner, landmark, dist,
        level)`` tuples."""
        return zip(*(col.tolist() for col in self.entry_columns()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TZIndex):
            return NotImplemented
        return (self.n == other.n and self.k == other.k
                and np.array_equal(self.pivot_ids, other.pivot_ids)
                and np.array_equal(self.pivot_dists, other.pivot_dists)
                and all(map(np.array_equal, self.entry_columns(),
                            other.entry_columns())))

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

    The columns are stored in ``(w % num_shards, w)`` order, so a shard
    is a contiguous column block; a batch takes its min over all columns
    at once, so neither answers nor cost depend on the shard count.

    :param sketches: one :class:`~repro.slack.stretch3.Stretch3Sketch`
        per node, indexed by node ID.
    :param num_shards: number of net-node shards (``>= 1``): the column
        order only.
    :raises ConfigError: on an empty set, a non-stretch3 sketch, mixed
        ``eps``, or ``num_shards < 1``.
    """

    scheme = "stretch3"

    @staticmethod
    def _flatten(sketches: Sequence[Stretch3Sketch], num_shards: int,
                 ) -> tuple[dict, dict]:
        """``(meta, arrays)`` of a sketch set, validated."""
        from repro.slack.stretch3 import Stretch3Sketch

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
        ids = np.asarray(sorted({w for s in sketches for w in s.entries}),
                         dtype=np.int64)
        net_ids = ids[np.lexsort((ids, ids % num_shards))]
        col = {int(w): j for j, w in enumerate(net_ids)}
        dist = np.full((len(sketches), net_ids.size), np.inf,
                       dtype=np.float64)
        for u, s in enumerate(sketches):
            for w, d in s.entries.items():
                dist[u, col[w]] = d
        return ({"n": len(sketches), "eps": eps, "num_shards": num_shards},
                {"net_ids": net_ids, "dist": dist})

    def _install(self, meta: dict, arrays) -> None:
        """Adopt the stored state (see :class:`_BaseIndex`)."""
        self.n = int(meta["n"])
        self.eps = float(meta["eps"])
        self.num_shards = int(meta["num_shards"])
        #: net-node ids labelling the columns of the dense table, in
        #: ``(w mod S, w)`` order — a shard is a column slice
        self.net_ids = arrays["net_ids"]
        #: dense ``d(u, w)``; +inf marks a missing entry
        self.dist = arrays["dist"]
        self._consistent(self.net_ids.ndim == 1
                         and self.dist.shape == (self.n, self.net_ids.size))

    def nnz(self) -> int:
        """Number of stored (finite) node → net-node entries."""
        return int(np.isfinite(self.dist).sum())

    def shard_sizes(self) -> list[int]:
        """Stored entry count per net-node shard (shard ``s`` owns the
        columns of the net nodes ``w`` with ``w % S == s``)."""
        cb = np.searchsorted(self.net_ids % self.num_shards,
                             np.arange(self.num_shards + 1)).tolist()
        return [int(np.isfinite(self.dist[:, a:b]).sum())
                for a, b in zip(cb[:-1], cb[1:])]

    # ------------------------------------------------------------------
    def _plan_checked(self, ends: np.ndarray) -> tuple[Any, tuple]:
        """The request is the pair list itself, and so is the state."""
        pairs = ends[0], ends[1]
        return pairs, pairs

    def answer(self, request: tuple) -> np.ndarray:
        """The per-pair min of ``dist[u] + dist[v]`` over every net-node
        column (+inf where no column gives a finite route), gathered in
        row blocks of :data:`_BLOCK_CELLS` cells so that each block is
        still cache-resident when it is reduced."""
        us, vs = request
        best = np.full(us.size, np.inf)
        width = self.net_ids.size
        step = max(1, _BLOCK_CELLS // max(1, width))
        for i in range(0, us.size if width else 0, step):
            through = self.dist[us[i:i + step]]
            through += self.dist[vs[i:i + step]]
            through.min(axis=1, out=best[i:i + step])
        return best

    def _finish(self, state: Any, best: np.ndarray) -> np.ndarray:
        """QueryError where no net node is shared (exactly when the dict
        loop would have raised)."""
        us, vs = state
        est = np.where(us == vs, 0.0, best)
        bad = (us != vs) & ~np.isfinite(best)
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise _unresolved_error(self._no_route(us[j], vs[j]), j)
        return est

    def _estimate_checked(self, u: int, v: int) -> float:
        """One pair: the min of its two rows' sum (a min is the same
        float however the columns are cut into blocks)."""
        if u == v:
            return 0.0
        best = (float((self.dist[u] + self.dist[v]).min())
                if self.net_ids.size else math.inf)
        if not math.isfinite(best):
            raise _unresolved_error(self._no_route(u, v), 0)
        return best

    @staticmethod
    def _no_route(u: int, v: int) -> str:
        return f"sketches of {int(u)} and {int(v)} share no net node"

    # ------------------------------------------------------------------
    def pack_arrays(self) -> dict[str, np.ndarray]:
        """Every array this store keeps, by name, in container order."""
        return {"net_ids": self.net_ids, "dist": self.dist}

    def pack_meta(self) -> dict:
        """The scalar (non-array) state, JSON-compatible."""
        return {"n": self.n, "eps": self.eps, "num_shards": self.num_shards}

    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterable[tuple[int, int, float]]:
        """Finite entries as ``(owner, net node, dist)``, sorted by
        ``(owner, net node)`` — the canonical serialization stream,
        independent of the shard count."""
        by_id = np.argsort(self.net_ids)
        table = self.dist[:, by_id]
        rows, cols = np.nonzero(np.isfinite(table))
        return zip(rows.tolist(), self.net_ids[by_id][cols].tolist(),
                   table[rows, cols].tolist())

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
    gathers around one TZ sub-batch.  The shard layout is the
    sub-index's.

    :param sketches: one :class:`~repro.slack.cdg.CDGSketch` per node,
        indexed by node ID.
    :param num_shards: landmark shard count of the TZ sub-index.
    :raises ConfigError: on an empty set, a non-CDG sketch, mixed
        ``eps``/``k``, a sketch whose label is not its gateway's, or two
        sketches shipping different labels for the same gateway.
    """

    scheme = "cdg"

    @staticmethod
    def _flatten(sketches: Sequence[CDGSketch], num_shards: int,
                 ) -> tuple[dict, dict]:
        """``(meta, arrays)`` of a sketch set, validated."""
        from repro.slack.cdg import CDGSketch

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

        # compact universe: every id a label mentions (owners, bunch
        # landmarks, non-sentinel pivots), remapped to 0..m-1 so the TZ
        # sub-index wastes no rows on non-net nodes
        universe = set(labels)
        for lbl in labels.values():
            universe.update(lbl.bunch)
            universe.update(p for p, _ in lbl.pivots if p >= 0)
        net_ids = np.asarray(sorted(universe), dtype=np.int64)
        slot = {int(w): j for j, w in enumerate(net_ids)}
        subs = []
        for j, w in enumerate(net_ids):
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
        sub_meta, sub_arrays = TZIndex._flatten(subs, num_shards)
        gateway_ids = np.asarray([s.gateway for s in sketches],
                                 dtype=np.int64)
        return ({"n": len(sketches), "eps": eps, "k": k,
                 "num_shards": num_shards, "sub": sub_meta},
                {"gateway_ids": gateway_ids,
                 "gateway_dists": np.asarray(
                     [s.gateway_dist for s in sketches], dtype=np.float64),
                 "net_ids": net_ids,
                 "gw_slot": np.asarray([slot[g] for g in gateway_ids.tolist()],
                                       dtype=np.int64),
                 **_prefixed("sub.", sub_arrays)})

    def _install(self, meta: dict, arrays) -> None:
        """Adopt the stored state (see :class:`_BaseIndex`)."""
        self.n = int(meta["n"])
        self.eps = float(meta["eps"])
        self.k = int(meta["k"])
        self.num_shards = int(meta["num_shards"])
        self.gateway_ids = arrays["gateway_ids"]
        self.gateway_dists = arrays["gateway_dists"]
        #: original id of each node of the sub-index's compact universe
        self.net_ids = arrays["net_ids"]
        #: per-node slot of the gateway's label in the sub-index
        self._gw_slot = arrays["gw_slot"]
        #: the net labels, over the compact universe
        self._sub = TZIndex._from_pack(meta["sub"],
                                       _unprefixed("sub.", arrays))
        self._consistent(
            self.gateway_ids.shape == self.gateway_dists.shape
            == self._gw_slot.shape == (self.n,)
            and self.net_ids.shape == (self._sub.n,)
            and self._sub.num_shards == self.num_shards)

    def nnz(self) -> int:
        """Stored entries: gateway pairs plus the sub-index's bunches."""
        return self.n + self._sub.nnz()

    def shard_sizes(self) -> list[int]:
        """Sharded entry count per landmark shard of the sub-index."""
        return self._sub.shard_sizes()

    # ------------------------------------------------------------------
    def _plan_checked(self, ends: np.ndarray) -> tuple[Any, np.ndarray]:
        """Plan the gateway-label TZ sub-batch (gateway slots gathered
        from ``_gw_slot`` are valid sub-universe ids by construction:
        one validation per batch, however deep the store nests)."""
        sub_state, request = self._sub._plan_checked(
            self._gw_slot.take(ends))
        return (ends, sub_state), request

    def answer(self, request: np.ndarray) -> tuple:
        """Delegate the probes to the TZ sub-index."""
        return self._sub.answer(request)

    def _finish(self, state: Any, response: tuple) -> np.ndarray:
        """Wrap the sub-index's answers in the gateway legs, re-raising
        unresolved pairs with the original node ids."""
        ends, sub_state = state
        try:
            through = self._sub._finish(sub_state, response)
        except QueryError as exc:
            j = getattr(exc, "row", None)
            if j is None:  # pragma: no cover - defensive
                raise
            raise self._unresolved(*ends[:, j].tolist(), j) from None
        legs = self.gateway_dists.take(ends)
        est = legs[0] + through
        est += legs[1]
        np.copyto(est, 0.0, where=ends[0] == ends[1])
        return est

    def _estimate_checked(self, u: int, v: int) -> float:
        """One pair: the sub-index's scalar scan between the gateways'
        labels, wrapped in the two gateway legs in :meth:`_finish`'s
        order of addition."""
        slot = self._gw_slot
        try:
            through = self._sub._estimate_checked(slot.item(u), slot.item(v))
        except QueryError:
            raise self._unresolved(u, v, 0) from None
        if u == v:
            return 0.0
        legs = self.gateway_dists
        return legs.item(u) + through + legs.item(v)

    def _unresolved(self, u: int, v: int, row: int) -> QueryError:
        return _unresolved_error(
            f"cdg sketches of {u} and {v} share no level (gateways "
            f"{self.gateway_ids[u]} and {self.gateway_ids[v]})", row)

    # ------------------------------------------------------------------
    def pack_arrays(self) -> dict[str, np.ndarray]:
        """Own arrays plus the TZ sub-index's, namespaced ``sub.*``."""
        return {"gateway_ids": self.gateway_ids,
                "gateway_dists": self.gateway_dists,
                "net_ids": self.net_ids, "gw_slot": self._gw_slot,
                **_prefixed("sub.", self._sub.pack_arrays())}

    def pack_meta(self) -> dict:
        """The scalar state, with the sub-index's meta nested."""
        return {"n": self.n, "eps": self.eps, "k": self.k,
                "num_shards": self.num_shards,
                "sub": self._sub.pack_meta()}

    def __eq__(self, other: object) -> bool:
        """Same gateways and same net labels: the compact universe is a
        function of the labels, so equal ``net_ids`` and equal
        sub-indexes are equal label maps."""
        if not isinstance(other, CDGIndex):
            return NotImplemented
        return (self.n == other.n and self.eps == other.eps
                and self.k == other.k
                and np.array_equal(self.gateway_ids, other.gateway_ids)
                and np.array_equal(self.gateway_dists, other.gateway_dists)
                and np.array_equal(self.net_ids, other.net_ids)
                and self._sub == other._sub)

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
    shard ``s`` across the component sub-indexes.

    :param sketches: one :class:`~repro.slack.graceful.GracefulSketch`
        per node, indexed by node ID.
    :param num_shards: landmark shard count for every component.
    :raises ConfigError: on an empty set, a non-graceful sketch, or
        mismatched component counts.
    """

    scheme = "graceful"

    @staticmethod
    def _flatten(sketches: Sequence[GracefulSketch], num_shards: int,
                 ) -> tuple[dict, dict]:
        """``(meta, arrays)`` of a sketch set, validated."""
        from repro.slack.graceful import GracefulSketch

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
        metas, arrays = [], {}
        for i in range(levels):
            meta, part = CDGIndex._flatten(
                [s.components[i] for s in sketches], num_shards)
            metas.append(meta)
            arrays.update(_prefixed(f"c{i}.", part))
        return ({"n": len(sketches), "num_shards": num_shards,
                 "components": metas}, arrays)

    def _install(self, meta: dict, arrays) -> None:
        """Adopt the stored state (see :class:`_BaseIndex`)."""
        self.n = int(meta["n"])
        self.num_shards = int(meta["num_shards"])
        #: per-ε-level CDG stores, ordered by schedule index
        self.components = [
            CDGIndex._from_pack(comp_meta, _unprefixed(f"c{i}.", arrays))
            for i, comp_meta in enumerate(meta["components"])]
        self._consistent(bool(self.components) and all(
            (c.n, c.num_shards) == (self.n, self.num_shards)
            for c in self.components))

    def nnz(self) -> int:
        """Total stored entries across all components."""
        return sum(c.nnz() for c in self.components)

    def shard_sizes(self) -> list[int]:
        """Per-shard entry count summed across components."""
        per = [c.shard_sizes() for c in self.components]
        return [sum(sizes[s] for sizes in per)
                for s in range(self.num_shards)]

    # ------------------------------------------------------------------
    def _plan_checked(self, ends: np.ndarray) -> tuple[tuple, tuple]:
        """Plan every component's sub-batch (they share this store's id
        space); the state is the tuple of the components' states and the
        request the tuple of their requests."""
        states, requests = zip(*(comp._plan_checked(ends)
                                 for comp in self.components))
        return states, requests

    def answer(self, request: tuple) -> tuple:
        """Serve every component's request — one kernel call each."""
        return tuple(comp.answer(r)
                     for comp, r in zip(self.components, request))

    def _finish(self, state: tuple, response: tuple) -> np.ndarray:
        """Component-wise minimum (any unresolved component raises, as the
        single-pair ``min`` over a raising generator would)."""
        est: Optional[np.ndarray] = None
        for comp, st, resp in zip(self.components, state, response):
            part = comp._finish(st, resp)
            est = part if est is None else np.minimum(est, part)
        return est

    def _estimate_checked(self, u: int, v: int) -> float:
        """One pair: the min of the components' scalar queries, the
        first unresolved component's error raised."""
        return min(comp._estimate_checked(u, v) for comp in self.components)

    # ------------------------------------------------------------------
    def pack_arrays(self) -> dict[str, np.ndarray]:
        """Every component's arrays, namespaced ``c<i>.*``."""
        out: dict[str, np.ndarray] = {}
        for i, comp in enumerate(self.components):
            out.update(_prefixed(f"c{i}.", comp.pack_arrays()))
        return out

    def pack_meta(self) -> dict:
        """The scalar state, one nested meta per ε-component."""
        return {"n": self.n, "num_shards": self.num_shards,
                "components": [c.pack_meta() for c in self.components]}

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
#: sketch type -> the store class serving it; the single source of truth
#: for which store serves which scheme (its name is ``cls.scheme``).  A
#: type is keyed by its qualified name, so this module never imports
#: the slack schemes' modules — the construction stack — to serve a
#: container: a sketch's module is loaded wherever the sketch exists
INDEX_TYPES: dict[str, type] = {
    "repro.tz.sketch.TZSketch": TZIndex,
    "repro.slack.stretch3.Stretch3Sketch": Stretch3Index,
    "repro.slack.cdg.CDGSketch": CDGIndex,
    "repro.slack.graceful.GracefulSketch": GracefulIndex,
}


def index_class_for(sketches: Sequence[Any]) -> Optional[type]:
    """The :class:`IndexStore` class serving this sketch set, or ``None``
    when the set is empty, mixed, or of an unknown type."""
    if not sketches:
        return None
    first = type(sketches[0])
    if not all(isinstance(s, first) for s in sketches):
        return None
    return INDEX_TYPES.get(f"{first.__module__}.{first.__qualname__}")


def scheme_name_of_index(index: IndexStore) -> Optional[str]:
    """The registry name (``"tz"`` …) behind a built store, or ``None``."""
    return getattr(type(index), "scheme", None)


#: container type tag -> store class, derived from the registry
_BY_TAG = {cls.scheme + "_index": cls for cls in INDEX_TYPES.values()}


def index_tag(index: IndexStore) -> Optional[str]:
    """The container type tag (``"tz_index"`` …) of a built store, or
    ``None`` for a store no container holds."""
    return next((tag for tag, cls in _BY_TAG.items()
                 if cls is type(index)), None)


def index_from_arrays(tag: str, meta: dict, arrays) -> IndexStore:
    """The store of container type ``tag`` over its flattened state —
    the loader's last step.

    :raises ConfigError: on an unknown tag or inconsistent shapes.
    :raises KeyError: naming the array or meta key that is missing.
    """
    cls = _BY_TAG.get(tag)
    if cls is None:
        raise ConfigError(f"unknown index type tag {tag!r}")
    return cls._from_pack(meta, arrays)


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
            f"{', '.join(t.rsplit('.', 1)[1] for t in INDEX_TYPES)}")
    return cls(sketches, num_shards=num_shards)


def refresh_index(index: IndexStore, sketches: Sequence[Any],
                  touched: Iterable[int]) -> IndexStore:
    """A new store serving ``sketches``, where only the ``touched``
    owners differ from what ``index`` serves — the index-side
    ``apply_updates`` path of the dynamic-update subsystem.

    :class:`TZIndex` keeps the clean owners' rows
    (:meth:`TZIndex.apply_sketch_updates`) and flattens only the
    touched sketches.  Other store types (whose layouts couple owners
    across the whole table) are rebuilt from the sketch list; either
    way the old store object is left untouched and the result is
    exactly ``build_index(sketches, num_shards=index.num_shards)``.
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
