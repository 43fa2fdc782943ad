"""The batched query engine: ``dist_many`` over one index store.

:class:`QueryEngine` is the serving-layer front end.  Every scheme in the
library has a vectorized :class:`~repro.service.index.IndexStore`
(:class:`~repro.service.index.TZIndex`,
:class:`~repro.service.index.Stretch3Index`,
:class:`~repro.service.index.CDGIndex`,
:class:`~repro.service.index.GracefulIndex`), and the engine serves
exactly one such store.  The answers are exactly the ones the
one-pair-at-a-time API produces — batching is a performance feature,
never a semantic one.

A batch is parsed, copied into one ``(2, q)`` endpoint array ``[us;
vs]`` and range-checked once, at this edge
(:func:`~repro.service.index.pair_columns`); the result cache and the
store's ``_plan_checked`` take that array as it is.  Every store
answers a batch as ``plan`` → ``answer`` → ``finish`` and a pair's
answer depends on that pair only, so the engine runs that chain
(:func:`_serve`) over the batch::

    caller                          pool threads (a cut batch, R ranges)
    ------                          ------------------------------------
    _start(store, ends)   ─┬─ pairs [0, q/R)    ─▶ plan → answer → finish ─┐
                           ├─ pairs [q/R, 2q/R) ─▶ plan → answer → finish ─┤
                           └─ …                 ─▶ plan → answer → finish ─┤
    _gather(ticket) ◀─────────── answers, concatenated in pair order ──────┘

A lone pair — the paper's own query — skips the chain and numpy at its
one entry, :meth:`QueryEngine.dist_one_pinned`: Python-int ids, the
cache probed and filled one slot at a time, and a miss answered in the
calling thread by the store's scalar ``_estimate_checked`` (Lemma 3.2's
scan on a TZ store), a few µs against the chain's forty-odd numpy
calls.  A streamed lone pair, cache bypassed, is :func:`_serve_one`.

How a batch runs is the engine's decision, read off the batch and the
host: a batch of q pairs is cut into ``min(cpus, q // RANGE_PAIRS)``
contiguous pair ranges (:data:`RANGE_PAIRS`; ``cpus`` is
:func:`usable_cpus`, read once when the engine is built), and below 2
ranges it runs once, in the calling thread.  A cut batch's ranges are
one task each on the engine's thread pool: the chain is numpy-kernel
work that releases the GIL, so the ranges overlap for real, and a task
sees the caller's own store object — nothing is copied, pickled or
attached.  The cut does not depend on the store's shard count, a layout
parameter of the RPIX container and never a unit of execution.  Any cut
gives the same bytes, so answers are bit-identical whether a batch is
cut or not; a :class:`~repro.errors.QueryError` for an unresolved pair
is raised in the caller, exactly as in-process: the lowest failing
range's, tagged with its row in the whole batch.  The pool is created
by the first batch that is cut, lives as long as the engine and is
joined by :meth:`~QueryEngine.close` (or the engine's context manager);
an engine that never sees a bulk batch starts no thread.  The per-phase
seconds accumulate in one :class:`PhaseTimings`.

Callers do not build engines: :func:`repro.service.client.connect`
(through :class:`~repro.service.server.OracleServer`) normalises
whatever it is given to a store and constructs the engine over it.

**Epochs.**  An epoch is a store.  Given the live
:class:`~repro.service.updates.UpdateableIndex` behind it
(``updateable=``), :meth:`QueryEngine.apply_updates` prepares the next
epoch's store while traffic continues and swaps the ``(store, epoch)``
tuple in whole under the engine lock, so a reader takes a consistent
pair without the lock.  Stores are immutable and a batch — a
``dist_many`` call or one batch of a ``dist_stream`` — reads that pair
once, when it is submitted; its ticket and its pool tasks hold the store
from then on, so it is answered wholly by that epoch whatever swaps
land before it is collected: no torn reads, and nothing to pin or
release.  The result cache is epoch-stamped: it is cleared at the swap,
and a stale batch's write-backs are dropped.

The result cache (:class:`_ResultCache`, a direct-mapped table of
numpy columns probed with one gather per batch) keys on the *ordered* pair
``(u, v)``: the paper's level-scan query is not symmetric under swapping
the endpoints (both directions can hit at the same level with different
routes), and the engine's contract is bit-identity with the single-query
path, so ``(u, v)`` and ``(v, u)`` are cached separately.  A cached
value is the epoch's own float64, so which entries the cache happens to
keep can change the cost of an answer and never the answer.  An engine
given no size takes its store's ``cache_slots``: none where the store's
kernels cost less than a probe and a write-back (TZ, CDG).
"""

from __future__ import annotations

import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Iterable, Iterator, Optional

import numpy as np

from repro.errors import ConfigError, QueryError
from repro.service.index import (_HASH_MULT, _HASH_MULT_INT, _U64,
                                 IndexStore, checked_pair, pair_columns)
from repro.service.session import stream_window

#: pool threads answer the pair ranges of a cut batch; they carry this
#: name prefix so tests (and operators reading a stack dump) can tell
#: them from handler threads — and assert none outlive their engine
THREAD_POOL_PREFIX = "repro-cut"

#: pairs per range of a cut batch: a batch of q pairs runs as
#: ``min(cpus, q // RANGE_PAIRS)`` ranges, in the calling thread below
#: 2 — so a cut starts at 2·RANGE_PAIRS pairs.  Measured, not tunable:
#: the trial table is in ``docs/serving.md`` §5.
RANGE_PAIRS = 1 << 15

#: batches a local stream keeps submitted: double buffering — batch
#: *k+1* is cut and queued while batch *k*'s ranges run
STREAM_DEPTH = 2


@dataclass
class PhaseTimings:
    """Cumulative per-phase wall time across the batches an engine ran.

    ``plan`` / ``shard_answer`` / ``finish`` are the seconds in the
    store's three steps, summed over a batch's pair ranges (one
    in-thread, R on the pool); ``kernel`` is the per-batch **critical
    path** of ``answer``, the slowest range's seconds — equal to
    ``shard_answer`` for a batch run in-thread, ``≈ shard_answer / R``
    for R balanced ranges.  ``ipc`` is the pool's dispatch overhead: the
    wall time from submit until the last range *ended*, minus the slowest
    range's own three steps (0 in-thread, by construction) — what the
    caller does between submitting a batch and collecting it is not in
    it.  ``overlap`` is the double-buffering win of a ``dist_stream``:
    caller-side seconds — batch *k+1*'s submit — spent while batch
    *k*'s ranges were in flight.

    One instance serves an engine for its whole life, hot swaps
    included, and dispatch is re-entrant, so several handler threads
    can be accumulating at once: every update and :meth:`reset` holds
    :attr:`lock`.
    """

    plan: float = 0.0
    shard_answer: float = 0.0
    finish: float = 0.0
    ipc: float = 0.0
    overlap: float = 0.0
    kernel: float = 0.0
    batches: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock,
                                 repr=False, compare=False)

    def reset(self) -> None:
        """Zero every counter, in place."""
        with self.lock:
            self.plan = self.shard_answer = self.finish = 0.0
            self.ipc = self.overlap = self.kernel = 0.0
            self.batches = 0

    def as_dict(self) -> dict:
        return {"plan_seconds": self.plan,
                "shard_answer_seconds": self.shard_answer,
                "finish_seconds": self.finish,
                "ipc_seconds": self.ipc,
                "overlap_seconds": self.overlap,
                "kernel_seconds": self.kernel,
                "batches": self.batches}


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _serve(index: IndexStore, ends: np.ndarray, start: int = 0) -> tuple:
    """plan → answer → finish on ``index`` for the pairs ``ends`` (the
    ``(2, q)`` endpoints) from batch row ``start`` on: ``(answers, plan
    s, answer s, finish s, end stamp)``, the answers replaced by the
    :class:`QueryError` (its ``row`` counted in the whole batch) when a
    pair is unresolved."""
    t0 = perf_counter()
    state, request = index._plan_checked(ends)
    t1 = perf_counter()
    response = index.answer(request)
    t2 = perf_counter()
    try:
        out = index._finish(state, response)
    except QueryError as exc:
        exc.row += start
        out = exc
    t3 = perf_counter()
    return out, t1 - t0, t2 - t1, t3 - t2, t3


def _serve_one(index: IndexStore, ends: np.ndarray) -> tuple:
    """:func:`_serve` for a batch of one pair: the store's single-pair
    query (``_estimate_checked``, Lemma 3.2's scalar scan on a TZ
    store), its seconds booked as the answer's."""
    t0 = perf_counter()
    try:
        out = np.array([index._estimate_checked(*ends[:, 0].tolist())])
    except QueryError as exc:
        out = exc
    t1 = perf_counter()
    return out, 0.0, t1 - t0, 0.0, t1


@dataclass
class CacheStats:
    """Hit/miss accounting for the engine's result cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


#: the slot hash is the stores' Fibonacci multiply (``_HASH_MULT``): the
#: product's high bits mix every bit of ``u·n + v``, so a batch that
#: fixes one endpoint still spreads over all slots
_HASH_SHIFT = np.uint64(32)


class _ResultCache:
    """``u·n + v`` → float64, direct-mapped: ``capacity`` slots, each
    holding at most one key, in two preallocated columns — key (``-1`` =
    empty) and value — plus a claim cell per slot for write-backs.

    A key can live in one slot only, so a probe is one gather of keys,
    one of values and a compare, and a miss simply replaces whatever
    its slot held: no recency to track, no victim to choose.

    Not thread-safe: the engine calls every method under its lock.
    """

    def __init__(self, capacity: int):
        self.keys = np.full(capacity, -1, dtype=np.int64)
        self.vals = np.zeros(capacity, dtype=np.float64)
        self._claim = np.empty(capacity, dtype=np.int64)
        self._nslots = np.uint64(capacity)
        self.entries = 0

    def clear(self) -> None:
        if self.entries:
            self.keys.fill(-1)
            self.entries = 0

    def slot_of(self, keys: np.ndarray) -> np.ndarray:
        """The slot of each key (pure: callable outside the lock): the
        product's top 32 bits scaled to ``[0, capacity)`` by a multiply
        and a shift (exact below 2^32 slots) — a ``%`` costs twice as
        much and keeps the product's less mixed low bits."""
        mixed = keys.view(np.uint64) * _HASH_MULT
        mixed >>= _HASH_SHIFT
        mixed *= self._nslots
        mixed >>= _HASH_SHIFT
        return mixed.view(np.int64)

    def slot_one(self, key: int) -> int:
        """:meth:`slot_of` for one key, in Python ints."""
        return ((key * _HASH_MULT_INT & _U64) >> 32) * self.keys.size >> 32

    def probe(self, keys: np.ndarray, slots: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray]:
        """``(values, miss rows)``: the values the keys' slots hold —
        a row's cached answer unless it is a miss row, whose value the
        caller overwrites."""
        return (self.vals.take(slots),
                np.flatnonzero(self.keys.take(slots) != keys))

    def insert(self, keys: np.ndarray, slots: np.ndarray, vals: np.ndarray,
               ) -> int:
        """Store computed answers; returns how many entries were evicted.

        One claim round: every row writes its number into its slot's
        claim cell, and the row a cell ends up holding — whichever of a
        slot's rows NumPy's scatter left there — writes its key *and its
        own value*, so keys of one batch that share a slot cannot tear
        it.  A slot that already holds the winner's key (a concurrent
        batch wrote it after this one's probe) is left alone; one that
        holds another key is an eviction.
        """
        rows = np.arange(keys.size)
        self._claim[slots] = rows
        won = np.flatnonzero(self._claim[slots] == rows)
        slots = slots[won]
        old = self.keys[slots]
        fresh = old != keys[won]
        won, slots, old = won[fresh], slots[fresh], old[fresh]
        evicted = int(np.count_nonzero(old >= 0))
        self.entries += won.size - evicted
        self.keys[slots] = keys[won]
        self.vals[slots] = vals[won]
        return evicted

    def insert_one(self, key: int, slot: int, val: float) -> int:
        """:meth:`insert` for one key (its slot from :meth:`slot_one`)."""
        old = self.keys.item(slot)
        if old == key:
            return 0
        self.keys[slot], self.vals[slot] = key, val
        self.entries += old < 0
        return int(old >= 0)


def _slot_count(size) -> int:
    """An explicit cache size as an int: a bool or a non-integral
    number is refused, never truncated."""
    if isinstance(size, bool) or not hasattr(type(size), "__index__"):
        raise ConfigError(f"cache_size must be an integer, got {size!r}")
    size = operator.index(size)
    if size < 0:
        raise ConfigError(f"cache_size must be >= 0, got {size}")
    return size


class QueryEngine:
    """Answer distance queries — singly or in batches — from one
    :class:`~repro.service.index.IndexStore`.

    The engine behind every session:
    :func:`repro.service.client.connect` is the front door, and
    :class:`~repro.service.server.OracleServer` builds the engine
    once its source is normalised to a store.

    :param index: the store to serve (its shard layout is baked in).
    :param updateable: the live
        :class:`~repro.service.updates.UpdateableIndex` whose current
        store ``index`` is — enables :meth:`apply_updates` and shares
        its epoch clock; ``None`` serves a static index.
    :param cache_size: slots of the result cache, one answer each (24
        bytes a slot; direct-mapped: a key has one slot, and a miss
        replaces what it holds); ``0`` disables caching, ``None`` takes
        the store's ``cache_slots``.
    :raises ConfigError: on a negative, non-integral or bool cache size.
    """

    def __init__(self, index: IndexStore, *, updateable=None,
                 cache_size: Optional[int] = None):
        self.n = index.n
        self.cache_size = (index.cache_slots if cache_size is None
                           else _slot_count(cache_size))
        #: the most ranges a batch is cut into
        self.cpus = usable_cpus()
        self._lock = threading.Lock()
        self._updateable = updateable
        #: ``(index, epoch)``, replaced whole under the lock by a swap and
        #: read whole without it (a live index shares the engine's clock)
        self._snapshot = (index,
                          updateable.epoch if updateable is not None else 0)
        self._cache = (_ResultCache(self.cache_size) if self.cache_size
                       else None)
        self.stats = CacheStats()
        self._timings = PhaseTimings()
        # created by the first cut batch (guarded by _lock); a closed
        # engine makes none
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def index(self) -> IndexStore:
        """The store currently serving."""
        return self._snapshot[0]

    @property
    def epoch(self) -> int:
        """The epoch currently serving."""
        return self._snapshot[1]

    def index_snapshot(self) -> tuple[IndexStore, int]:
        """The ``(store, epoch)`` pair currently serving, read
        atomically without a lock — a hot swap installs both as one
        tuple, so the pair is always consistent, and stores are never
        mutated, so the returned store stays valid even after a
        subsequent swap (how a batch stays on the epoch it started on,
        and how the transport layer labels an index blob with the epoch
        that actually produced it)."""
        return self._snapshot

    # ------------------------------------------------------------------
    # execution: the start/gather pair over one store
    # ------------------------------------------------------------------
    def _start(self, index: IndexStore, ends: np.ndarray) -> tuple:
        """Start one non-empty batch of **validated** ``(2, q)``
        endpoints on ``index``; returns the ticket for :meth:`_gather`.
        A batch of at least ``2·RANGE_PAIRS`` pairs is cut into
        ``min(cpus, q // RANGE_PAIRS)`` contiguous ranges, one pool task
        each; a smaller one runs in-thread, deferred to gather time —
        nothing to overlap.  A lone pair is its scalar query
        (:func:`_serve_one`).  The ticket holds the store, so the batch
        is that epoch's whatever is swapped in before it is
        gathered."""
        q = ends.shape[1]
        if q == 1:
            return None, partial(_serve_one, index, ends)
        ranges = min(self.cpus, q // RANGE_PAIRS)
        pool = self._cut_pool() if ranges > 1 else None
        if pool is None:
            return None, partial(_serve, index, ends)
        cuts = [q * j // ranges for j in range(ranges + 1)]
        t_submit = perf_counter()
        return t_submit, [pool.submit(_serve, index, ends[:, a:b], a)
                          for a, b in zip(cuts, cuts[1:])]

    def _cut_pool(self) -> Optional[ThreadPoolExecutor]:
        """The pool a cut batch's ranges run on — created here, by the
        first such batch; ``None`` once the engine is closed.  Same
        address space: a task probes the caller's own store object."""
        with self._lock:
            if self._pool is None and not self._closed:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.cpus,
                    thread_name_prefix=THREAD_POOL_PREFIX)
            return self._pool

    def _gather(self, ticket: tuple) -> np.ndarray:
        """Collect one started batch's ranges, in pair order.

        :raises QueryError: the lowest unresolved row's, as in-process.
        """
        t_submit, work = ticket
        if t_submit is None:
            parts = [work()]
        else:
            parts = [task.result() for task in work]
        outs, plan, kernel, finish, end = zip(*parts)
        tm = self._timings
        with tm.lock:
            tm.plan += sum(plan)
            tm.shard_answer += sum(kernel)
            tm.finish += sum(finish)
            tm.kernel += max(kernel)  # the critical path
            if t_submit is not None:
                tm.ipc += max(0.0, max(end) - t_submit - max(
                    map(sum, zip(plan, kernel, finish))))
            tm.batches += 1
        for out in outs:
            if isinstance(out, QueryError):
                raise out
        return outs[0] if len(outs) == 1 else np.concatenate(outs)

    @property
    def cache_entries(self) -> int:
        """Answers resident in the result cache (never above
        ``cache_size``)."""
        return self._cache.entries if self._cache is not None else 0

    def cache_counters(self) -> dict:
        """``hits`` / ``misses`` / ``evictions`` / ``entries``, read
        together under the engine lock — one batch's accounting is
        either all in the snapshot or not at all."""
        with self._lock:
            stats = self.stats
            return {"hits": stats.hits, "misses": stats.misses,
                    "evictions": stats.evictions,
                    "entries": self.cache_entries}

    # ------------------------------------------------------------------
    def dist(self, u: int, v: int) -> float:
        """One estimate, through the cache and the store."""
        return self.dist_one_pinned(u, v)[0]

    def dist_one_pinned(self, u: int, v: int) -> tuple[float, int]:
        """:meth:`dist_many_pinned` for the one pair ``(u, v)`` —
        ``(answer, epoch)``, same bits and errors — with no numpy
        call.  A miss is the store's scalar query, booked as one batch
        of answer seconds (an unresolved pair's too)."""
        u, v = checked_pair(u, v, self.n)
        cache = self._cache
        if cache is None:
            index, epoch = self._snapshot
        else:
            key = u * self.n + v
            slot = cache.slot_one(key)
            with self._lock:
                # snapshot and probe under one lock: a hit is this epoch's
                index, epoch = self._snapshot
                if cache.keys.item(slot) == key:
                    self.stats.hits += 1
                    return cache.vals.item(slot), epoch
                self.stats.misses += 1
        t0 = perf_counter()
        try:
            answer = index._estimate_checked(u, v)
        finally:
            seconds = perf_counter() - t0
            tm = self._timings
            with tm.lock:
                tm.shard_answer += seconds
                tm.kernel += seconds
                tm.batches += 1
        if cache is not None:
            with self._lock:
                if epoch == self.epoch:  # as in dist_many_pinned
                    self.stats.evictions += cache.insert_one(key, slot, answer)
        return answer, epoch

    def dist_many(self, pairs: Iterable[tuple[int, int]] | np.ndarray,
                  ) -> np.ndarray:
        """Estimates for a batch of ``(u, v)`` pairs, in input order.

        Accepts any iterable of pairs or a ``(Q, 2)`` integer array;
        returns a float64 array of length Q.  Cached answers are reused;
        the misses are computed in one vectorized pass (cut across the
        pool's threads when they are a bulk batch).

        The whole batch is answered by one epoch: the serving store is
        read once, at batch start, and a concurrent
        :meth:`apply_updates` only affects batches issued after its
        swap.
        """
        return self.dist_many_pinned(pairs)[0]

    def dist_many_pinned(self, pairs: Iterable[tuple[int, int]] | np.ndarray,
                         ) -> tuple[np.ndarray, int]:
        """:meth:`dist_many` plus the epoch that served the batch —
        ``(answers, epoch)``.

        The transport layer's result frames carry this epoch, so a
        remote client can re-pin a mid-swap batch to the epoch that
        actually answered it rather than guessing from the server's
        current clock.
        """
        # ids are checked before they are keyed: an out-of-range pair
        # must raise, not alias the u·n + v of a cached one
        ends = pair_columns(pairs, self.n)
        q = ends.shape[1]
        if q == 0:
            return np.empty(0, dtype=np.float64), self.epoch
        if q == 1:
            answer, epoch = self.dist_one_pinned(*ends[:, 0].tolist())
            return np.array([answer]), epoch
        index, epoch = self.index_snapshot()
        cache = self._cache
        if cache is None:
            return self._gather(self._start(index, ends)), epoch

        keys = ends[0] * self.n + ends[1]
        slots = cache.slot_of(keys)
        with self._lock:
            # a batch that started on a since-replaced epoch must not
            # read the new epoch's cache — hits are epoch-guarded just
            # like the write-backs below, or one batch could mix epochs
            if epoch == self.epoch and cache.entries:
                out, miss = cache.probe(keys, slots)
            else:
                out, miss = np.empty(q, dtype=np.float64), np.arange(q)
            self.stats.hits += q - miss.size
            self.stats.misses += miss.size
        if miss.size:
            keys, slots = keys[miss], slots[miss]
            vals = self._gather(self._start(index, ends[:, miss]))
            out[miss] = vals
            with self._lock:
                # epoch-stamped write-back: a batch that started
                # before a swap must not poison the new epoch's cache
                if epoch == self.epoch:
                    self.stats.evictions += cache.insert(keys, slots, vals)
        return out, epoch

    # ------------------------------------------------------------------
    # streaming: the submit/collect pair (see repro.service.session)
    # ------------------------------------------------------------------
    def _submit(self, pairs) -> Optional[tuple]:
        """Start one cache-bypassing batch on the epoch current right
        now; returns the ticket for :meth:`_collect` (``None`` when
        empty)."""
        ends = pair_columns(pairs, self.n)
        if ends.shape[1] == 0:
            return None
        index, epoch = self.index_snapshot()
        return self._start(index, ends), epoch

    def _collect(self, ticket: Optional[tuple]) -> tuple[np.ndarray, int]:
        """Finish one submitted batch — ``(answers, epoch)``, the epoch
        being the one that was current at submit."""
        if ticket is None:
            return np.empty(0, dtype=np.float64), self.epoch
        started, epoch = ticket
        return self._gather(started), epoch

    def dist_stream(self, batches: Iterable) -> Iterator[np.ndarray]:
        """Pipelined batched serving: a generator over an iterable of
        pair batches, yielding one float64 answer array per batch, in
        order — :func:`~repro.service.session.stream_window` over the
        engine's submit/collect pair, double-buffered.

        When the batches are cut, batch *k+1*'s submit overlaps batch
        *k*'s pair ranges (``overlap_seconds`` in
        :meth:`phase_timings`).  The result cache is bypassed (a
        streaming sweep is the cold-cache workload).  **Each batch** is
        answered wholly by the epoch current when it was submitted — a
        concurrent :meth:`apply_updates` affects the batches submitted
        after its swap, exactly as for :meth:`dist_many`.  Answers are
        bit-identical to per-batch :meth:`dist_many` on a cold cache,
        and an error surfaces at its own batch's turn.
        """
        for answers, _ in self.dist_stream_pinned(batches):
            yield answers

    def dist_stream_pinned(self, batches: Iterable,
                           ) -> Iterator[tuple[np.ndarray, int]]:
        """:meth:`dist_stream` plus each batch's pin — yields
        ``(answers, epoch)``, the epoch current at that batch's submit
        (a concurrent :meth:`apply_updates` may since have replaced
        it)."""
        return stream_window(batches, self._submit, self._collect,
                             STREAM_DEPTH, stats=self)

    def note_submit(self, inflight: int, seconds: float) -> None:
        """Window telemetry: a batch's cut + dispatch took ``seconds``
        with ``inflight`` earlier batches outstanding; counted once the
        engine has a pool (an in-thread "submit" defers the compute: on
        an engine that never cut a batch it overlaps nothing)."""
        if inflight and self._pool is not None:
            with self._timings.lock:
                self._timings.overlap += seconds

    def note_reply(self, seconds: float) -> None:
        """Per-batch latencies are a session-side number."""

    # ------------------------------------------------------------------
    def apply_updates(self, changes) -> "Any":
        """Apply an edge-change batch to the underlying
        :class:`~repro.service.updates.UpdateableIndex` and hot-swap to
        the new epoch's store.

        The next epoch's store is built while traffic continues; the
        swap installs ``(store, epoch)`` and clears the result cache —
        cached answers are per-epoch — under the engine lock.  Batches
        already submitted finish on the store they hold.

        :returns: the :class:`~repro.service.session.UpdateReport`.
        :raises ConfigError: for an engine over a static index.
        """
        if self._updateable is None:
            raise ConfigError(
                "apply_updates needs a live index, and this session's "
                "server hosts a static one; serve an UpdateableIndex "
                "(`repro serve GRAPH --updateable`)")
        report = self._updateable.apply(changes)
        if report.mode != "noop":
            with self._lock:  # report.epoch is the updateable's clock
                self._snapshot = (self._updateable.index, report.epoch)
                if self._cache is not None:
                    self._cache.clear()
        return report

    # ------------------------------------------------------------------
    def phase_timings(self) -> dict:
        """Cumulative plan/shard_answer/finish/ipc seconds over every
        epoch this engine has served — a hot swap does not restart them."""
        return self._timings.as_dict()

    def reset_phase_timings(self) -> None:
        """Zero the per-phase counters."""
        self._timings.reset()

    def close(self) -> None:
        """Join the pool's threads (idempotent); ranges already
        submitted run to their end first.  A closed engine still
        answers, in the calling thread."""
        with self._lock:
            pool, self._pool, self._closed = self._pool, None, True
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"QueryEngine(n={self.n}, {type(self.index).__name__}, "
                f"cache={self.cache_entries}/{self.cache_size})")
