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

A batch is parsed, copied into contiguous id columns and range-checked
once, at this edge (:func:`~repro.service.index.pair_columns`); the
result cache, the :class:`~repro.service.workers.ShardServer` and the
store's ``_plan_checked`` take those columns as they are.  The server
runs plan → answer → finish (in the calling thread for ``jobs=1``, cut
into ``jobs`` pair ranges on a persistent thread pool above that) and
accumulates the per-phase timings.  Answers stay bit-identical for
every ``jobs`` value.  Call :meth:`~QueryEngine.close` (or use the
engine as a context manager) to join the pool's threads.

Callers do not build engines: :func:`repro.service.client.connect`
(through :class:`~repro.service.server.OracleServer`) normalises
whatever it is given to a store and constructs the engine over it.

**Epochs.**  Given the live
:class:`~repro.service.updates.UpdateableIndex` behind the store
(``updateable=``), :meth:`QueryEngine.apply_updates` hot-swaps epochs:
the next epoch's store (and, for ``jobs > 1``, its thread pool) is
prepared while traffic continues, the swap is one pointer flip under
the engine lock, and in-flight batches finish on the epoch they started
on (the old server is closed only once no batch is still handing it
work; a streamed batch already submitted is collected from its
ticket, which needs no executor).  Every batch — a ``dist_many`` call
or one batch of a ``dist_stream`` — is served by exactly one epoch, the
one current when it was submitted: no torn reads.  The result cache is
epoch-stamped: it is cleared at the swap, and a stale batch's
write-backs are dropped.

The result cache (:class:`_ResultCache`, a set-associative table of
numpy columns probed once per batch) keys on the *ordered* pair
``(u, v)``: the paper's level-scan query is not symmetric under swapping
the endpoints (both directions can hit at the same level with different
routes), and the engine's contract is bit-identity with the single-query
path, so ``(u, v)`` and ``(v, u)`` are cached separately.  A cached
value is the epoch's own float64, so which entries the cache happens to
keep can change the cost of an answer and never the answer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

import numpy as np

from repro.errors import ConfigError
from repro.service.index import IndexStore, pair_columns
from repro.service.session import stream_window
from repro.service.workers import STREAM_DEPTH, ShardServer


@dataclass
class CacheStats:
    """Hit/miss accounting for the engine's result cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: slots per set of the result cache: a probe gathers one row of this
#: many keys per pair, and replacement is exact LRU among them
_CACHE_WAYS = 8
#: odd 64-bit multiplier (2^64 / golden ratio) of the set hash — the
#: product's high bits mix every bit of ``u·n + v``, so a batch that
#: fixes one endpoint still spreads over all sets
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)
_HASH_SHIFT = np.uint64(32)


class _ResultCache:
    """``u·n + v`` → float64 in three preallocated columns shaped
    ``(sets, ways)`` — key (``-1`` = empty), value, last-used stamp.

    A batch is probed and written back with a handful of numpy calls
    (hash → gather the set rows → compare), never a Python loop over
    pairs.  Replacement is LRU within a set: the victim is the way with
    the oldest stamp, and an empty way (stamp 0) is older than any used
    one.  ``sets·ways`` is the largest such table with at most
    :data:`_CACHE_WAYS` ways that fits in ``capacity`` entries; up to 8
    entries that is one set, i.e. exact LRU.

    Not thread-safe: the engine calls every method under its lock.
    """

    def __init__(self, capacity: int):
        self.sets = -(-capacity // _CACHE_WAYS)
        self.ways = capacity // self.sets
        slots = self.sets * self.ways
        self.keys = np.full(slots, -1, dtype=np.int64)
        self.vals = np.zeros(slots, dtype=np.float64)
        self.stamps = np.zeros(slots, dtype=np.int64)
        self._key_rows = self.keys.reshape(self.sets, self.ways)
        self._stamp_rows = self.stamps.reshape(self.sets, self.ways)
        self._claim = np.empty(self.sets, dtype=np.int64)
        self._nsets = np.uint64(self.sets)
        self.entries = 0
        self._tick = 0

    def clear(self) -> None:
        if self.entries:
            self.keys.fill(-1)
            self.stamps.fill(0)
            self.entries = 0

    def set_of(self, keys: np.ndarray) -> np.ndarray:
        """The set id of each key (pure: callable outside the lock)."""
        mixed = (keys.view(np.uint64) * _HASH_MULT) >> _HASH_SHIFT
        return (mixed % self._nsets).view(np.int64)

    def _find(self, keys: np.ndarray, sets: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray]:
        """``(slot, found)`` per key: ``slot`` is where the key sits
        when ``found``, and some slot of its set otherwise."""
        way = (self._key_rows.take(sets, axis=0)
               == keys[:, None]).argmax(axis=1)
        slot = sets * self.ways + way
        return slot, self.keys[slot] == keys

    def probe(self, keys: np.ndarray, sets: np.ndarray, out: np.ndarray,
              ) -> np.ndarray:
        """Copy the cached values into ``out`` and touch their stamps;
        returns the hit mask."""
        slot, hit = self._find(keys, sets)
        slot = slot[hit]
        out[hit] = self.vals[slot]
        self._tick += 1
        self.stamps[slot] = self._tick
        return hit

    def insert(self, keys: np.ndarray, sets: np.ndarray, vals: np.ndarray,
               ) -> int:
        """Store computed answers; returns how many entries were evicted.

        Each round writes at most one key per set, re-probing first so
        that a key which is already resident — a concurrent batch wrote
        it between this batch's probe and now — is never stored twice.
        Rows that lost their set to a *different* key go to the next
        round; after ``ways`` rounds a further key could only evict one
        written by this same call, so the rest are dropped.
        """
        self._tick += 1
        evicted = 0
        for _ in range(self.ways):
            if not keys.size:
                break
            # every row writes its number into its set's cell; the one
            # a cell ends up holding has the set for this round
            rows = np.arange(keys.size)
            self._claim[sets] = rows
            owner = self._claim[sets]
            later = keys[owner] != keys  # in-batch repeats just drop out
            first = np.flatnonzero(owner == rows)
            _, found = self._find(keys[first], sets[first])
            first = first[~found]
            fsets = sets[first]
            slot = fsets * self.ways + self._stamp_rows.take(
                fsets, axis=0).argmin(axis=1)
            used = int(np.count_nonzero(self.keys[slot] >= 0))
            evicted += used
            self.entries += first.size - used
            self.keys[slot] = keys[first]
            self.vals[slot] = vals[first]
            self.stamps[slot] = self._tick
            keys, sets, vals = keys[later], sets[later], vals[later]
        return evicted


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
    :param cache_size: the most answers the result cache may hold (24
        bytes each; set-associative, LRU within a set); ``0`` disables
        caching.
    :param jobs: threads a batch is cut across (``1`` = answer in the
        calling thread), whatever the store's shard count.
    :raises ConfigError: on a negative cache size or ``jobs < 1``.
    """

    def __init__(self, index: IndexStore, *, updateable=None,
                 cache_size: int = 65536, jobs: int = 1):
        if cache_size < 0:
            raise ConfigError(f"cache_size must be >= 0, got {cache_size}")
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.n = index.n
        self.cache_size = int(cache_size)
        self.jobs = int(jobs)
        self.index = index
        self._server = ShardServer(index, jobs=self.jobs)
        # epoch bookkeeping: dist_many snapshots (epoch, server) under
        # the lock, and a retired epoch's server is closed only once its
        # last in-flight batch drains
        self._lock = threading.Lock()
        self._updateable = updateable
        # a live index and its engine share one epoch clock
        self.epoch = updateable.epoch if updateable is not None else 0
        self._active: dict[int, int] = {}
        self._retired: dict[int, ShardServer] = {}
        self._cache = _ResultCache(self.cache_size) if cache_size else None
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # epoch bookkeeping
    # ------------------------------------------------------------------
    def index_snapshot(self) -> tuple[IndexStore, int]:
        """The ``(store, epoch)`` pair currently serving, read
        atomically — a hot swap installs both under the same lock, so
        the pair is always consistent, and stores are never mutated, so
        the returned store stays valid even after a subsequent swap
        (how the transport layer labels an index blob with the epoch
        that actually produced it)."""
        with self._lock:
            return self.index, self.epoch

    def shard_answers_pinned(self, shards, requests) -> tuple[tuple, int]:
        """Serve raw per-shard probe requests — ``(responses, epoch)``.

        This is the fleet fan-out hook: a :class:`ClusterClient
        <repro.service.cluster.ClusterClient>` plans a batch client-side
        and ships each host only the requests for the shards it owns,
        which the host answers in one ``answer`` pass; a shard's
        response is a pure function of ``(shard data, request)``, so the
        responses are bit-identical to the ones an in-process
        ``estimate_many`` would have produced.  The whole probe batch is
        answered by one atomically-snapshotted ``(store, epoch)`` pair.
        """
        index, epoch = self.index_snapshot()
        return tuple(index.answer([int(s) for s in shards], requests)), epoch

    def _acquire_epoch(self) -> tuple[int, ShardServer]:
        """Pin the current epoch for one batch (it will be served wholly
        by this epoch's server, even if a swap lands mid-flight)."""
        with self._lock:
            epoch, server = self.epoch, self._server
            self._active[epoch] = self._active.get(epoch, 0) + 1
            return epoch, server

    def _release_epoch(self, epoch: int) -> None:
        with self._lock:
            self._active[epoch] -= 1
            drained = (self._active[epoch] == 0
                       and epoch in self._retired)
            server = self._retired.pop(epoch) if drained else None
            if drained:
                del self._active[epoch]
        if server is not None:
            server.close()

    @property
    def cache_entries(self) -> int:
        """Answers resident in the result cache (never above
        ``cache_size``)."""
        return self._cache.entries if self._cache is not None else 0

    # ------------------------------------------------------------------
    def dist(self, u: int, v: int) -> float:
        """One estimate, through the cache and the shard server."""
        return float(self.dist_many([(u, v)])[0])

    def dist_many(self, pairs: Iterable[tuple[int, int]] | np.ndarray,
                  ) -> np.ndarray:
        """Estimates for a batch of ``(u, v)`` pairs, in input order.

        Accepts any iterable of pairs or a ``(Q, 2)`` integer array;
        returns a float64 array of length Q.  Cached answers are reused;
        the misses are computed in one vectorized pass (fanned across the
        shard threads when the engine was built with ``jobs > 1``).

        The whole batch is answered by one epoch: the serving store is
        pinned at batch start, and a concurrent :meth:`apply_updates`
        only affects batches issued after its swap.
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
        us, vs = pair_columns(pairs, self.n)
        q = us.shape[0]
        if q == 0:
            return np.empty(0, dtype=np.float64), self.epoch
        epoch, server = self._acquire_epoch()
        try:
            if self.cache_size == 0:
                return server.collect(server.submit(us, vs)), epoch

            cache = self._cache
            keys = us * self.n + vs
            sets = cache.set_of(keys)
            out = np.empty(q, dtype=np.float64)
            with self._lock:
                # a batch pinned to a retired epoch must not read the
                # new epoch's cache — hits are epoch-guarded just like
                # the write-backs below, or one batch could mix epochs
                if epoch == self.epoch and cache.entries:
                    miss = np.flatnonzero(~cache.probe(keys, sets, out))
                else:
                    miss = np.arange(q)
                self.stats.hits += q - miss.size
                self.stats.misses += miss.size
            if miss.size:
                keys, sets = keys[miss], sets[miss]
                vals = server.collect(server.submit(us[miss], vs[miss]))
                out[miss] = vals
                with self._lock:
                    # epoch-stamped write-back: a batch that started
                    # before a swap must not poison the new epoch's cache
                    if epoch == self.epoch:
                        self.stats.evictions += cache.insert(keys, sets,
                                                             vals)
            return out, epoch
        finally:
            self._release_epoch(epoch)

    # ------------------------------------------------------------------
    # streaming: the submit/collect pair (see repro.service.session)
    # ------------------------------------------------------------------
    def _submit(self, pairs) -> Optional[tuple]:
        """Start one cache-bypassing batch on the epoch current right
        now; returns the ticket for :meth:`_collect` (``None`` when
        empty).  The epoch is pinned only while its server is handed
        the batch: collecting a ticket needs no executor, so an
        outstanding one never keeps a retired epoch's server alive."""
        us, vs = pair_columns(pairs, self.n)
        if us.shape[0] == 0:
            return None
        epoch, server = self._acquire_epoch()
        try:
            return epoch, server, server.submit(us, vs)
        finally:
            self._release_epoch(epoch)

    def _collect(self, ticket: Optional[tuple]) -> tuple[np.ndarray, int]:
        """Finish one submitted batch — ``(answers, epoch)``, the epoch
        being the one that was current at submit."""
        if ticket is None:
            return np.empty(0, dtype=np.float64), self.epoch
        epoch, server, inner = ticket
        return server.collect(inner), epoch

    def dist_stream(self, batches: Iterable) -> Iterator[np.ndarray]:
        """Pipelined batched serving: a generator over an iterable of
        pair batches, yielding one float64 answer array per batch, in
        order — :func:`~repro.service.session.stream_window` over the
        engine's submit/collect pair, double-buffered.

        With a thread pool behind the engine batch *k+1*'s submit
        overlaps batch *k*'s pair ranges (``overlap_seconds`` in
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
        (a concurrent :meth:`apply_updates` may since have retired it)."""
        return stream_window(batches, self._submit, self._collect,
                             STREAM_DEPTH, stats=self)

    def note_submit(self, inflight: int, seconds: float) -> None:
        """Window telemetry, passed on to the serving shard server."""
        self._server.note_submit(inflight, seconds)

    def note_reply(self, seconds: float) -> None:
        """Per-batch latencies are a session-side number."""

    # ------------------------------------------------------------------
    def apply_updates(self, changes) -> "Any":
        """Apply an edge-change batch to the underlying
        :class:`~repro.service.updates.UpdateableIndex` and hot-swap to
        the new epoch's store.

        The next epoch's server (and its thread pool) is built *before*
        the swap, so traffic never pauses; in-flight batches complete on
        the old epoch, whose server is closed when its last batch drains.
        The result cache is cleared — cached answers are per-epoch.

        :returns: the :class:`~repro.service.updates.UpdateReport`.
        :raises ConfigError: for an engine over a static index.
        """
        if self._updateable is None:
            raise ConfigError(
                "apply_updates needs a live index, and this session's "
                "server hosts a static one; serve an UpdateableIndex "
                "(`repro serve GRAPH --updateable`)")
        report = self._updateable.apply(changes)
        if report.mode == "noop":
            return report
        new_server = ShardServer(self._updateable.index, jobs=self.jobs,
                                 timings=self._server.timings)
        with self._lock:
            old_epoch, old_server = self.epoch, self._server
            self._server = new_server
            self.index = new_server.index
            self.epoch = report.epoch  # the updateable's clock
            if self._cache is not None:
                self._cache.clear()
            drained = self._active.get(old_epoch, 0) == 0
            if drained:
                self._active.pop(old_epoch, None)
            else:
                self._retired[old_epoch] = old_server
        if drained:
            old_server.close()
        return report

    # ------------------------------------------------------------------
    def phase_timings(self) -> dict:
        """Cumulative plan/shard_answer/finish/ipc seconds over every
        epoch this engine has served — a hot swap does not restart them."""
        return self._server.timings.as_dict()

    def reset_phase_timings(self) -> None:
        """Zero the per-phase counters."""
        self._server.reset_timings()

    def clear_cache(self) -> None:
        """Drop all cached results and reset the hit/miss counters."""
        with self._lock:
            if self._cache is not None:
                self._cache.clear()
            self.stats = CacheStats()

    def close(self) -> None:
        """Shut the shard server down — joining its threads — plus any
        retired epochs' servers (idempotent)."""
        with self._lock:
            servers = list(self._retired.values())
            self._retired.clear()
            servers.append(self._server)
        for server in servers:
            server.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tail = f", jobs={self.jobs}" if self.jobs > 1 else ""
        return (f"QueryEngine(n={self.n}, {type(self.index).__name__}, "
                f"cache={self.cache_entries}/{self.cache_size}{tail})")
