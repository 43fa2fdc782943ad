"""The batched query engine: ``dist_many`` over a built sketch set.

:class:`QueryEngine` is the serving-layer front end.  Every scheme in the
library has a vectorized :class:`~repro.service.index.IndexStore`
(:class:`~repro.service.index.TZIndex`,
:class:`~repro.service.index.Stretch3Index`,
:class:`~repro.service.index.CDGIndex`,
:class:`~repro.service.index.GracefulIndex`), so batches route through a
pre-built store by default; ``use_index=False`` forces the plain loop
over the sketches' single-pair queries (still benefiting from the result
cache).  Either way the answers are exactly the ones the one-pair-at-a-
time API produces — batching is a performance feature, never a semantic
one.

An indexed engine always runs the shard decomposition through a
:class:`~repro.service.workers.ShardServer` (in the calling thread for
``jobs=1``, on a persistent thread pool for ``jobs > 1``), which is
also where the per-phase timings (``plan`` / ``shard_answer`` /
``finish`` / ``ipc``) accumulate.  Answers stay bit-identical for every
``jobs`` value.  Call :meth:`~QueryEngine.close` (or use the engine as a
context manager) to join the pool's threads.

:meth:`QueryEngine.from_index` serves a pre-built (e.g. binary-loaded)
store directly, without the sketch set.

**Epochs.**  :meth:`QueryEngine.from_updateable` serves a live
:class:`~repro.service.updates.UpdateableIndex`;
:meth:`QueryEngine.apply_updates` then hot-swaps epochs: the next
epoch's store (and, for ``jobs > 1``, its thread pool) is prepared
while traffic continues, the swap is one pointer flip under the engine
lock, and in-flight batches finish on the epoch they started on (the
old server is closed only once no batch is still handing it probes; a
streamed batch already submitted is collected from its ticket, which
needs no executor).  Every batch — a ``dist_many`` call or one batch of
a ``dist_stream`` — is served by exactly one epoch, the one current
when it was submitted: no torn reads.  The result cache is
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
import warnings
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import ConfigError, QueryError
from repro.service.index import (IndexStore, build_index, index_class_for,
                                 parse_pair_array)
from repro.service.session import stream_window
from repro.service.workers import STREAM_DEPTH, ShardServer
from repro.tz.sketch import TZSketch, estimate_distance


def _warn_deprecated(what: str) -> None:
    """The one deprecation funnel for the legacy engine construction
    paths — each public entry point fires it exactly once per call (the
    layered classmethods pass ``_deprecation=False`` internally, so a
    ``from_updateable`` never double-warns through ``from_index``)."""
    warnings.warn(
        f"{what} is deprecated; open a serving session with "
        f"repro.service.transport.connect('inproc://', source) "
        f"(or tcp://host:port) instead",
        DeprecationWarning, stacklevel=3)


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
    """Answer distance queries — singly or in batches — from one sketch set.

    .. deprecated::
        ``QueryEngine`` (and its ``from_index`` / ``from_updateable``
        constructors) is the legacy session surface.  New code opens a
        session with :func:`repro.service.transport.connect` — the same
        engine mechanics behind a transport-agnostic
        :class:`~repro.service.transport.OracleClient` (``inproc://``,
        ``tcp://``).  Constructing one directly emits a
        single :class:`DeprecationWarning`; the transport layer builds
        its engines through the internal non-warning path.

    :param sketches: one sketch per node.  Any homogeneous set of a
        library scheme gets its vectorized index; mixed or unknown sets
        get the generic loop.
    :param cache_size: the most answers the result cache may hold (24
        bytes each; set-associative, LRU within a set); ``0`` disables
        caching.
    :param num_shards: landmark shard count for the index (layout knob;
        answers are shard-independent).  With ``jobs > 1`` it is also the
        number of parallel probe tasks per batch.
    :param use_index: ``None`` (default) auto-detects; ``False`` forces
        the generic loop; ``True`` requires an indexable set (the scheme
        registry's :attr:`~repro.oracle.schemes.SchemeSpec.supports_batch`
        is the intended source of this value — see
        :meth:`~repro.oracle.api.BuiltSketches.engine`).
    :param jobs: threads behind the landmark shards (``1`` = probe in
        the calling thread).  Requires an indexed engine; values above
        ``num_shards`` are clamped (a shard is the unit of work) and the
        attribute reflects the effective count.
    :raises ConfigError: on an empty set, negative cache size,
        ``use_index=True`` without an indexable set, or ``jobs > 1``
        without an index.
    """

    def __init__(self, sketches: Sequence[Any], cache_size: int = 65536,
                 num_shards: int = 1, use_index: Optional[bool] = None,
                 jobs: int = 1, *, _deprecation: bool = True):
        if _deprecation:
            _warn_deprecated("QueryEngine(sketches=...)")
        if not sketches:
            raise ConfigError("cannot serve an empty sketch set")
        # scalar parameter errors must not cost an index build first
        if cache_size < 0:
            raise ConfigError(f"cache_size must be >= 0, got {cache_size}")
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.sketches = list(sketches)
        self.n = len(self.sketches)
        index: Optional[IndexStore] = None
        indexable = index_class_for(self.sketches) is not None
        if use_index is True and not indexable:
            raise ConfigError(
                "use_index=True needs a homogeneous sketch set of a "
                "library scheme")
        if use_index is not False and indexable:
            index = build_index(self.sketches, num_shards=num_shards)
        self._init_serving(index, cache_size=cache_size, jobs=jobs)

    @classmethod
    def from_index(cls, index: IndexStore, cache_size: int = 65536,
                   jobs: int = 1, *,
                   _deprecation: bool = True) -> "QueryEngine":
        """Serve a pre-built store directly (no sketch set needed — e.g.
        an index loaded from a binary container, possibly mmap-backed).

        :meth:`reference_query` then falls back to the store's own
        single-pair path, so the bench harness's identity cross-check
        still compares batch-of-Q against one-at-a-time answers.
        """
        if _deprecation:
            _warn_deprecated("QueryEngine.from_index")
        self = cls.__new__(cls)
        self.sketches = None
        self.n = index.n
        self._init_serving(index, cache_size=cache_size, jobs=jobs)
        return self

    @classmethod
    def from_updateable(cls, updateable, cache_size: int = 65536,
                        jobs: int = 1, *,
                        _deprecation: bool = True) -> "QueryEngine":
        """Serve a live :class:`~repro.service.updates.UpdateableIndex`,
        enabling :meth:`apply_updates` epoch hot-swaps."""
        if _deprecation:
            _warn_deprecated("QueryEngine.from_updateable")
        self = cls.from_index(updateable.index, cache_size=cache_size,
                              jobs=jobs, _deprecation=False)
        self._updateable = updateable
        self.epoch = updateable.epoch  # share one epoch clock
        return self

    def _init_serving(self, index: Optional[IndexStore], cache_size: int,
                      jobs: int) -> None:
        if cache_size < 0:
            raise ConfigError(f"cache_size must be >= 0, got {cache_size}")
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.cache_size = int(cache_size)
        self.jobs = int(jobs)
        self._jobs_requested = int(jobs)
        self.index = index
        self._server: Optional[ShardServer] = None
        # epoch bookkeeping: dist_many snapshots (epoch, server) under
        # the lock, and a retired epoch's server is closed only once its
        # last in-flight batch drains
        self._lock = threading.Lock()
        self.epoch = 0
        self._active: dict[int, int] = {}
        self._retired: dict[int, ShardServer] = {}
        self._updateable = None
        if index is not None:
            self._server = ShardServer(index, jobs=self.jobs)
            # reflect the clamped thread count (a shard is the unit of
            # work)
            self.jobs = self._server.jobs
        elif self.jobs > 1:
            raise ConfigError(
                "jobs > 1 needs an indexed engine "
                "(do not pass use_index=False)")
        self._cache = _ResultCache(self.cache_size) if cache_size else None
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # epoch bookkeeping
    # ------------------------------------------------------------------
    def index_snapshot(self) -> tuple[Optional[IndexStore], int]:
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
        and ships each host only the requests for the shards it owns;
        ``shard_answer`` is a pure function of ``(shard data, request)``,
        so the responses are bit-identical to the ones an in-process
        ``estimate_many`` would have produced.  The whole probe batch is
        answered by one atomically-snapshotted ``(store, epoch)`` pair.

        :raises ConfigError: on a non-indexed engine.
        """
        index, epoch = self.index_snapshot()
        if index is None:
            raise ConfigError("shard probes need an indexed engine")
        responses = tuple(index.shard_answer(int(s), r)
                          for s, r in zip(shards, requests))
        return responses, epoch

    def _acquire_epoch(self) -> tuple[int, Optional[ShardServer]]:
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

    def _compute_many(self, us: np.ndarray, vs: np.ndarray,
                      server: Optional[ShardServer]) -> np.ndarray:
        if server is not None:
            return server.estimate_many(us, vs)
        if us.size and (min(us.min(), vs.min()) < 0
                        or max(us.max(), vs.max()) >= self.n):
            raise QueryError(f"node id out of range [0, {self.n})")
        out = np.empty(us.shape[0], dtype=np.float64)
        sketches = self.sketches
        for j in range(us.shape[0]):
            su, sv = sketches[int(us[j])], sketches[int(vs[j])]
            # a TZ set can land here via use_index=False: its pairwise
            # query is the free function, not an estimate_to method
            out[j] = (estimate_distance(su, sv) if isinstance(su, TZSketch)
                      else su.estimate_to(sv))
        return out

    @property
    def cache_entries(self) -> int:
        """Answers resident in the result cache (never above
        ``cache_size``)."""
        return self._cache.entries if self._cache is not None else 0

    # ------------------------------------------------------------------
    def dist(self, u: int, v: int) -> float:
        """One estimate, through the cache and the indexed path."""
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
        arr = parse_pair_array(pairs)
        if arr.size == 0:
            return np.empty(0, dtype=np.float64), self.epoch
        q = arr.shape[0]
        epoch, server = self._acquire_epoch()
        try:
            if self.cache_size == 0:
                return (self._compute_many(arr[:, 0], arr[:, 1], server),
                        epoch)

            # ids are checked before they are keyed: an out-of-range
            # pair must raise, not alias the u·n + v of a cached one
            if arr.min() < 0 or arr.max() >= self.n:
                raise QueryError(f"node id out of range [0, {self.n})")
            cache = self._cache
            us, vs = arr[:, 0], arr[:, 1]
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
                vals = self._compute_many(us[miss], vs[miss], server)
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
        the probes: collecting a ticket needs no executor, so an
        outstanding one never keeps a retired epoch's server alive."""
        arr = parse_pair_array(pairs)
        if arr.size == 0:
            return None
        epoch, server = self._acquire_epoch()
        try:
            if server is None:
                return epoch, None, arr
            return epoch, server, server.submit(arr[:, 0], arr[:, 1])
        finally:
            self._release_epoch(epoch)

    def _collect(self, ticket: Optional[tuple]) -> tuple[np.ndarray, int]:
        """Finish one submitted batch — ``(answers, epoch)``, the epoch
        being the one that was current at submit."""
        if ticket is None:
            return np.empty(0, dtype=np.float64), self.epoch
        epoch, server, inner = ticket
        if server is None:
            return self._compute_many(inner[:, 0], inner[:, 1], None), epoch
        return server.collect(inner), epoch

    def dist_stream(self, batches: Iterable) -> Iterator[np.ndarray]:
        """Pipelined batched serving: a generator over an iterable of
        pair batches, yielding one float64 answer array per batch, in
        order — :func:`~repro.service.session.stream_window` over the
        engine's submit/collect pair, double-buffered.

        With a thread pool behind the engine batch *k+1*'s plan
        overlaps batch *k*'s shard probes (``overlap_seconds`` in
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
        server = self._server
        if server is not None:
            server.note_submit(inflight, seconds)

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
        :raises ConfigError: for an engine not built with
            :meth:`from_updateable`.
        """
        if self._updateable is None:
            raise ConfigError(
                "apply_updates needs an engine built with "
                "QueryEngine.from_updateable")
        report = self._updateable.apply(changes)
        if report.mode == "noop":
            return report
        new_server = ShardServer(self._updateable.index,
                                 jobs=self._jobs_requested)
        with self._lock:
            old_epoch, old_server = self.epoch, self._server
            self._server = new_server
            self.index = new_server.index
            self.jobs = new_server.jobs
            self.epoch = report.epoch  # the updateable's clock
            if self._cache is not None:
                self._cache.clear()
            drained = self._active.get(old_epoch, 0) == 0
            if not drained and old_server is not None:
                self._retired[old_epoch] = old_server
            if drained:
                self._active.pop(old_epoch, None)
        if drained and old_server is not None:
            old_server.close()
        return report

    # ------------------------------------------------------------------
    def reference_query(self, u: int, v: int) -> float:
        """The unbatched, uncached reference answer (differential tests and
        the benchmark's single-query baseline).

        With a sketch set this is the scheme's own single-pair query
        (fully independent of the index); an index-only engine
        (:meth:`from_index`) uses the store's single-pair path instead.
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise QueryError(f"node id out of range [0, {self.n})")
        if self.sketches is None:
            return float(self.index.estimate(u, v))
        su, sv = self.sketches[u], self.sketches[v]
        if isinstance(su, TZSketch):
            return estimate_distance(su, sv)
        return su.estimate_to(sv)

    def phase_timings(self) -> Optional[dict]:
        """Cumulative plan/shard_answer/finish/ipc seconds from the shard
        server (``None`` for an unindexed engine)."""
        if self._server is None:
            return None
        return self._server.timings.as_dict()

    def reset_phase_timings(self) -> None:
        """Zero the per-phase counters (no-op for unindexed engines)."""
        if self._server is not None:
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
            if self._server is not None:
                servers.append(self._server)
        for server in servers:
            server.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = (type(self.index).__name__ if self.index is not None
                else "generic")
        tail = f", jobs={self.jobs}" if self.jobs > 1 else ""
        return (f"QueryEngine(n={self.n}, {kind}, "
                f"cache={self.cache_entries}/{self.cache_size}{tail})")
