"""Shard serving: threads behind the landmark shards.

Every :class:`~repro.service.index.IndexStore` decomposes a query batch
into per-shard probe requests (``plan`` → ``answer`` → ``finish``; see
the protocol contract), and ``answer`` serves any set of shards in one
kernel pass.  :class:`ShardServer` runs that decomposition, one
``answer`` call per thread::

    caller                              executor threads (jobs = J > 1)
    ------                              -------------------------------
    plan(us, vs) ──┬─ requests[g0] ─▶ answer(group 0, ·) ─┐
                   ├─ requests[g1] ─▶ answer(group 1, ·) ─┤
                   └─ requests[gJ-1]▶ answer(group J-1,·) ─┤
    finish(state, responses) ◀────── responses by shard id ─┘

``jobs=1`` answers all S shards with one call in the calling thread.
``jobs=J`` cuts the shards into J contiguous groups and submits one
task per group to a persistent
``concurrent.futures.ThreadPoolExecutor``: ``answer`` is numpy-kernel
work that releases the GIL, so the groups overlap for real, and because
the executor sees the caller's own index object nothing is copied,
pickled or attached — dispatch cost is J function submissions, whatever
the shard count.  Where the store's bytes live (heap arrays, or a
memory-mapped RPIX file) was decided when it was loaded; the server
serves the store it is given.

Determinism: a shard's response is a pure function of ``(shard data,
request)`` however the shards are grouped, and ``finish`` consumes
responses by shard id, never by completion order, so answers are
bit-identical for every ``jobs`` value — the test suite asserts
jobs=1/2/4 equality for every scheme.  A
:class:`~repro.errors.QueryError` for an unresolved pair is raised by
``finish`` in the caller, exactly as in-process.

Per-batch **phase timings** (plan / shard_answer / finish / ipc) are
accumulated on :attr:`ShardServer.timings`; ``serve-bench`` reports
them, which is how a dispatch-bound configuration is diagnosed from one
run.

A server is pinned to **one epoch** of its index: the dynamic-update
path (:meth:`~repro.service.engine.QueryEngine.apply_updates`) never
mutates a served store — it builds the next epoch's server while this
one keeps answering, then swaps and closes this one once no batch is
still being submitted to it.  Closing lets the probes already submitted
run, and collecting needs only the ticket and the immutable index, so a
batch submitted before the swap is still answered wholly by this epoch.

Serving is a **submit/collect pair** (:mod:`repro.service.session`):
``estimate_many`` is ``collect(submit(...))``, ``estimate_stream`` the
shared window driver over the same pair.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.errors import ConfigError
from repro.service.index import IndexStore, parse_pair_array
from repro.service.session import stream_window

#: executor threads carry this name prefix so tests (and operators
#: reading a stack dump) can tell them from handler threads — and
#: assert none outlive their server
THREAD_POOL_PREFIX = "repro-shard"

#: batches a local stream keeps submitted: double buffering — batch
#: *k+1* is planned while batch *k*'s probes run
STREAM_DEPTH = 2


# ----------------------------------------------------------------------
# phase accounting
# ----------------------------------------------------------------------
@dataclass
class PhaseTimings:
    """Cumulative per-phase wall time across the batches a server ran.

    ``ipc`` is the executor's dispatch overhead: everything between
    plan and finish that is not kernel compute (task submission, thread
    wake-ups, waiting on futures), i.e. the dispatch wall minus the
    parallel critical path (the slowest group's compute).  In-thread
    serving (``jobs=1``) has ``ipc == 0`` by construction.

    ``overlap`` is the double-buffering win of the pipelined path
    (:meth:`ShardServer.estimate_stream`): caller-side seconds — batch
    *k+1*'s plan — spent while batch *k*'s probes were still in
    flight.  Sequential serving leaves it 0.

    ``kernel`` is the per-batch **critical path** of pure kernel
    compute: the slowest ``answer`` call's seconds, summed over batches.
    ``shard_answer`` is the *total* across the batch's ``answer`` calls
    — one per worker group — so with ``jobs=1`` the two are equal and
    with J balanced groups ``shard_answer ≈ J × kernel``; the dispatch
    wall window is ``kernel + ipc``.  One report therefore separates
    "the numpy kernels are slow" (``kernel`` dominates) from "handing
    the work out costs more than the work" (``ipc`` dominates).
    """

    plan: float = 0.0
    shard_answer: float = 0.0
    finish: float = 0.0
    ipc: float = 0.0
    overlap: float = 0.0
    kernel: float = 0.0
    batches: int = 0

    def as_dict(self) -> dict:
        return {"plan_seconds": self.plan,
                "shard_answer_seconds": self.shard_answer,
                "finish_seconds": self.finish,
                "ipc_seconds": self.ipc,
                "overlap_seconds": self.overlap,
                "kernel_seconds": self.kernel,
                "batches": self.batches}


class ShardServer:
    """Serve batched queries from an :class:`IndexStore` with one
    ``answer`` call per thread.

    :param index: any built index store (all schemes); served as given —
        heap arrays or an mmap-loaded RPIX container alike.
    :param jobs: ``1`` answers every shard in the calling thread; above
        that, a persistent ``ThreadPoolExecutor`` of that many threads,
        each handed one contiguous group of shards per batch (the numpy
        kernels release the GIL).  Values above the shard count are
        clamped — a shard is the unit of placement, so extra threads
        would idle.
    :raises ConfigError: when ``jobs < 1``.

    Use as a context manager (or call :meth:`close`) so the executor's
    threads do not outlive the server::

        with ShardServer(build_index(sketches, num_shards=4), jobs=4) as srv:
            est = srv.estimate_many(us, vs)
    """

    def __init__(self, index: IndexStore, jobs: int = 1):
        # what close() releases exists before anything that can raise: a
        # failed construction still reaches __del__, and the GC backstop
        # must not trip over a missing attribute
        self._executor: Optional[ThreadPoolExecutor] = None
        self.timings = PhaseTimings()
        # dispatch is re-entrant, so several handler threads can be
        # inside estimate_many at once; the timing accumulators they
        # share must not lose updates
        self._state_lock = threading.Lock()
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.index = index
        self.jobs = min(int(jobs), index.num_shards)
        #: the contiguous, near-even shard group each ``answer`` call
        #: serves — one per thread
        cuts = [index.num_shards * j // self.jobs
                for j in range(self.jobs + 1)]
        self._groups = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        if self.jobs > 1:
            # same address space: the executor probes the caller's own
            # index object — no initializer, no data movement
            self._executor = ThreadPoolExecutor(
                max_workers=self.jobs,
                thread_name_prefix=THREAD_POOL_PREFIX)

    # ------------------------------------------------------------------
    # the submit/collect pair (see repro.service.session)
    # ------------------------------------------------------------------
    def _probe(self, group: range, requests: list) -> tuple[float, list]:
        """One timed ``answer`` call of the caller's own index for a
        group of shards.  As an executor task the numpy kernel inside
        releases the GIL, so submissions overlap."""
        t0 = time.perf_counter()
        responses = self.index.answer(group,
                                      requests[group.start:group.stop])
        return time.perf_counter() - t0, responses

    def submit(self, us: np.ndarray, vs: np.ndarray) -> Optional[tuple]:
        """Plan one batch and start its probes, one task per shard
        group; returns the ticket for :meth:`collect` (``None`` for an
        empty batch).  An in-thread server defers the probes to collect
        time — there is nothing to overlap with."""
        if us.shape[0] == 0:
            return None
        t0 = time.perf_counter()
        state, requests = self.index.plan(us, vs)
        t1 = time.perf_counter()
        executor = self._executor
        if executor is not None:
            requests = [executor.submit(self._probe, group, requests)
                        for group in self._groups]
        with self._state_lock:
            self.timings.plan += t1 - t0
        return state, executor is not None, requests, t1

    def collect(self, ticket: Optional[tuple]) -> np.ndarray:
        """Gather one submitted batch's responses and finish it.  Needs
        only the ticket and the (immutable) index, so it works after
        :meth:`close` — e.g. once a hot swap has retired this server."""
        if ticket is None:
            return np.empty(0, dtype=np.float64)
        state, threaded, handles, t_planned = ticket
        if threaded:
            raw = [future.result() for future in handles]
        else:
            raw = [self._probe(range(len(handles)), handles)]
        seconds = [dt for dt, _ in raw]
        shard_sum = sum(seconds)
        # the critical path: the slowest group when they ran side by
        # side; in-thread there is one call and it is all of it
        shard_max = max(seconds)
        t1 = time.perf_counter()
        try:
            return self.index.finish(
                state, [resp for _, group in raw for resp in group])
        finally:
            t2 = time.perf_counter()
            tm = self.timings
            with self._state_lock:
                tm.shard_answer += shard_sum
                tm.finish += t2 - t1
                tm.kernel += shard_max
                if threaded:
                    tm.ipc += max(0.0, (t1 - t_planned) - shard_max)
                tm.batches += 1

    def estimate_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Batched estimates through the shard decomposition —
        bit-identical to ``index.estimate_many`` for every ``jobs``."""
        return self.collect(self.submit(us, vs))

    def estimate_stream(self, batches) -> "Iterable[np.ndarray]":
        """Double-buffered pipelined serving: a generator over an
        iterable of ``(us, vs)`` batches, yielding one float64 answer
        array per batch, in order — :func:`~repro.service.session.
        stream_window` over :meth:`submit` / :meth:`collect`,
        :data:`STREAM_DEPTH` deep.

        While batch *k*'s shard probes run on the executor, the caller
        plans batch *k+1*; the hidden caller-side seconds accumulate in
        :attr:`PhaseTimings.overlap`.  Answers are bit-identical to
        :meth:`estimate_many` per batch; an in-thread server
        (``jobs=1``) degenerates to exactly that.  An error surfaces at
        its own batch's turn; abandoning the stream drains the probes
        still in flight.
        """
        return stream_window(batches, lambda batch: self.submit(*batch),
                             self.collect, STREAM_DEPTH, stats=self)

    def note_submit(self, inflight: int, seconds: float) -> None:
        """Window telemetry: a batch's plan + dispatch took ``seconds``
        with ``inflight`` earlier batches' probes on the executor (an
        in-thread "submit" defers the compute: it overlaps nothing)."""
        if inflight and self._executor is not None:
            with self._state_lock:
                self.timings.overlap += seconds

    def note_reply(self, seconds: float) -> None:
        """Per-batch latencies are a session-side number."""

    def dist_many(self, pairs: Iterable[tuple[int, int]] | np.ndarray,
                  ) -> np.ndarray:
        """Convenience pair-list front end (mirrors
        :meth:`~repro.service.engine.QueryEngine.dist_many`)."""
        arr = parse_pair_array(pairs)
        return self.estimate_many(arr[:, 0], arr[:, 1])

    def reset_timings(self) -> None:
        """Zero the cumulative phase timings."""
        self.timings = PhaseTimings()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the executor down, joining its threads (idempotent).

        Reads the attribute defensively (``getattr`` with a default):
        the ``__del__`` GC backstop funnels here even for an instance
        whose construction failed partway.
        """
        executor = getattr(self, "_executor", None)
        if executor is not None:
            executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ShardServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = (f"{self.jobs} threads" if self._executor is not None
                else "in-thread")
        return f"ShardServer({self.index!r}, {mode})"
