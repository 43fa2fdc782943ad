"""Shard serving: one store, one batch, optionally cut across threads.

Every :class:`~repro.service.index.IndexStore` answers a batch as
``plan`` → ``answer`` → ``finish`` (see the protocol contract), and a
pair's answer depends on that pair only.  :class:`ShardServer` runs that
chain over a validated batch::

    caller                          executor threads (jobs = J > 1)
    ------                          -------------------------------
    submit(us, vs) ─┬─ pairs [0, q/J)    ─▶ plan → answer → finish ─┐
                    ├─ pairs [q/J, 2q/J) ─▶ plan → answer → finish ─┤
                    └─ …                 ─▶ plan → answer → finish ─┤
    collect(ticket) ◀──────── answers, concatenated in pair order ──┘

``jobs=1`` runs the chain once, in the calling thread.  ``jobs=J`` cuts
the *batch* into J contiguous pair ranges, one task each on a
persistent ``concurrent.futures.ThreadPoolExecutor``: the chain is
numpy-kernel work that releases the GIL, so the ranges overlap for
real, and the executor sees the caller's own index object — nothing is
copied, pickled or attached.  The cut does not depend on the store's
shard count: a shard is placement (what a fleet host owns), not a unit
of local execution.

Determinism: any cut gives the same bytes, so answers are bit-identical
for every ``jobs`` value (the test suite asserts jobs=1/2/4/7, every
scheme).  A :class:`~repro.errors.QueryError` for an unresolved pair is
raised by ``collect`` in the caller, exactly as in-process: the lowest
failing range's, tagged with its row in the whole batch.

Per-batch **phase timings** (plan / shard_answer / finish / ipc)
accumulate on :attr:`ShardServer.timings`; ``serve-bench`` reports
them, which is how a dispatch-bound configuration is diagnosed.

A server is pinned to **one epoch** of its index: the dynamic-update
path (:meth:`~repro.service.engine.QueryEngine.apply_updates`) never
mutates a served store — it builds the next epoch's server while this
one keeps answering, then swaps and closes this one once no batch is
still being submitted to it.  Closing lets the ranges already submitted
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
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.errors import ConfigError, QueryError
from repro.service.index import IndexStore, pair_columns, validated_pairs
from repro.service.session import stream_window

#: executor threads carry this name prefix so tests (and operators
#: reading a stack dump) can tell them from handler threads — and
#: assert none outlive their server
THREAD_POOL_PREFIX = "repro-shard"

#: batches a local stream keeps submitted: double buffering — batch
#: *k+1* is cut and queued while batch *k*'s ranges run
STREAM_DEPTH = 2


# ----------------------------------------------------------------------
# phase accounting
# ----------------------------------------------------------------------
@dataclass
class PhaseTimings:
    """Cumulative per-phase wall time across the batches a server ran.

    ``plan`` / ``shard_answer`` / ``finish`` are the seconds in the
    store's three steps, summed over a batch's pair ranges (one
    in-thread, J on the executor); ``kernel`` is the per-batch
    **critical path** of ``answer``, the slowest range's seconds — equal
    to ``shard_answer`` at ``jobs=1``, ``≈ shard_answer / J`` for J
    balanced ranges.  ``ipc`` is the executor's dispatch overhead: the
    wall time from submit until every range was collected, minus the
    slowest range's own three steps (0 in-thread, by construction).
    ``overlap`` is the double-buffering win of
    :meth:`ShardServer.estimate_stream`: caller-side seconds — batch
    *k+1*'s submit — spent while batch *k*'s ranges were in flight.

    One instance outlives a hot swap — the engine hands it to every
    epoch's server — and dispatch is re-entrant, so several handler
    threads (on two epochs' servers, mid-swap) can be accumulating at
    once: every update and :meth:`reset` holds :attr:`lock`.
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


class ShardServer:
    """Serve batched queries from an :class:`IndexStore`, the batch cut
    into one contiguous pair range per thread.

    :param index: any built index store (all schemes); served as given —
        heap arrays or an mmap-loaded RPIX container alike.
    :param jobs: ``1`` answers a batch in the calling thread; above
        that, a persistent ``ThreadPoolExecutor`` of that many threads,
        each handed one contiguous range of the batch's pairs (the
        numpy kernels release the GIL).
    :param timings: the accumulator to add this server's batches to
        (default: a fresh one) — how an engine keeps one set of phase
        counters across the servers of successive epochs.
    :raises ConfigError: when ``jobs < 1``.

    Use as a context manager (or call :meth:`close`) so the executor's
    threads do not outlive the server::

        with ShardServer(build_index(sketches), jobs=4) as srv:
            est = srv.estimate_many(us, vs)
    """

    def __init__(self, index: IndexStore, jobs: int = 1,
                 timings: Optional[PhaseTimings] = None):
        # what close() releases exists before anything that can raise: a
        # failed construction still reaches __del__, and the GC backstop
        # must not trip over a missing attribute
        self._executor: Optional[ThreadPoolExecutor] = None
        self.timings = PhaseTimings() if timings is None else timings
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.index = index
        self.jobs = int(jobs)
        if self.jobs > 1:
            # same address space: the executor probes the caller's own
            # index object — no initializer, no data movement
            self._executor = ThreadPoolExecutor(
                max_workers=self.jobs,
                thread_name_prefix=THREAD_POOL_PREFIX)

    # ------------------------------------------------------------------
    # the submit/collect pair (see repro.service.session)
    # ------------------------------------------------------------------
    def _serve(self, us: np.ndarray, vs: np.ndarray, start: int = 0,
               ) -> tuple:
        """plan → answer → finish for the pairs from batch row
        ``start`` on: ``(answers, plan s, answer s, finish s)``, the
        answers replaced by the :class:`QueryError` (its ``row``
        counted in the whole batch) when a pair is unresolved."""
        index = self.index
        t0 = time.perf_counter()
        state, requests = index._plan_checked(us, vs)
        t1 = time.perf_counter()
        responses = index.answer(range(len(requests)), requests)
        t2 = time.perf_counter()
        try:
            out = index.finish(state, responses)
        except QueryError as exc:
            exc.row += start
            out = exc
        return out, t1 - t0, t2 - t1, time.perf_counter() - t2

    def submit(self, us: np.ndarray, vs: np.ndarray) -> Optional[tuple]:
        """Start one batch of **validated** id columns
        (:func:`~repro.service.index.pair_columns` at a session edge,
        or :meth:`estimate_many`); returns the ticket for
        :meth:`collect` (``None`` for an empty batch).  An executor
        gets ``jobs`` contiguous ranges, one task each; an in-thread
        server defers the work to collect time — nothing to overlap."""
        q = us.shape[0]
        if q == 0:
            return None
        executor = self._executor
        if executor is None:
            return False, (us, vs), 0.0
        cuts = [q * j // self.jobs for j in range(self.jobs + 1)]
        tasks = [executor.submit(self._serve, us[a:b], vs[a:b], a)
                 for a, b in zip(cuts, cuts[1:]) if a < b]
        return True, tasks, time.perf_counter()

    def collect(self, ticket: Optional[tuple]) -> np.ndarray:
        """Gather one submitted batch's ranges, in pair order.  Needs
        only the ticket and the (immutable) index, so it works after
        :meth:`close` — e.g. once a hot swap has retired this server.

        :raises QueryError: the lowest unresolved row's, as in-process.
        """
        if ticket is None:
            return np.empty(0, dtype=np.float64)
        threaded, handles, t_submit = ticket
        if threaded:
            parts = [future.result() for future in handles]
        else:
            parts = [self._serve(*handles)]
        wall = time.perf_counter() - t_submit
        outs, plan, kernel, finish = zip(*parts)
        tm = self.timings
        with tm.lock:
            tm.plan += sum(plan)
            tm.shard_answer += sum(kernel)
            tm.finish += sum(finish)
            tm.kernel += max(kernel)  # the critical path
            if threaded:
                tm.ipc += max(0.0, wall - max(map(sum, zip(plan, kernel,
                                                           finish))))
            tm.batches += 1
        for out in outs:
            if isinstance(out, QueryError):
                raise out
        return outs[0] if len(outs) == 1 else np.concatenate(outs)

    def estimate_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Batched estimates — bit-identical to ``index.estimate_many``
        for every ``jobs``."""
        return self.collect(self.submit(
            *validated_pairs(us, vs, self.index.n)))

    def estimate_stream(self, batches) -> "Iterable[np.ndarray]":
        """Double-buffered pipelined serving: a generator over an
        iterable of ``(us, vs)`` batches, yielding one float64 answer
        array per batch, in order — :func:`~repro.service.session.
        stream_window` over :meth:`submit` / :meth:`collect`,
        :data:`STREAM_DEPTH` deep.

        While batch *k*'s ranges run on the executor, the caller cuts
        and queues batch *k+1*; the hidden caller-side seconds
        accumulate in :attr:`PhaseTimings.overlap`.  Answers are
        bit-identical to :meth:`estimate_many` per batch; an in-thread
        server (``jobs=1``) degenerates to exactly that.  An error
        surfaces at its own batch's turn; abandoning the stream drains
        the ranges still in flight.
        """
        n = self.index.n
        return stream_window(
            batches, lambda batch: self.submit(*validated_pairs(*batch, n)),
            self.collect, STREAM_DEPTH, stats=self)

    def note_submit(self, inflight: int, seconds: float) -> None:
        """Window telemetry: a batch's cut + dispatch took ``seconds``
        with ``inflight`` earlier batches' ranges on the executor (an
        in-thread "submit" defers the compute: it overlaps nothing)."""
        if inflight and self._executor is not None:
            with self.timings.lock:
                self.timings.overlap += seconds

    def note_reply(self, seconds: float) -> None:
        """Per-batch latencies are a session-side number."""

    def dist_many(self, pairs: Iterable[tuple[int, int]] | np.ndarray,
                  ) -> np.ndarray:
        """Convenience pair-list front end (mirrors
        :meth:`~repro.service.engine.QueryEngine.dist_many`)."""
        return self.collect(self.submit(*pair_columns(pairs, self.index.n)))

    def reset_timings(self) -> None:
        """Zero the cumulative phase timings."""
        self.timings.reset()

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
