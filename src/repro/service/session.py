"""The session core: one streaming window and one session clock.

A serving session owes its caller one thing per batch — an answer
computed wholly from *one* epoch's sketches, delivered in order —
whatever the transport.  So every session kind (the engine, the tcp
client) supplies only a pair::

    submit(batch)   -> ticket            # start the batch; None = empty
    collect(ticket) -> result            # gather it: (answers, epoch)

and what surrounds the pair exists once, here: :func:`stream_window`,
the bounded in-order window every ``dist_stream`` runs on,
:class:`SessionClock`, a session's epochs and telemetry, and
:class:`UpdateReport`, what an epoch-making apply reports.

**The pin rule** follows from the pair: a batch is answered wholly by
the epoch that was current when it was *submitted*, ``collect`` names
that epoch, and :attr:`SessionClock.last_result_epoch` records it when
the answer is consumed — per batch, on every transport.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

import numpy as np


#: most samples :attr:`PipelineStats.latencies` /
#: :attr:`EpochStaleness.window_seconds` keep between resets — a
#: session that streams for days must not grow a list per batch
MAX_SAMPLES = 1 << 16


def stream_window(batches: Iterable, submit: Callable[[Any], Any],
                  collect: Callable[[Any], Any], depth: int,
                  stats: Any = None) -> Iterator:
    """The one bounded pipelining window: yield ``collect(submit(b))``
    for every batch, in order, keeping up to ``depth`` tickets
    outstanding so batch *k+1*'s submit overlaps batch *k*'s work.

    * **Lazy** — a batch is pulled only when a slot is free.
    * **Parked errors** — an exception raised by ``submit`` is parked
      in that batch's slot and re-raised at its turn, after every
      earlier batch was yielded (nothing further is pulled): an error
      surfaces at the same position whether the session kind detects
      it at submit or at collect.
    * **Drain** — when the generator is closed or fails, every
      outstanding ticket is collected and discarded, so an abandoned
      stream leaves no reply unread.
    * ``stats`` (optional) hears ``note_submit(inflight, seconds)`` per
      non-empty submit — ``inflight`` earlier tickets were outstanding
      during its ``seconds`` — and ``note_reply(seconds)``, each
      consumed batch's submit-to-reply latency.

    A ``None`` ticket is an empty batch: nothing is outstanding for it
    and ``collect(None)`` supplies the kind's empty result.
    """
    window: deque = deque()  # (ticket, parked error, t_submit)
    inflight = 0  # non-empty tickets outstanding
    feed: Optional[Iterator] = iter(batches)
    try:
        while True:
            while feed is not None and len(window) < depth:
                try:
                    batch = next(feed)
                except StopIteration:
                    feed = None
                    break
                t0 = time.perf_counter()
                try:
                    ticket, error = submit(batch), None
                except Exception as exc:
                    ticket, error, feed = None, exc, None
                window.append((ticket, error, t0))
                if ticket is not None:
                    if stats is not None:
                        stats.note_submit(inflight, time.perf_counter() - t0)
                    inflight += 1
            if not window:
                return
            ticket, error, t0 = window.popleft()
            if error is not None:
                raise error
            if ticket is not None:
                inflight -= 1
            result = collect(ticket)
            if ticket is not None and stats is not None:
                stats.note_reply(time.perf_counter() - t0)
            yield result
    finally:
        for ticket, _, _ in window:
            if ticket is not None:
                try:
                    collect(ticket)
                except Exception:
                    # a discarded batch has no caller to report to; the
                    # stream's own error (if any) is already propagating
                    pass


# ----------------------------------------------------------------------
# telemetry records
# ----------------------------------------------------------------------
@dataclass
class EpochStaleness:
    """Per-session staleness telemetry — the introspection surface a
    churn-aware operator (and the test suite's churn replays) reads.

    A result is **stale** when the epoch that served it
    (``last_result_epoch``) is older than the newest epoch the session
    had observed by consume time — legal under the monotonic-epoch rule
    (an in-flight batch finishes on the epoch it started on), but worth
    measuring: ``window_seconds`` records, per stale result, how long
    the newer epoch had already been visible to this session when the
    old-epoch answer arrived (the *staleness window*).
    """

    results: int = 0
    stale_results: int = 0
    max_epoch_lag: int = 0
    window_seconds: list = field(default_factory=list)
    _first_seen: dict = field(default_factory=dict)

    #: per-session epochs whose first-seen timestamps are retained
    _KEEP = 64

    def note_epoch(self, epoch: int) -> None:
        """The session just observed ``epoch`` (hello, pushed bump, or
        result frame) — timestamp its first sighting."""
        if epoch not in self._first_seen:
            self._first_seen[epoch] = time.perf_counter()
            if len(self._first_seen) > self._KEEP:
                for old in sorted(self._first_seen)[:-self._KEEP]:
                    del self._first_seen[old]

    def note_result(self, result_epoch: int, session_epoch: int) -> None:
        """A result pinned to ``result_epoch`` was consumed while the
        session knew about ``session_epoch``."""
        self.results += 1
        lag = session_epoch - result_epoch
        if lag <= 0:
            return
        self.stale_results += 1
        self.max_epoch_lag = max(self.max_epoch_lag, lag)
        newer = [t for e, t in self._first_seen.items() if e > result_epoch]
        if newer and len(self.window_seconds) < MAX_SAMPLES:
            self.window_seconds.append(time.perf_counter() - min(newer))

    def summary(self) -> dict:
        windows = self.window_seconds
        return {"results": self.results,
                "stale_results": self.stale_results,
                "max_epoch_lag": self.max_epoch_lag,
                "window_count": len(windows),
                "window_max_s": max(windows) if windows else 0.0,
                "window_seconds": list(windows)}


@dataclass
class PipelineStats:
    """Client-side telemetry of a pipelined ``dist_stream``, filled by
    :func:`stream_window`.

    ``overlap_seconds`` is the submit-side time (encode + send) spent
    while at least one earlier request was still in flight — the wire
    analogue of :attr:`~repro.service.engine.PhaseTimings.overlap`;
    sequential one-in-flight serving leaves it 0.  ``latencies`` holds
    one submit-to-reply second count per streamed batch (what the
    ``tcp-stream`` benchmark workload turns into p50/p90); past
    :data:`MAX_SAMPLES` entries it stops recording until the next reset,
    while ``requests`` keeps counting."""

    requests: int = 0
    max_inflight: int = 0
    overlap_seconds: float = 0.0
    latencies: list = field(default_factory=list)

    def note_submit(self, inflight: int, seconds: float) -> None:
        self.requests += 1
        self.max_inflight = max(self.max_inflight, inflight + 1)
        if inflight:
            self.overlap_seconds += seconds

    def note_reply(self, seconds: float) -> None:
        if len(self.latencies) < MAX_SAMPLES:
            self.latencies.append(seconds)

    def summary(self) -> dict:
        return {"requests": self.requests,
                "max_inflight": self.max_inflight,
                "overlap_seconds": self.overlap_seconds}


@dataclass
class UpdateReport:
    """What one :meth:`~repro.service.updates.UpdateableIndex.apply`
    did — the reply to ``apply_updates`` on every session kind, so it
    lives with the session, not with the update machinery."""

    mode: str               # "noop" | "repair" | "rebuild"
    epoch: int              # epoch after the apply
    changes: int            # changes applied to the graph
    dirty: int              # dirty-source frontier size
    touched: int            # sketches actually replaced
    n: int
    dirty_fraction: float
    seconds: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"mode": self.mode, "epoch": self.epoch,
                "changes": self.changes, "dirty": self.dirty,
                "touched": self.touched, "n": self.n,
                "dirty_fraction": self.dirty_fraction,
                "seconds": dict(self.seconds)}

    _WIRE_DEFAULTS = {"mode": "unknown", "epoch": 0, "changes": 0,
                      "dirty": 0, "touched": 0, "n": 0,
                      "dirty_fraction": 0.0}

    @classmethod
    def from_wire(cls, data: Mapping) -> "UpdateReport":
        """Construct tolerantly from a wire dict: unknown keys (a newer
        server reporting fields this build does not know) are ignored,
        missing ones fall back to neutral defaults — protocol version
        skew must degrade the report, not crash the session."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in dict(data).items() if k in known}
        for name, default in cls._WIRE_DEFAULTS.items():
            kwargs.setdefault(name, default)
        return cls(**kwargs)


# ----------------------------------------------------------------------
# the session clock
# ----------------------------------------------------------------------
class SessionClock:
    """What one session knows about epochs, and its telemetry.

    ``epoch`` is the newest epoch observed (hello, pushed bumps,
    results, own applies) and only moves forward.
    ``last_result_epoch`` is the per-batch pin: the epoch that served
    the most recently consumed answer — older than ``epoch`` when a
    batch submitted before a hot swap is consumed after it.

    :param depth: a remote session's ``dist_stream`` window (the tcp
        transport's :data:`~repro.service.client.PIPELINE_DEPTH`);
        ``None`` for a local session, whose overlap is in the server's
        phase timings and whose :meth:`pipeline_stats` is therefore
        ``None``.
    :param live: for a session that can read its server's clock
        directly (``inproc``): a callable returning it.
    """

    def __init__(self, depth: Optional[int] = None,
                 live: Optional[Callable[[], int]] = None):
        self.depth = depth
        self._live = live
        self.epoch = 0
        self.last_result_epoch = 0
        self.staleness = EpochStaleness()
        self.pipeline = PipelineStats()

    def start(self, epoch: int) -> None:
        """The session is up and its server is at ``epoch``."""
        self.epoch = self.last_result_epoch = int(epoch)
        self.staleness.note_epoch(self.epoch)

    def fold(self, epoch: int) -> None:
        """The session observed ``epoch`` (a pushed bump, an apply
        report): the clock only moves forward."""
        if epoch > self.epoch:  # the current epoch is noted already
            self.epoch = epoch
            self.staleness.note_epoch(epoch)

    def now(self) -> int:
        """The newest epoch observed, after a look at the server's own
        clock where the session can see it."""
        if self._live is not None:
            self.fold(self._live())
        return self.epoch

    def note_result(self, epoch: int) -> None:
        """A result served by ``epoch`` was consumed: re-pin
        ``last_result_epoch`` (possibly behind the session clock) and
        account the staleness."""
        self.last_result_epoch = epoch
        if self._live is not None:
            self.fold(self._live())
        self.fold(epoch)
        self.staleness.note_result(epoch, self.epoch)

    def answer(self, result: tuple[Any, int]) -> Any:
        """Consume one ``collect`` result (or a lone pair's ``(float,
        epoch)``): note its epoch, hand the answers on."""
        answers, epoch = result
        self.note_result(epoch)
        return answers

    def consume(self, results: Iterator) -> Iterator[np.ndarray]:
        """:meth:`answer` over a :func:`stream_window`, closed with
        this generator so an abandoned stream drains."""
        try:
            for result in results:
                yield self.answer(result)
        finally:
            results.close()

    def staleness_stats(self, reset: bool = False) -> dict:
        """The staleness telemetry so far; ``reset=True`` starts a
        fresh window (the clock itself is untouched)."""
        out = self.staleness.summary()
        if reset:
            self.staleness = EpochStaleness()
            self.staleness.note_epoch(self.now())
        return out

    def pipeline_summary(self) -> dict:
        """The ``stats()["pipeline"]`` block: counters and depth."""
        return dict(self.pipeline.summary(), depth=self.depth)

    def pipeline_stats(self, reset: bool = False) -> Optional[dict]:
        """The stream-window telemetry with per-batch latencies
        (``None`` on a local session); ``reset=True`` starts afresh."""
        if self.depth is None:
            return None
        out = dict(self.pipeline_summary(),
                   latencies=list(self.pipeline.latencies))
        if reset:
            self.pipeline = PipelineStats()
        return out
