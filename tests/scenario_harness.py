"""Churn + query replay with a correctness oracle (a test helper).

The update path (:mod:`repro.service.updates`) and the serving tier
(:mod:`repro.service.server`) are property-tested in isolation; this
module drives them *together*: interleaved edge churn and query traffic
replayed against a :func:`~repro.service.client.connect` endpoint, with
an oracle asserting every answer was bit-identical to some epoch the
client could legally observe.

* **Traces** — :class:`QueryEvent` / :class:`ChurnEvent` grouped into
  rounds (:class:`Trace`), produced by the named generators in
  :data:`SCENARIOS` (flash crowd, rolling regional churn, adversarial
  weight flapping, disconnect/heal cycles, steady-state mix).  Each
  generator keeps a shadow copy of the graph while emitting changes, so
  every trace is valid by construction: ``increase`` really increases
  and ``remove`` targets a live edge.

* **Runner** — :func:`run_scenario` replays a trace round by round:
  query events fan out across reader sessions (``dist_many`` and
  pipelined ``dist_stream``) while a writer session issues
  ``apply_updates`` hot swaps, recording the epoch each answer was
  pinned to and the epochs the session could have observed.  The
  endpoint is ``inproc://...``, a remote ``tcp://host:port``, or the
  bare sentinel ``"tcp://"``: serve the given source on a loopback
  listener and drive it over real sockets.

* **Oracle** — :class:`ScenarioOracle` replays the applied churn on a
  twin :class:`~repro.service.updates.UpdateableIndex`, keeping every
  epoch's store alive, and checks that each recorded answer is bitwise
  equal to the twin's answer at the observed epoch *and* that the
  observed epoch was legal under the monotonic-epoch rule: no older
  than the session's epoch when the query was submitted, no newer than
  the last apply started before the answer was consumed.  At
  checkpoints the twin is compared against a from-scratch
  :meth:`~repro.service.updates.UpdateableIndex.rebuild_reference`, so
  the repair path itself stays on trial.

Every index here is TZ with ``k = 2`` (:func:`tz_index`), and
:func:`served_subprocess` runs a ``python -m repro serve`` daemon.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigError, QueryError
from repro.graphs.graph import Graph
from repro.rng import ensure_rng
from repro.service import (EdgeChange, OracleServer, UpdateableIndex,
                           connect, parse_endpoint, sample_query_pairs)

#: the TZ parameter every replayed index (and the oracle's twin) uses
K = 2
#: the oracle compares its twin against a rebuild after every this
#: many applies, and once more at the end, on this many sampled pairs
CHECKPOINT_EVERY = 4
CHECKPOINT_PAIRS = 64
#: result-cache slots of every replayed session: a TZ store serves
#: uncached by default, and the replays keep a cache on so that the
#: oracle also catches a cached answer that outlives its epoch
CACHE = 65536
#: the in-process endpoint the replays use
INPROC = f"inproc://cache={CACHE}"

SRC = Path(__file__).resolve().parents[1] / "src"


def tz_index(graph: Graph, seed) -> UpdateableIndex:
    """The updateable index a replay serves and the oracle twins."""
    return UpdateableIndex(graph, "tz", seed, k=K)


# ----------------------------------------------------------------------
# trace model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryEvent:
    """A batch of ``(u, v)`` distance queries fired in ``round``.

    ``stream=True`` events are split into chunks and driven through the
    session's pipelined ``dist_stream`` (per-chunk epoch pinning);
    plain events go through one ``dist_many`` call."""

    round: int
    pairs: tuple[tuple[int, int], ...]
    stream: bool = False


@dataclass(frozen=True)
class ChurnEvent:
    """An edge-change batch applied in ``round`` (one
    ``apply_updates`` call → at most one epoch bump)."""

    round: int
    changes: tuple[EdgeChange, ...]


Event = Union[QueryEvent, ChurnEvent]


@dataclass
class Trace:
    """A round-based event queue.

    Events carry the round they fire in; within a round the runner
    submits every query event to the reader pool first, then applies
    the churn events sequentially — so queries race the hot swap, which
    is the point."""

    name: str
    n: int
    rounds: int
    events: list = field(default_factory=list)

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError(f"a trace needs >= 1 round, got {self.rounds}")
        for ev in self.events:
            if not 0 <= ev.round < self.rounds:
                raise ConfigError(
                    f"event round {ev.round} outside [0, {self.rounds})")
            if isinstance(ev, QueryEvent):
                if not ev.pairs:
                    raise ConfigError("empty query event")
                for u, v in ev.pairs:
                    if not (0 <= u < self.n and 0 <= v < self.n):
                        raise ConfigError(
                            f"query pair ({u}, {v}) outside the "
                            f"{self.n}-node graph")

    @property
    def query_events(self) -> list[QueryEvent]:
        return [e for e in self.events if isinstance(e, QueryEvent)]

    @property
    def churn_events(self) -> list[ChurnEvent]:
        return [e for e in self.events if isinstance(e, ChurnEvent)]

    def by_round(self) -> dict[int, list[tuple[int, Event]]]:
        """Events grouped by round, each with its index into
        :attr:`events` (the id the runner and oracle share)."""
        out: dict[int, list[tuple[int, Event]]] = {}
        for idx, ev in enumerate(self.events):
            out.setdefault(ev.round, []).append((idx, ev))
        return out


# ----------------------------------------------------------------------
# trace generators: each takes the shadow graph (a copy it may mutate),
# the seeded generator and the round count, and returns the events
# ----------------------------------------------------------------------
def _query_pairs(rng, n: int, count: int) -> tuple[tuple[int, int], ...]:
    """``count`` uniform pairs with ``u != v``."""
    us = rng.integers(0, n, size=count)
    vs = rng.integers(0, n - 1, size=count)
    vs = np.where(vs >= us, vs + 1, vs)
    return tuple((int(u), int(v)) for u, v in zip(us, vs))


def _pairs_avoiding(rng, n: int, count: int,
                    avoid: set) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for _ in range(count * 20):
        if len(out) >= count:
            break
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v and u not in avoid and v not in avoid:
            out.append((u, v))
    return tuple(out)


def _apply_to_shadow(work: Graph, changes: Sequence[EdgeChange]) -> None:
    """Mirror a change batch onto the shadow graph so the next batch is
    emitted against the post-churn state."""
    for c in changes:
        if c.op == "insert":
            work.add_edge(c.u, c.v, c.weight)
        elif c.op == "remove":
            work.remove_edge(c.u, c.v)
        else:
            work.set_weight(c.u, c.v, c.weight)


def _perturb_edges(rng, work: Graph, count: int,
                   edges: Optional[list] = None) -> list[EdgeChange]:
    """Up to ``count`` ``set`` perturbations of distinct live edges."""
    if edges is None:
        edges = list(work.edges())
    changes: list[EdgeChange] = []
    used: set[tuple[int, int]] = set()
    for _ in range(count * 4):
        if len(changes) >= count or not edges:
            break
        u, v, w = edges[int(rng.integers(0, len(edges)))]
        key = (min(u, v), max(u, v))
        if key in used:
            continue
        nw = w * float(rng.uniform(0.5, 2.0))
        if nw == w or not nw > 0:
            continue
        used.add(key)
        changes.append(EdgeChange("set", u, v, nw))
    return changes


def _steady_mix(work: Graph, rng, rounds: int) -> list[Event]:
    """Steady-state production mix: 24 queries every round (every
    fourth batch pipelined), up to 3 mixed changes (set / increase /
    decrease / insert) every other round."""
    n = work.n
    events: list[Event] = []
    for r in range(rounds):
        events.append(QueryEvent(r, _query_pairs(rng, n, 24),
                                 stream=r % 4 == 3))
        if r % 2 != 1:
            continue
        edges = list(work.edges())
        changes: list[EdgeChange] = []
        used: set[tuple[int, int]] = set()
        for _ in range(3):
            roll = float(rng.random())
            if roll < 0.85 and edges:
                u, v, w = edges[int(rng.integers(0, len(edges)))]
                key = (min(u, v), max(u, v))
                if key in used:
                    continue
                used.add(key)
                if roll < 0.45:
                    nw = w * float(rng.uniform(0.6, 1.8))
                    if nw != w and nw > 0:
                        changes.append(EdgeChange("set", u, v, nw))
                elif roll < 0.65:
                    changes.append(EdgeChange(
                        "increase", u, v, w * float(rng.uniform(1.5, 3.0))))
                else:
                    changes.append(EdgeChange(
                        "decrease", u, v, w * float(rng.uniform(0.3, 0.7))))
            else:
                # an insert can never disconnect anything
                for _ in range(8):
                    u = int(rng.integers(0, n))
                    v = int(rng.integers(0, n))
                    key = (min(u, v), max(u, v))
                    if u != v and not work.has_edge(u, v) and key not in used:
                        used.add(key)
                        changes.append(EdgeChange(
                            "insert", u, v, float(rng.uniform(0.5, 2.0))))
                        break
        if changes:
            _apply_to_shadow(work, changes)
            events.append(ChurnEvent(r, tuple(changes)))
    return events


def _flash_crowd(work: Graph, rng, rounds: int) -> list[Event]:
    """A query storm: 8 background queries every round, then a middle
    third where each round adds two 48-query batches (one of them
    pipelined) while 2 perturbations every third round keep swapping
    epochs underneath."""
    n = work.n
    lo = rounds // 3
    hi = max(lo + 1, (2 * rounds) // 3)
    events: list[Event] = []
    for r in range(rounds):
        events.append(QueryEvent(r, _query_pairs(rng, n, 8)))
        if lo <= r < hi:
            events.append(QueryEvent(r, _query_pairs(rng, n, 48)))
            events.append(QueryEvent(r, _query_pairs(rng, n, 48),
                                     stream=True))
        if r % 3 == 2:
            changes = _perturb_edges(rng, work, 2)
            if changes:
                _apply_to_shadow(work, changes)
                events.append(ChurnEvent(r, tuple(changes)))
    return events


def _rolling_churn(work: Graph, rng, rounds: int) -> list[Event]:
    """Rolling regional churn: the node range is cut into 4 contiguous
    blocks and a wave of 4 perturbations per round sweeps across them
    while 24 uniform queries a round continue everywhere."""
    n = work.n
    regions = min(4, n)
    span = -(-n // regions)  # ceil
    events: list[Event] = []
    for r in range(rounds):
        events.append(QueryEvent(r, _query_pairs(rng, n, 24),
                                 stream=r % 3 == 1))
        active = (r * regions) // rounds
        region_edges = [(u, v, w) for u, v, w in work.edges()
                        if u // span == active or v // span == active]
        changes = _perturb_edges(rng, work, 4, edges=region_edges)
        if changes:
            _apply_to_shadow(work, changes)
            events.append(ChurnEvent(r, tuple(changes)))
    return events


def _weight_flap(work: Graph, rng, rounds: int) -> list[Event]:
    """Adversarial weight flapping: 3 fixed edges alternate between
    their original weight and 3× it every single round — the maximally
    repair-hostile churn (the same frontier dirties again and again) —
    while half of the 24 queries a round target their endpoints."""
    n = work.n
    edges = list(work.edges())
    pick = rng.choice(len(edges), size=min(3, len(edges)), replace=False)
    flap = [edges[int(i)] for i in pick]  # (u, v, original weight)
    endpoints = sorted({x for u, v, _ in flap for x in (u, v)})
    events: list[Event] = []
    for r in range(rounds):
        targeted: list[tuple[int, int]] = []
        for e in endpoints[:12]:
            other = int(rng.integers(0, n - 1))
            targeted.append((e, other + 1 if other >= e else other))
        background = _query_pairs(rng, n, max(1, 24 - len(targeted)))
        events.append(QueryEvent(r, tuple(targeted) + background,
                                 stream=r % 4 == 2))
        if r % 2 == 0:
            changes = tuple(EdgeChange("increase", u, v, w0 * 3.0)
                            for u, v, w0 in flap)
        else:
            changes = tuple(EdgeChange("decrease", u, v, w0)
                            for u, v, w0 in flap)
        _apply_to_shadow(work, changes)
        events.append(ChurnEvent(r, changes))
    return events


def _disconnect_heal(work: Graph, rng, rounds: int) -> list[Event]:
    """Disconnect/heal cycles: every 4 rounds one of 2 victim nodes has
    all its incident edges removed (isolating it — queries touching it
    must yield ``QueryError`` parity on every transport), then exactly
    the same edges are re-inserted two rounds later.  While a victim is
    down, one query batch deliberately targets it and one avoids it."""
    n = work.n
    # prefer low-degree victims: cutting them is cheap and they are
    # least likely to be articulation points stranding bystanders
    cands = sorted(range(n), key=lambda u: (work.degree(u), u))[:8]
    pick = rng.choice(len(cands), size=min(2, len(cands)), replace=False)
    vlist = [cands[int(i)] for i in pick]
    removed: dict[int, list[tuple[int, int, float]]] = {}
    events: list[Event] = []
    for r in range(rounds):
        phase = r % 4
        victim = vlist[(r // 4) % len(vlist)]
        if victim in removed:
            down = []
            for _ in range(6):
                o = int(rng.integers(0, n - 1))
                down.append((victim, o + 1 if o >= victim else o))
            events.append(QueryEvent(r, tuple(down)))
            clean = _pairs_avoiding(rng, n, 16, {victim})
            if clean:
                events.append(QueryEvent(r, clean))
        else:
            events.append(QueryEvent(r, _query_pairs(rng, n, 16),
                                     stream=phase == 3))
        if phase == 0 and victim not in removed and work.degree(victim) > 0:
            cut = [(victim, o, w)
                   for o, w in sorted(work.neighbors(victim).items())]
            changes = tuple(EdgeChange("remove", u, v) for u, v, _ in cut)
            removed[victim] = cut
            _apply_to_shadow(work, changes)
            events.append(ChurnEvent(r, changes))
        elif phase == 2 and victim in removed:
            changes = tuple(EdgeChange("insert", u, v, w)
                            for u, v, w in removed.pop(victim))
            _apply_to_shadow(work, changes)
            events.append(ChurnEvent(r, changes))
    return events


#: the named scenarios :func:`generate_trace` accepts
SCENARIOS = {
    "flash-crowd": _flash_crowd,
    "rolling-churn": _rolling_churn,
    "weight-flap": _weight_flap,
    "disconnect-heal": _disconnect_heal,
    "steady-mix": _steady_mix,
}


def generate_trace(name: str, graph: Graph, *, seed,
                   rounds: int) -> Trace:
    """The named scenario's ``rounds``-round trace for ``graph``."""
    if name not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}; choose from "
            f"{', '.join(sorted(SCENARIOS))}")
    if graph.n < 2 or graph.m < 1:
        raise ConfigError(
            f"{name} needs a graph with >= 2 nodes and >= 1 edge")
    events = SCENARIOS[name](graph.copy(), ensure_rng(seed), rounds)
    return Trace(name, graph.n, rounds, events)


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
@dataclass
class QueryRecord:
    """One consumed answer (a ``dist_many`` batch or one ``dist_stream``
    chunk) with everything the oracle needs to judge it."""

    event_index: int
    round: int
    chunk: int
    pairs: np.ndarray
    answers: Optional[np.ndarray]
    error: Optional[str]
    epoch_observed: Optional[int]
    epoch_at_submit: int
    applies_started_at_consume: int


class _RunState:
    """Shared between the writer loop and the reader threads.  A plain
    int read/write — the GIL makes the snapshots the readers take
    well-defined, and ``applies_started`` is bumped *before* the apply
    call so a consumed answer can never have been served by an epoch
    the counter does not yet cover."""

    __slots__ = ("applies_started",)

    def __init__(self):
        self.applies_started = 0


def _drive_query(session, slot_lock: threading.Lock, ev: QueryEvent,
                 idx: int, state: _RunState) -> list[QueryRecord]:
    """Run one query event on its session slot; returns the records."""
    arr = np.asarray(ev.pairs, dtype=np.int64).reshape(-1, 2)
    if ev.stream and arr.shape[0] >= 2:
        chunks = np.array_split(arr, min(4, arr.shape[0]))
    else:
        chunks = [arr]
    recs: list[QueryRecord] = []
    with slot_lock:
        e_sub = session.epoch

        def record(answers, error, epoch) -> None:
            i = len(recs)
            recs.append(QueryRecord(
                idx, ev.round, i, chunks[i] if i < len(chunks) else arr,
                answers, error, epoch, e_sub, state.applies_started))

        try:
            if ev.stream:
                for answers in session.dist_stream(iter(chunks)):
                    record(answers, None, session.last_result_epoch)
            else:
                answers = session.dist_many(arr)
                record(answers, None, session.last_result_epoch)
        except QueryError as exc:
            record(None, str(exc), None)
    return recs


@dataclass
class ScenarioResult:
    """Everything one :func:`run_scenario` replay recorded:
    ``applies`` holds ``(event index, UpdateReport)`` per apply, and
    ``staleness_results`` sums ``staleness_stats()["results"]`` over
    every session."""

    trace: Trace
    queries: list
    applies: list
    staleness_results: int
    oracle_report: Optional[dict] = None

    @property
    def violations(self) -> list:
        if self.oracle_report is None:
            return []
        return list(self.oracle_report["violations"])

    @property
    def ok(self) -> bool:
        """True when the oracle (if armed) found zero violations."""
        return not self.violations


def run_scenario(trace: Trace, endpoint: str, *, source=None,
                 oracle: Optional["ScenarioOracle"] = None,
                 query_threads: int = 2) -> ScenarioResult:
    """Replay ``trace`` against an endpoint and record every answer.

    :param endpoint: ``inproc://...`` (``source`` required; one shared
        server, reader sessions on top), a remote ``tcp://host:port``
        (``source`` forbidden — the server owns the index), or the bare
        sentinel ``"tcp://"``: serve ``source`` on a fresh loopback
        listener and drive it over real sockets.
    :param oracle: an armed :class:`ScenarioOracle` verifies the run
        post-hoc and its report lands in ``result.oracle_report``.
    :param query_threads: reader sessions (and pool threads) the query
        events fan out across.

    Rounds are joined before the next one starts, so a trace's round
    structure is a real happens-before structure.
    """
    ep = endpoint
    server: Optional[OracleServer] = None
    writer = None
    sessions: list = []
    try:
        if ep == "tcp://":
            if source is None:
                raise ConfigError(
                    "the bare tcp:// sentinel serves a local source on a "
                    "loopback listener — pass source=")
            server = OracleServer(source, cache_size=CACHE)
            host, port = server.serve("127.0.0.1:0", block=False)
            ep = f"tcp://{host}:{port}"
        elif parse_endpoint(ep).transport == "tcp":
            if source is not None:
                raise ConfigError(
                    "a tcp://host:port session carries no data — drop "
                    "source= (or use the bare 'tcp://' sentinel to "
                    "loopback-serve it)")
        elif source is None:
            raise ConfigError(f"{ep!r} needs a source= to serve")
        if ep.startswith("tcp://"):
            writer = connect(ep)
            sessions = [connect(ep) for _ in range(query_threads)]
        else:
            writer = connect(ep, source)  # owns the server it creates
            sessions = [writer._transport._server.client(ep)
                        for _ in range(query_threads)]
        if trace.n != writer.n:
            raise ConfigError(
                f"trace is for an n={trace.n} graph but the endpoint "
                f"serves n={writer.n}")

        state = _RunState()
        slot_locks = [threading.Lock() for _ in sessions]
        queries: list[QueryRecord] = []
        applies: list = []
        by_round = trace.by_round()
        next_slot = 0
        with ThreadPoolExecutor(max_workers=query_threads,
                                thread_name_prefix="scenario-query") as pool:
            for r in range(trace.rounds):
                futures = []
                churn: list[tuple[int, ChurnEvent]] = []
                for idx, ev in by_round.get(r, ()):
                    if isinstance(ev, QueryEvent):
                        slot = next_slot % len(sessions)
                        next_slot += 1
                        futures.append(pool.submit(
                            _drive_query, sessions[slot], slot_locks[slot],
                            ev, idx, state))
                    else:
                        churn.append((idx, ev))
                for idx, ev in churn:
                    state.applies_started += 1
                    applies.append(
                        (idx, writer.apply_updates(list(ev.changes))))
                for fut in futures:
                    queries.extend(fut.result())
        seen = sum(s.staleness_stats()["results"]
                   for s in sessions + [writer])
    finally:
        for s in sessions:
            s.close()
        if writer is not None:
            writer.close()
        if server is not None:
            server.close()
    result = ScenarioResult(trace, queries, applies, seen)
    if oracle is not None:
        result.oracle_report = oracle.verify(trace, result)
    return result


# ----------------------------------------------------------------------
# correctness oracle
# ----------------------------------------------------------------------
class ScenarioOracle:
    """Judge a recorded run against a twin index, epoch by epoch.

    Construction builds the same :func:`tz_index` the server under test
    started from — same graph and seed, which the bit-identity invariant
    makes a *bitwise* twin of the served epoch 0.  :meth:`verify` then
    replays the recorded churn, keeping every epoch's store object alive
    (hot swaps never mutate a previous epoch's store), and checks each
    recorded answer:

    * the observed epoch must exist and be **legal** — at least the
      session's epoch when the query was submitted (monotonic-epoch
      rule) and at most the epoch produced by the last apply that had
      started before the answer was consumed;
    * the answers must be **bit-identical** to the twin store of that
      epoch (``QueryError`` results must likewise reproduce on some
      legal epoch);
    * every :data:`CHECKPOINT_EVERY` applies, and after the last, the
      twin's repaired index is compared against a from-scratch
      :meth:`~repro.service.updates.UpdateableIndex.rebuild_reference`
      on sampled pairs, so the oracle itself cannot drift.

    One oracle verifies one run (the twin is consumed by the replay).
    """

    def __init__(self, graph: Graph, *, seed):
        self._twin = tz_index(graph, seed)
        self._used = False

    @staticmethod
    def _eval(store, arr: np.ndarray):
        try:
            return "ok", store.estimate_many(
                np.ascontiguousarray(arr[:, 0]),
                np.ascontiguousarray(arr[:, 1]))
        except QueryError:
            return "error", None

    def _checkpoint(self, violations: list, at: int) -> None:
        twin = self._twin
        pairs = sample_query_pairs(twin.graph.n, CHECKPOINT_PAIRS, seed=at)
        got_kind, got = self._eval(twin.index, pairs)
        want_kind, want = self._eval(twin.rebuild_reference(), pairs)
        if got_kind != want_kind or (
                got_kind == "ok"
                and (got.shape != want.shape
                     or got.tobytes() != want.tobytes())):
            violations.append({
                "kind": "checkpoint-mismatch", "after_apply": at,
                "epoch": twin.epoch,
                "detail": f"repaired index != reference rebuild "
                          f"({got_kind} vs {want_kind})"})

    def verify(self, trace: Trace, result: ScenarioResult) -> dict:
        if self._used:
            raise ConfigError(
                "this ScenarioOracle already verified a run — the twin "
                "is consumed; build a fresh one")
        self._used = True
        twin = self._twin
        stores = {twin.epoch: twin.index}
        epochs_after = [twin.epoch]
        violations: list[dict] = []
        checkpoints = 0
        for i, (event_index, report) in enumerate(result.applies):
            rep = twin.apply(list(trace.events[event_index].changes))
            if rep.epoch != report.epoch:
                violations.append({
                    "kind": "epoch-divergence", "event": event_index,
                    "twin": rep.epoch, "server": report.epoch,
                    "detail": "twin replay and server disagree on the "
                              "epoch sequence — runs not comparable"})
                break
            stores[rep.epoch] = twin.index
            epochs_after.append(rep.epoch)
            if (i + 1) % CHECKPOINT_EVERY == 0:
                checkpoints += 1
                self._checkpoint(violations, i + 1)
        checkpoints += 1
        self._checkpoint(violations, len(result.applies))
        for rec in result.queries:
            lo = rec.epoch_at_submit
            hi = epochs_after[min(rec.applies_started_at_consume,
                                  len(epochs_after) - 1)]
            legal = [e for e in stores if lo <= e <= hi]
            where = {"event": rec.event_index, "round": rec.round,
                     "chunk": rec.chunk}
            if rec.error is not None:
                if not any(self._eval(stores[e], rec.pairs)[0] == "error"
                           for e in legal):
                    violations.append({
                        "kind": "error-without-cause", **where,
                        "lo": lo, "hi": hi,
                        "detail": f"client saw QueryError ({rec.error}) "
                                  f"but no legal epoch reproduces it"})
                continue
            eo = rec.epoch_observed
            if eo is None or eo not in stores:
                violations.append({
                    "kind": "unknown-epoch", **where, "observed": eo,
                    "detail": "answer pinned to an epoch the replay "
                              "never produced"})
                continue
            if not lo <= eo <= hi:
                violations.append({
                    "kind": "illegal-epoch", **where, "observed": eo,
                    "lo": lo, "hi": hi,
                    "detail": "epoch outside the monotonic-rule window "
                              "the session could legally observe"})
                continue
            kind, want = self._eval(stores[eo], rec.pairs)
            if kind != "ok":
                violations.append({
                    "kind": "answer-where-oracle-errors", **where,
                    "epoch": eo,
                    "detail": "client got answers where the twin raises "
                              "QueryError"})
            elif (want.shape != rec.answers.shape
                    or want.tobytes() != rec.answers.tobytes()):
                bad = int(np.flatnonzero(want != rec.answers)[0]) \
                    if want.shape == rec.answers.shape else -1
                violations.append({
                    "kind": "bitwise-mismatch", **where, "epoch": eo,
                    "first_bad_pair": bad,
                    "detail": "answers not bit-identical to the twin "
                              "store of the observed epoch"})
        return {"checked": len(result.queries), "checkpoints": checkpoints,
                "violations": violations}


def run_named_scenario(name: str, graph: Graph, *, seed, rounds: int,
                       endpoint: str = INPROC,
                       query_threads: int = 2) -> ScenarioResult:
    """Generate the named trace, build the served index and the oracle
    twin from the same ``(graph, seed)``, and replay with the oracle
    armed.  A remote ``tcp://host:port`` endpoint must serve that same
    index (``repro serve GRAPH --updateable --scheme tz --k 2 --seed
    SEED --cache-size CACHE``) or the oracle flags every answer."""
    trace = generate_trace(name, graph, seed=seed, rounds=rounds)
    remote = endpoint != "tcp://" and endpoint.startswith("tcp://")
    return run_scenario(trace, endpoint,
                        source=None if remote else tz_index(graph, seed),
                        oracle=ScenarioOracle(graph, seed=seed),
                        query_threads=query_threads)


# ----------------------------------------------------------------------
# a live `repro serve` daemon
# ----------------------------------------------------------------------
@contextmanager
def served_subprocess(*args) -> Iterator[str]:
    """Run ``python -m repro serve ARGS --addr 127.0.0.1:0`` on this
    checkout's ``src`` and yield the ``tcp://host:port`` it announces;
    the daemon is terminated on exit.

    A daemon that exits without announcing an address is killed and
    reported with everything it printed.  Serving a graph file
    (``--updateable``), build the oracle from ``read_edgelist`` of that
    file, not from the graph object written to it: edge lists store
    weights at ``%.12g``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "repro", "serve", *map(str, args),
            "--addr", "127.0.0.1:0"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          env=env) as proc:
        try:
            lines: list[str] = []
            for line in proc.stdout:
                lines.append(line)
                if " on tcp://" in line:
                    break
            else:
                proc.kill()
                raise AssertionError(
                    f"repro serve exited without an address: "
                    f"{''.join(lines)!r}")
            yield line.rsplit(" on ", 1)[1].strip()
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
