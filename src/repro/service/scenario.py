"""Event-driven churn + query scenario harness.

The update path (:mod:`repro.service.updates`) and the async serving
tier (:mod:`repro.service.server`) are property-tested in isolation;
this module exercises them *together*, the way a live deployment would:
interleaved edge churn and query traffic replayed against any
:func:`~repro.service.client.connect` endpoint, with a correctness
oracle asserting every answer was bit-identical to some epoch the
client could legally observe.

Three layers:

* **Trace model** — :class:`QueryEvent` / :class:`ChurnEvent` grouped
  into seeded rounds (:class:`Trace`), saved and loaded as JSONL, and
  produced by the named generators in :data:`SCENARIOS` (flash crowd,
  rolling regional churn, adversarial weight flapping, disconnect/heal
  cycles, steady-state mix).  Generators maintain a shadow copy of the
  graph while emitting changes, so every trace is valid by
  construction: ``increase`` really increases, ``remove`` targets a
  live edge, and replaying the churn stream on the seed graph is
  always well defined.

* **Runner** — :func:`run_scenario` replays a trace round by round:
  query events fan out across a thread pool of reader sessions
  (``dist_many`` and pipelined ``dist_stream``) while the writer
  session issues ``apply_updates`` hot swaps, recording per-event
  latency, the epoch each answer was pinned to vs the epochs the
  session could have observed, and the hot-swap stall time.  The
  endpoint may be ``inproc://...``, a remote
  ``tcp://host:port``, or the bare sentinel ``"tcp://"`` — serve the
  given source on a loopback listener and drive it over real sockets.

* **Oracle** — :class:`ScenarioOracle` replays the applied churn on a
  twin :class:`~repro.service.updates.UpdateableIndex`, keeping every
  epoch's store alive, and verifies post-hoc that each recorded answer
  is bitwise equal to the twin's answer at the observed epoch *and*
  that the observed epoch was legal under the monotonic-epoch rule:
  no older than the session's epoch when the query was submitted, no
  newer than the last apply started before the answer was consumed.
  At checkpoints the twin is additionally compared against a
  from-scratch :meth:`~repro.service.updates.UpdateableIndex.
  rebuild_reference` — the repair path itself stays on trial.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigError, QueryError
from repro.graphs.graph import Graph
from repro.rng import SeedLike, ensure_rng
from repro.service.bench import sample_query_pairs
from repro.service.client import OracleClient, connect, parse_endpoint
from repro.service.server import OracleServer
from repro.service.session import UpdateReport
from repro.service.updates import EdgeChange, UpdateableIndex

#: JSONL trace container version (the header line's ``"v"``).
TRACE_FORMAT_VERSION = 1


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

    def pair_array(self) -> np.ndarray:
        return np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True)
class ChurnEvent:
    """An edge-change batch applied in ``round`` (one
    ``apply_updates`` call → at most one epoch bump)."""

    round: int
    changes: tuple[EdgeChange, ...]


Event = Union[QueryEvent, ChurnEvent]


@dataclass
class Trace:
    """A seeded, round-based event queue.

    Events carry the round they fire in; within a round the runner
    submits every query event to the reader pool first, then applies
    the churn events sequentially — so queries race the hot swap, which
    is the point.  ``seed`` and ``name`` are provenance (the generator
    inputs), not consumed at replay time."""

    name: str
    n: int
    rounds: int
    seed: int
    events: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

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

    # -- shape ---------------------------------------------------------
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

    # -- persistence ---------------------------------------------------
    def save_jsonl(self, path) -> None:
        """One header line, then one line per event, in order."""
        from repro.oracle.serialization import change_to_dict

        with open(path, "w", encoding="ascii") as fh:
            header = {"kind": "trace", "v": TRACE_FORMAT_VERSION,
                      "name": self.name, "n": self.n,
                      "rounds": self.rounds, "seed": self.seed,
                      "meta": self.meta}
            fh.write(json.dumps(header, separators=(",", ":")) + "\n")
            for ev in self.events:
                if isinstance(ev, QueryEvent):
                    line = {"kind": "query", "round": ev.round,
                            "stream": ev.stream,
                            "pairs": [[int(u), int(v)]
                                      for u, v in ev.pairs]}
                else:
                    line = {"kind": "churn", "round": ev.round,
                            "changes": [change_to_dict(c)
                                        for c in ev.changes]}
                fh.write(json.dumps(line, separators=(",", ":")) + "\n")

    @classmethod
    def load_jsonl(cls, path) -> "Trace":
        from repro.oracle.serialization import change_from_dict

        with open(path, "r", encoding="ascii") as fh:
            lines = [ln for ln in (ln.strip() for ln in fh) if ln]
        if not lines:
            raise ConfigError(f"{path}: empty trace file")
        header = json.loads(lines[0])
        if header.get("kind") != "trace":
            raise ConfigError(f"{path}: not a trace file "
                              f"(first line kind={header.get('kind')!r})")
        if header.get("v") != TRACE_FORMAT_VERSION:
            raise ConfigError(f"{path}: trace format v{header.get('v')}, "
                              f"this build reads v{TRACE_FORMAT_VERSION}")
        events: list[Event] = []
        for ln in lines[1:]:
            data = json.loads(ln)
            kind = data.get("kind")
            if kind == "query":
                events.append(QueryEvent(
                    round=int(data["round"]),
                    pairs=tuple((int(u), int(v))
                                for u, v in data["pairs"]),
                    stream=bool(data.get("stream", False))))
            elif kind == "churn":
                events.append(ChurnEvent(
                    round=int(data["round"]),
                    changes=tuple(change_from_dict(c)
                                  for c in data["changes"])))
            else:
                raise ConfigError(
                    f"{path}: unknown trace event kind {kind!r}")
        return cls(name=str(header["name"]), n=int(header["n"]),
                   rounds=int(header["rounds"]), seed=int(header["seed"]),
                   events=events, meta=dict(header.get("meta", {})))


# ----------------------------------------------------------------------
# trace generators
# ----------------------------------------------------------------------
def _require_size(graph: Graph, name: str) -> None:
    if graph.n < 2 or graph.m < 1:
        raise ConfigError(
            f"{name} needs a graph with >= 2 nodes and >= 1 edge")


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
    """Mirror a change batch onto the generator's shadow graph so the
    next batch is emitted against the post-churn state."""
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


def trace_steady_mix(graph: Graph, *, rounds: int = 16, seed: SeedLike = 0,
                     query_batch: int = 24, churn_batch: int = 3,
                     stream_every: int = 4) -> Trace:
    """Steady-state production mix: a query batch every round (every
    ``stream_every``-th one pipelined), a small mixed churn batch
    (set / increase / decrease / insert) every other round."""
    _require_size(graph, "steady-mix")
    rng = ensure_rng(seed)
    work = graph.copy()
    n = work.n
    events: list[Event] = []
    for r in range(rounds):
        stream = stream_every > 0 and (r % stream_every) == stream_every - 1
        events.append(QueryEvent(r, _query_pairs(rng, n, query_batch),
                                 stream=stream))
        if r % 2 != 1:
            continue
        edges = list(work.edges())
        changes: list[EdgeChange] = []
        used: set[tuple[int, int]] = set()
        for _ in range(churn_batch):
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
    return Trace("steady-mix", n, rounds, _seed_int(seed), events,
                 meta={"scenario": "steady-mix"})


def _seed_int(seed: SeedLike) -> int:
    """The integer recorded in trace provenance (0 for None)."""
    if seed is None:
        return 0
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return 0


def trace_flash_crowd(graph: Graph, *, rounds: int = 15, seed: SeedLike = 0,
                      base_batch: int = 8, crowd_batch: int = 48,
                      churn_batch: int = 2) -> Trace:
    """A query storm: background traffic every round, then a middle
    third where each round adds two crowd-sized batches (one of them
    pipelined) while light churn keeps swapping epochs underneath."""
    _require_size(graph, "flash-crowd")
    rng = ensure_rng(seed)
    work = graph.copy()
    n = work.n
    lo = rounds // 3
    hi = max(lo + 1, (2 * rounds) // 3)
    events: list[Event] = []
    for r in range(rounds):
        events.append(QueryEvent(r, _query_pairs(rng, n, base_batch)))
        if lo <= r < hi:
            events.append(QueryEvent(r, _query_pairs(rng, n, crowd_batch)))
            events.append(QueryEvent(r, _query_pairs(rng, n, crowd_batch),
                                     stream=True))
        if r % 3 == 2:
            changes = _perturb_edges(rng, work, churn_batch)
            if changes:
                _apply_to_shadow(work, changes)
                events.append(ChurnEvent(r, tuple(changes)))
    return Trace("flash-crowd", n, rounds, _seed_int(seed), events,
                 meta={"scenario": "flash-crowd",
                       "crowd_rounds": [lo, hi]})


def trace_rolling_churn(graph: Graph, *, rounds: int = 12,
                        seed: SeedLike = 0, regions: int = 4,
                        churn_batch: int = 4,
                        query_batch: int = 24) -> Trace:
    """Rolling regional churn: the node range is cut into ``regions``
    contiguous blocks and a perturbation wave sweeps across them over
    the trace while uniform query traffic continues everywhere."""
    _require_size(graph, "rolling-churn")
    rng = ensure_rng(seed)
    work = graph.copy()
    n = work.n
    regions = max(1, min(int(regions), n))
    span = -(-n // regions)  # ceil
    events: list[Event] = []
    for r in range(rounds):
        events.append(QueryEvent(r, _query_pairs(rng, n, query_batch),
                                 stream=(r % 3 == 1)))
        active = (r * regions) // rounds
        region_edges = [(u, v, w) for u, v, w in work.edges()
                        if u // span == active or v // span == active]
        changes = _perturb_edges(rng, work, churn_batch, edges=region_edges)
        if changes:
            _apply_to_shadow(work, changes)
            events.append(ChurnEvent(r, tuple(changes)))
    return Trace("rolling-churn", n, rounds, _seed_int(seed), events,
                 meta={"scenario": "rolling-churn", "regions": regions})


def trace_weight_flap(graph: Graph, *, rounds: int = 12, seed: SeedLike = 0,
                      flappers: int = 3, query_batch: int = 24,
                      factor: float = 3.0) -> Trace:
    """Adversarial weight flapping: a fixed set of edges alternates
    between its original weight and ``factor``× it every single round
    — the maximally repair-hostile churn (the same frontier dirties
    again and again) — while half the query traffic targets the
    flapping edges' endpoints."""
    _require_size(graph, "weight-flap")
    if not factor > 1.0:
        raise ConfigError(f"flap factor must be > 1, got {factor}")
    rng = ensure_rng(seed)
    work = graph.copy()
    n = work.n
    edges = list(work.edges())
    take = min(int(flappers), len(edges))
    pick = rng.choice(len(edges), size=take, replace=False)
    flap = [edges[int(i)] for i in pick]  # (u, v, original weight)
    endpoints = sorted({x for u, v, _ in flap for x in (u, v)})
    events: list[Event] = []
    for r in range(rounds):
        targeted: list[tuple[int, int]] = []
        for e in endpoints[:max(1, query_batch // 2)]:
            other = int(rng.integers(0, n - 1))
            targeted.append((e, other + 1 if other >= e else other))
        background = _query_pairs(
            rng, n, max(1, query_batch - len(targeted)))
        events.append(QueryEvent(r, tuple(targeted) + background,
                                 stream=(r % 4 == 2)))
        if r % 2 == 0:
            changes = tuple(EdgeChange("increase", u, v, w0 * factor)
                            for u, v, w0 in flap)
        else:
            changes = tuple(EdgeChange("decrease", u, v, w0)
                            for u, v, w0 in flap)
        _apply_to_shadow(work, changes)
        events.append(ChurnEvent(r, changes))
    return Trace("weight-flap", n, rounds, _seed_int(seed), events,
                 meta={"scenario": "weight-flap", "factor": factor,
                       "flapping_edges": [[u, v] for u, v, _ in flap]})


def trace_disconnect_heal(graph: Graph, *, rounds: int = 12,
                          seed: SeedLike = 0, query_batch: int = 16,
                          victims: int = 2) -> Trace:
    """Disconnect/heal cycles: every 4 rounds a victim node has all its
    incident edges removed (isolating it — queries touching it must
    yield ``QueryError`` parity on every transport), then exactly the
    same edges are re-inserted two rounds later.  While a victim is
    down, one query batch deliberately targets it and one avoids it."""
    _require_size(graph, "disconnect-heal")
    rng = ensure_rng(seed)
    work = graph.copy()
    n = work.n
    # prefer low-degree victims: cutting them is cheap and they are
    # least likely to be articulation points stranding bystanders
    cands = sorted(range(n), key=lambda u: (work.degree(u), u))
    cands = cands[:max(8, victims * 4)]
    take = min(max(1, int(victims)), len(cands))
    pick = rng.choice(len(cands), size=take, replace=False)
    vlist = [cands[int(i)] for i in pick]
    removed: dict[int, list[tuple[int, int, float]]] = {}
    events: list[Event] = []
    for r in range(rounds):
        phase = r % 4
        victim = vlist[(r // 4) % len(vlist)]
        if victim in removed:
            others = {victim}
            down = []
            for _ in range(6):
                o = int(rng.integers(0, n - 1))
                o = o + 1 if o >= victim else o
                down.append((victim, o))
            events.append(QueryEvent(r, tuple(down)))
            clean = _pairs_avoiding(rng, n, query_batch, {victim})
            if clean:
                events.append(QueryEvent(r, clean))
        else:
            events.append(QueryEvent(r, _query_pairs(rng, n, query_batch),
                                     stream=(phase == 3)))
        if phase == 0 and victim not in removed and work.degree(victim) > 0:
            cut = [(victim, o, w)
                   for o, w in sorted(work.neighbors(victim).items())]
            changes = tuple(EdgeChange("remove", u, v) for u, v, _ in cut)
            removed[victim] = cut
            _apply_to_shadow(work, changes)
            events.append(ChurnEvent(r, changes))
        elif phase == 2 and victim in removed:
            heal = removed.pop(victim)
            changes = tuple(EdgeChange("insert", u, v, w)
                            for u, v, w in heal)
            _apply_to_shadow(work, changes)
            events.append(ChurnEvent(r, changes))
    return Trace("disconnect-heal", n, rounds, _seed_int(seed), events,
                 meta={"scenario": "disconnect-heal", "victims": vlist})


#: the named scenarios ``generate_trace`` / ``repro scenario`` accept
SCENARIOS: dict[str, Callable[..., Trace]] = {
    "flash-crowd": trace_flash_crowd,
    "rolling-churn": trace_rolling_churn,
    "weight-flap": trace_weight_flap,
    "disconnect-heal": trace_disconnect_heal,
    "steady-mix": trace_steady_mix,
}


def generate_trace(name: str, graph: Graph, *, seed: SeedLike = 0,
                   rounds: Optional[int] = None, **kwargs) -> Trace:
    """Generate a named scenario's trace for ``graph`` (see
    :data:`SCENARIOS`; ``rounds=None`` keeps the scenario default)."""
    try:
        gen = SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; choose from "
            f"{', '.join(sorted(SCENARIOS))}") from None
    if rounds is not None:
        kwargs["rounds"] = int(rounds)
    return gen(graph, seed=seed, **kwargs)


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
    applies_started_at_submit: int
    applies_started_at_consume: int
    latency_s: float
    overlapped: bool


@dataclass
class ApplyRecord:
    """One ``apply_updates`` call: the server's report and the
    wall-clock stall the writer saw."""

    event_index: int
    round: int
    changes: int
    report: UpdateReport
    seconds: float


class _RunState:
    """Shared between the writer loop and the reader threads.  Plain
    int reads/writes — the GIL makes the snapshots the readers take
    well-defined, and ``applies_started`` is bumped *before* the apply
    call so a consumed answer can never have been served by an epoch
    the counter does not yet cover."""

    __slots__ = ("applies_started", "apply_inflight")

    def __init__(self):
        self.applies_started = 0
        self.apply_inflight = 0


def _split_stream(arr: np.ndarray) -> list[np.ndarray]:
    if arr.shape[0] < 2:
        return [arr]
    return np.array_split(arr, min(4, arr.shape[0]))


def _drive_query(session: OracleClient, slot_lock: threading.Lock,
                 ev: QueryEvent, idx: int,
                 state: _RunState) -> list[QueryRecord]:
    """Run one query event on its session slot; returns the records."""
    recs: list[QueryRecord] = []
    arr = ev.pair_array()
    with slot_lock:
        if not ev.stream:
            e_sub = session.epoch
            a_sub = state.applies_started
            t0 = time.perf_counter()
            try:
                answers = session.dist_many(arr)
            except QueryError as exc:
                lat = time.perf_counter() - t0
                a_con = state.applies_started
                recs.append(QueryRecord(
                    idx, ev.round, 0, arr, None, str(exc), None, e_sub,
                    a_sub, a_con, lat,
                    a_con > a_sub or state.apply_inflight > 0))
            else:
                lat = time.perf_counter() - t0
                a_con = state.applies_started
                recs.append(QueryRecord(
                    idx, ev.round, 0, arr, answers, None,
                    session.last_result_epoch, e_sub, a_sub, a_con, lat,
                    a_con > a_sub or state.apply_inflight > 0))
            return recs
        chunks = _split_stream(arr)
        e_sub = session.epoch
        a_sub = state.applies_started
        t_prev = time.perf_counter()
        i = 0
        try:
            for answers in session.dist_stream(iter(chunks)):
                now = time.perf_counter()
                a_con = state.applies_started
                recs.append(QueryRecord(
                    idx, ev.round, i, chunks[i], answers, None,
                    session.last_result_epoch, e_sub, a_sub, a_con,
                    now - t_prev,
                    a_con > a_sub or state.apply_inflight > 0))
                t_prev = now
                i += 1
        except QueryError as exc:
            now = time.perf_counter()
            a_con = state.applies_started
            pairs = chunks[i] if i < len(chunks) else arr
            recs.append(QueryRecord(
                idx, ev.round, i, pairs, None, str(exc), None, e_sub,
                a_sub, a_con, now - t_prev,
                a_con > a_sub or state.apply_inflight > 0))
    return recs


def _pct_ms(vals) -> dict:
    """``{count, p50_ms, p99_ms, max_ms}`` over second-valued samples."""
    vals = [float(v) for v in vals]
    if not vals:
        return {"count": 0, "p50_ms": None, "p99_ms": None, "max_ms": None}
    arr = np.sort(np.asarray(vals, dtype=np.float64))
    return {"count": int(arr.size),
            "p50_ms": float(np.percentile(arr, 50) * 1e3),
            "p99_ms": float(np.percentile(arr, 99) * 1e3),
            "max_ms": float(arr[-1] * 1e3)}


@dataclass
class ScenarioResult:
    """Everything one :func:`run_scenario` replay recorded."""

    trace: Trace
    endpoint: str
    queries: list
    applies: list
    staleness: dict
    seconds: float
    oracle_report: Optional[dict] = None

    @property
    def violations(self) -> list:
        if self.oracle_report is None:
            return []
        return list(self.oracle_report.get("violations", ()))

    @property
    def ok(self) -> bool:
        """True when the oracle (if armed) found zero violations."""
        return not self.violations

    def summary(self) -> dict:
        """A JSON-ready digest (what ``repro scenario`` prints and the
        E19 benchmark aggregates)."""
        lat_all = [r.latency_s for r in self.queries if r.error is None]
        lat_hot = [r.latency_s for r in self.queries
                   if r.error is None and r.overlapped]
        lat_quiet = [r.latency_s for r in self.queries
                     if r.error is None and not r.overlapped]
        errors = sum(1 for r in self.queries if r.error is not None)
        stale = sum(1 for r in self.queries
                    if r.epoch_observed is not None
                    and r.epoch_observed < r.epoch_at_submit)
        modes: dict[str, int] = {}
        for a in self.applies:
            modes[a.report.mode] = modes.get(a.report.mode, 0) + 1
        staleness = {k: v for k, v in self.staleness.items()
                     if k != "windows"}
        staleness["window_ms"] = _pct_ms(self.staleness.get("windows", ()))
        return {
            "trace": {"name": self.trace.name, "n": self.trace.n,
                      "rounds": self.trace.rounds,
                      "seed": self.trace.seed,
                      "events": {"query": len(self.trace.query_events),
                                 "churn": len(self.trace.churn_events)}},
            "endpoint": self.endpoint,
            "seconds": self.seconds,
            "queries": {"records": len(self.queries), "errors": errors,
                        "regressive_epochs": stale,
                        "latency_ms": _pct_ms(lat_all),
                        "latency_under_churn_ms": _pct_ms(lat_hot),
                        "latency_quiet_ms": _pct_ms(lat_quiet)},
            "hotswap": {"applies": len(self.applies), "modes": modes,
                        "stall_ms": _pct_ms(a.seconds
                                            for a in self.applies)},
            "staleness": staleness,
            "oracle": self.oracle_report,
        }


def run_scenario(trace: Trace, endpoint: str = "inproc://", *,
                 source=None, oracle: Optional["ScenarioOracle"] = None,
                 query_threads: int = 2,
                 timeout: float = 30.0) -> ScenarioResult:
    """Replay ``trace`` against an endpoint and record everything.

    :param endpoint: ``inproc://...`` (``source``
        required; one shared server, reader sessions on top), a remote
        ``tcp://host:port`` (``source`` forbidden — the server owns the
        index), or the bare sentinel ``"tcp://"``: serve ``source`` on
        a fresh loopback listener and drive it over real sockets.
    :param source: the :class:`~repro.service.updates.UpdateableIndex`
        to serve for non-remote endpoints (traces with churn need an
        updateable server wherever they run).
    :param oracle: an armed :class:`ScenarioOracle` verifies the run
        post-hoc and its report lands in ``result.oracle_report``.
    :param query_threads: reader sessions (and pool threads) the query
        events fan out across.

    Within a round every query event is submitted to the reader pool
    before the churn events are applied sequentially on the writer
    session — queries race the hot swap by construction.  Rounds are
    joined before the next one starts, so a trace's round structure is
    a real happens-before structure.
    """
    if query_threads < 1:
        raise ConfigError(f"query_threads must be >= 1, got {query_threads}")
    ep = endpoint.strip()
    server: Optional[OracleServer] = None
    owns_server = False
    writer: Optional[OracleClient] = None
    sessions: list[OracleClient] = []
    t_run = time.perf_counter()
    try:
        if ep == "tcp://":
            if source is None:
                raise ConfigError(
                    "the bare tcp:// sentinel serves a local source on a "
                    "loopback listener — pass source=")
            server = OracleServer(source)
            owns_server = True
            host, port = server.serve("127.0.0.1:0", block=False)
            target = f"tcp://{host}:{port}"
            writer = connect(target, timeout=timeout)
            sessions = [connect(target, timeout=timeout)
                        for _ in range(query_threads)]
        elif parse_endpoint(ep).transport == "tcp":
            if source is not None:
                raise ConfigError(
                    "a tcp://host:port session carries no data — drop "
                    "source= (or use the bare 'tcp://' sentinel to "
                    "loopback-serve it)")
            target = ep
            writer = connect(ep, timeout=timeout)
            sessions = [connect(ep, timeout=timeout)
                        for _ in range(query_threads)]
        else:
            if source is None:
                raise ConfigError(f"{ep!r} needs a source= to serve")
            target = ep
            writer = connect(ep, source)  # owns the server it creates
            server = writer._transport._server
            sessions = [server.client(ep) for _ in range(query_threads)]
        if trace.n != writer.n:
            raise ConfigError(
                f"trace is for an n={trace.n} graph but the endpoint "
                f"serves n={writer.n}")

        state = _RunState()
        slot_locks = [threading.Lock() for _ in sessions]
        queries: list[QueryRecord] = []
        applies: list[ApplyRecord] = []
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
                    state.apply_inflight += 1
                    t0 = time.perf_counter()
                    try:
                        report = writer.apply_updates(list(ev.changes))
                    finally:
                        state.apply_inflight -= 1
                    applies.append(ApplyRecord(
                        idx, r, len(ev.changes), report,
                        time.perf_counter() - t0))
                for fut in futures:
                    queries.extend(fut.result())

        staleness = {"results": 0, "stale_results": 0, "max_epoch_lag": 0,
                     "window_count": 0, "window_max_s": 0.0, "windows": []}
        for s in sessions + [writer]:
            st = s.staleness_stats()
            staleness["results"] += st["results"]
            staleness["stale_results"] += st["stale_results"]
            staleness["max_epoch_lag"] = max(staleness["max_epoch_lag"],
                                             st["max_epoch_lag"])
            staleness["window_count"] += st["window_count"]
            staleness["window_max_s"] = max(staleness["window_max_s"],
                                            st["window_max_s"])
            staleness["windows"].extend(st["window_seconds"])
    finally:
        for s in sessions:
            s.close()
        if writer is not None:
            writer.close()
        if owns_server and server is not None:
            server.close()
    result = ScenarioResult(trace=trace, endpoint=target, queries=queries,
                            applies=applies, staleness=staleness,
                            seconds=time.perf_counter() - t_run)
    if oracle is not None:
        result.oracle_report = oracle.verify(trace, result)
    return result


# ----------------------------------------------------------------------
# correctness oracle
# ----------------------------------------------------------------------
class ScenarioOracle:
    """Judge a recorded run against a twin index, epoch by epoch.

    Construction builds the same
    :class:`~repro.service.updates.UpdateableIndex` the server under
    test started from — same graph, scheme, seed, shard count and
    parameters, which the bit-identity invariant makes a *bitwise* twin
    of the served epoch 0.  :meth:`verify` then replays the recorded
    churn, keeping every epoch's store object alive (hot swaps never
    mutate a previous epoch's store), and checks each recorded answer:

    * the observed epoch must exist and be **legal** — at least the
      session's epoch when the query was submitted (monotonic-epoch
      rule) and at most the epoch produced by the last apply that had
      started before the answer was consumed;
    * the answers must be **bit-identical** to the twin store of that
      epoch (``QueryError`` results must likewise reproduce on some
      legal epoch);
    * every ``checkpoint_every`` applies the twin's repaired index is
      compared against a from-scratch
      :meth:`~repro.service.updates.UpdateableIndex.rebuild_reference`
      on sampled pairs, so the oracle itself cannot drift.

    One oracle verifies one run (the twin is consumed by the replay).
    """

    def __init__(self, graph: Graph, *, scheme: str = "tz",
                 seed: SeedLike = 0, num_shards: int = 1,
                 checkpoint_every: int = 4, checkpoint_pairs: int = 64,
                 **params):
        self._twin = UpdateableIndex(graph, scheme, seed,
                                     num_shards=num_shards, **params)
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_pairs = int(checkpoint_pairs)
        self._used = False

    @staticmethod
    def _eval(store, arr: np.ndarray):
        us = np.ascontiguousarray(arr[:, 0])
        vs = np.ascontiguousarray(arr[:, 1])
        try:
            return "ok", store.estimate_many(us, vs)
        except QueryError:
            return "error", None

    def _checkpoint(self, violations: list, at: int) -> None:
        twin = self._twin
        ref = twin.rebuild_reference()
        pairs = sample_query_pairs(twin.graph.n, self.checkpoint_pairs,
                                   seed=at)
        got_kind, got = self._eval(twin.index, pairs)
        want_kind, want = self._eval(ref, pairs)
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
        for i, ap in enumerate(result.applies):
            ev = trace.events[ap.event_index]
            rep = twin.apply(list(ev.changes))
            if rep.epoch != ap.report.epoch:
                violations.append({
                    "kind": "epoch-divergence", "event": ap.event_index,
                    "twin": rep.epoch, "server": ap.report.epoch,
                    "detail": "twin replay and server disagree on the "
                              "epoch sequence — runs not comparable"})
                break
            stores[rep.epoch] = twin.index
            epochs_after.append(rep.epoch)
            if self.checkpoint_every > 0 \
                    and (i + 1) % self.checkpoint_every == 0:
                checkpoints += 1
                self._checkpoint(violations, i + 1)
        checkpoints += 1
        self._checkpoint(violations, len(result.applies))
        checked = 0
        for rec in result.queries:
            checked += 1
            hi_idx = min(rec.applies_started_at_consume,
                         len(epochs_after) - 1)
            lo = rec.epoch_at_submit
            hi = epochs_after[hi_idx]
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
        return {"checked": checked, "applies": len(result.applies),
                "checkpoints": checkpoints,
                "epochs": sorted(stores),
                "violations": violations}


# ----------------------------------------------------------------------
# one-call front door
# ----------------------------------------------------------------------
def run_named_scenario(name: str, graph: Graph, *, scheme: str = "tz",
                       seed: SeedLike = 0, rounds: Optional[int] = None,
                       trace_seed: Optional[SeedLike] = None,
                       endpoint: str = "inproc://",
                       num_shards: int = 1, query_threads: int = 2,
                       oracle: bool = True, checkpoint_every: int = 4,
                       trace: Optional[Trace] = None,
                       timeout: float = 30.0,
                       **params) -> ScenarioResult:
    """Generate (or take) a trace, build the server source and the
    oracle twin from the same ``(graph, scheme, seed, params)``, and
    replay.  For remote ``tcp://host:port`` endpoints the server must
    have been built from the same inputs (the ``repro serve
    --updateable`` daemon on the same edge list) or the oracle will
    flag every answer."""
    if trace is None:
        trace = generate_trace(name, graph,
                               seed=seed if trace_seed is None
                               else trace_seed,
                               rounds=rounds)
    oracle_obj = (ScenarioOracle(graph, scheme=scheme, seed=seed,
                                 num_shards=num_shards,
                                 checkpoint_every=checkpoint_every,
                                 **params)
                  if oracle else None)
    ep = endpoint.strip()
    if ep != "tcp://" and ep.startswith("tcp://"):
        source = None
    else:
        source = UpdateableIndex(graph, scheme, seed,
                                 num_shards=num_shards, **params)
    return run_scenario(trace, ep, source=source, oracle=oracle_obj,
                        query_threads=query_threads, timeout=timeout)


# ----------------------------------------------------------------------
# live-subprocess serving (the acceptance topology)
# ----------------------------------------------------------------------
@contextmanager
def served_subprocess(graph_path, *, scheme: str = "tz",
                      seed: int = 0, shards: int = 1,
                      k: Optional[int] = None,
                      eps: Optional[float] = None,
                      timeout: float = 60.0,
                      extra_args: Sequence[str] = ()) -> Iterator[str]:
    """Spawn ``python -m repro serve GRAPH --updateable ...`` on a free
    loopback port and yield its ``tcp://host:port`` address; the
    daemon is terminated on exit.

    The child runs this checkout's :mod:`repro` (``PYTHONPATH`` is
    injected), so a scenario oracle built from
    ``read_edgelist(graph_path)`` with the same scheme/seed/params is a
    bitwise twin of what the daemon serves — note the *file* is the
    common ground truth: edge lists store weights at ``%.12g``, so
    build the oracle from the file, not from a pre-write graph object.
    """
    argv = [sys.executable, "-m", "repro", "serve", str(graph_path),
            "--updateable", "--scheme", scheme, "--seed", str(seed),
            "--shards", str(shards), "--addr", "127.0.0.1:0"]
    if k is not None:
        argv += ["--k", str(k)]
    if eps is not None:
        argv += ["--eps", str(eps)]
    argv += list(extra_args)
    src = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") \
        if env.get("PYTHONPATH") else src
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=env)
    try:
        deadline = time.monotonic() + timeout
        address = None
        lines: list[str] = []
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
                continue
            lines.append(line)
            if " on tcp://" in line:
                address = line.rsplit(" on ", 1)[1].strip()
                break
        if address is None:
            raise ConfigError(
                "serve subprocess did not come up within "
                f"{timeout:.0f}s: {''.join(lines)!r}")
        yield address
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - hard stop
            proc.kill()
            proc.wait(timeout=10)
