"""The synchronous round engine.

:class:`Simulator` executes one :class:`~repro.congest.node.NodeProgram` per
node of a :class:`~repro.graphs.graph.Graph`, enforcing the CONGEST rules:

* one message per edge per round (checked by the context),
* per-message word budget (checked here against ``bandwidth_words``),
* synchronous delivery: messages sent in round ``r`` are in the inbox at
  round ``r + 1``.

It runs every protocol written as node programs — the k-source,
super-source, election and reliable Bellman-Ford runs, the delayed and
faulty variants, anything traced — while the distributed Thorup–Zwick
build runs on :class:`repro.congest.columnar.PhasedBellmanFord`, which
simulates a round of every node at once (the per-node TZ programs run
here stay its reference).  The engine is event-driven: the cost of a
run is proportional to the messages delivered plus the node callbacks
that have something to do, not to ``n x rounds``.

* A node's ``on_round`` runs in a round iff it has mail, it declared queued
  work (``has_pending()``), or a timer it set (``ctx.wake_at``) is due.
  Skipping everyone else is semantically identical to the synchronous
  model: a node's state changes only inside its own callbacks, and a
  callback with no mail, no queued work and no due timer has nothing to
  act on.
* The set of nodes with queued work is kept incrementally —
  ``has_pending()`` is asked of a node right after its own callback, the
  only moment its answer can change — so no per-round pass over all
  programs exists.  A round in which nobody is woken costs O(1) and is
  still charged to the metrics, one by one.
* A message is metered once, where it is sent: its word count is checked
  against the budget when the sender's outbox is collected and travels
  with the message, so delivery only adds integers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.congest.context import NodeContext
from repro.congest.metrics import RunMetrics
from repro.congest.node import NodeProgram
from repro.congest.tracing import Tracer
from repro.errors import ProtocolError, SimulationError
from repro.graphs.graph import Graph
from repro.rng import SeedLike, ensure_rng, spawn
from repro.words import DEFAULT_BANDWIDTH_WORDS, payload_words

#: The wire format of the simulator — one message in flight:
#: ``(src, dst, payload, words)``.  Payloads are plain tuples of
#: ints/floats/strings (see :mod:`repro.words` for how their size in words
#: is metered); by convention the first element is a short string *kind
#: tag* (``"bf"``, ``"tze"``, ``"tzc"`` ...), which costs one word — the
#: paper absorbs such tags into its O(log n) message-size constant.
InFlight = tuple[int, int, Any, int]

_CONTAINERS = (tuple, list, dict)


@dataclass
class SimulationResult:
    """What a completed run hands back to the caller."""

    programs: list[NodeProgram]
    metrics: RunMetrics

    def results(self) -> list[Any]:
        """Per-node local outputs (``NodeProgram.result()`` for each node)."""
        return [p.result() for p in self.programs]


class Simulator:
    """Synchronous CONGEST executor.

    Parameters
    ----------
    graph:
        The network.  Must be connected for the protocols in this library
        (call ``graph.validate()`` upstream; the simulator itself does not
        require it).
    program_factory:
        ``node_id -> NodeProgram`` constructor; called once per node.
    seed:
        Seed for the per-node private random streams.
    bandwidth_words:
        Per-message word budget *B* (paper Section 2.2, default
        ``repro.words.DEFAULT_BANDWIDTH_WORDS``).
    tracer:
        Optional :class:`~repro.congest.tracing.Tracer` capturing every
        delivery (for debugging small runs; large runs should leave it off).
    """

    def __init__(self, graph: Graph,
                 program_factory: Callable[[int], NodeProgram],
                 seed: SeedLike = None,
                 bandwidth_words: int = DEFAULT_BANDWIDTH_WORDS,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[RunMetrics] = None):
        self.graph = graph
        self.bandwidth_words = int(bandwidth_words)
        if self.bandwidth_words < 1:
            raise ProtocolError("bandwidth_words must be >= 1")
        rng = ensure_rng(seed)
        node_rngs = spawn(rng, graph.n)
        # metrics may be supplied up front so program factories can hold a
        # reference (e.g. a designated node marking phase boundaries)
        self.metrics = metrics if metrics is not None else RunMetrics()
        #: the current round of *this* run (``metrics`` may be an
        #: accumulator that already holds earlier constructions' rounds)
        self.round = 0
        self._pending: set[int] = set()  # nodes whose has_pending() is True
        self._timers: dict[int, set[int]] = {}  # round -> nodes to wake
        #: flat payload type signature -> payload_words
        self._signature_words: dict[tuple, int] = {}
        self.programs: list[NodeProgram] = [program_factory(u) for u in graph.nodes()]
        self.contexts: list[NodeContext] = [
            NodeContext(u, graph.n, graph.neighbors(u), node_rngs[u],
                        self._timers)
            for u in graph.nodes()
        ]
        self.tracer = tracer

    # ------------------------------------------------------------------
    def _collect(self, u: int) -> Sequence[InFlight]:
        """Drain node ``u``'s outbox into in-flight records.

        This is the one place a message is metered: its word count is
        checked against the budget and carried in the record."""
        out = self.contexts[u]._close()
        if not out:
            return ()
        known, budget = self._signature_words, self.bandwidth_words
        sends = []
        last = nwords = None
        for dst, payload in out.items():
            # a broadcast puts one object on every edge: meter it once
            if payload is not last or not sends:
                last = payload
                if type(payload) is tuple:
                    # every valid component of a flat tuple is one word,
                    # so its size is a function of the element types alone
                    signature = tuple(map(type, payload))
                    nwords = known.get(signature)
                    if nwords is None:
                        nwords = payload_words(payload)
                        if not any(issubclass(t, _CONTAINERS)
                                   for t in signature):
                            known[signature] = nwords
                else:
                    nwords = payload_words(payload)
                if nwords > budget:
                    raise ProtocolError(
                        f"node {u}: message to {dst} is {nwords} words, "
                        f"exceeds bandwidth budget of {budget} "
                        f"words/edge/round")
            sends.append((u, dst, payload, nwords))
        return sends

    def _external_pending(self) -> bool:
        """Hook for subclasses holding messages outside the in-flight list
        (e.g. the bounded-delay simulator's link queues)."""
        return False

    def _deliveries(self, round_no: int,
                    inflight: list[InFlight]) -> list[InFlight]:
        """Hook: the messages to deliver in ``round_no`` (default: exactly
        the previous round's sends — synchronous semantics)."""
        return inflight

    def _call_everyone(self, hook: str) -> list[InFlight]:
        """One full pass — ``on_start`` at round 0, the oracle's
        ``on_quiescent`` — returning what the nodes sent."""
        pending = self._pending
        sends: list[InFlight] = []
        for u, (prog, ctx) in enumerate(zip(self.programs, self.contexts)):
            ctx._open(self.round)
            getattr(prog, hook)(ctx)
            sends.extend(self._collect(u))
            if prog.has_pending():
                pending.add(u)
            else:
                pending.discard(u)
        self.metrics.wakeups += len(self.programs)
        return sends

    # ------------------------------------------------------------------
    def run(self, max_rounds: int = 5_000_000) -> SimulationResult:
        """Execute the protocol to quiescence (or ``max_rounds``).

        The network is quiescent when nothing is in flight (or held on a
        subclass's links), no node has queued work and no timer is
        outstanding.  Whenever that happens, every unfinished program's
        ``on_quiescent`` hook fires (repeatedly, until all programs report
        ``finished()``); if the network is still silent afterwards the run
        ends.  This implements the *oracle* synchronizer — protocols
        carrying their own termination detection (paper Section 3.3)
        simply never rely on the hook and terminate by going silent.
        """
        started = time.perf_counter()
        programs, contexts = self.programs, self.contexts
        metrics, tracer = self.metrics, self.tracer
        pending, timers, collect = self._pending, self._timers, self._collect

        inflight = self._call_everyone("on_start")
        idle_spins = 0
        while True:
            if not (inflight or pending or timers
                    or self._external_pending()):
                if all(p.finished() for p in programs):
                    break
                # oracle synchronization point; programs may advance
                # through several traffic-free stages back to back
                idle_spins += 1
                if idle_spins > 10 * self.graph.n + 1000:
                    raise SimulationError(
                        "programs keep requesting quiescence callbacks "
                        "without ever finishing or sending — livelock")
                inflight = self._call_everyone("on_quiescent")
                continue
            idle_spins = 0

            if self.round >= max_rounds:
                raise SimulationError(
                    f"protocol did not quiesce within {max_rounds} rounds "
                    f"({len(inflight)} messages still in flight)")
            self.round = round_no = self.round + 1

            # deliver round_no's mail
            inflight = self._deliveries(round_no, inflight)
            inboxes: dict[int, dict[int, Any]] = {}
            words = 0
            for src, dst, payload, nwords in inflight:
                box = inboxes.get(dst)
                if box is None:
                    inboxes[dst] = {src: payload}
                else:
                    box[src] = payload
                words += nwords
            if tracer is not None:
                for src, dst, payload, _ in inflight:
                    tracer.record(round_no, src, dst, payload)
            metrics.record_round(len(inflight), words)

            # wake exactly the nodes with mail, queued work or a due timer
            wake = pending.union(inboxes, timers.pop(round_no, ()))
            metrics.wakeups += len(wake)
            inflight = []
            empty: dict[int, Any] = {}
            for u in sorted(wake):
                ctx, prog = contexts[u], programs[u]
                ctx._open(round_no)
                prog.on_round(ctx, inboxes.get(u, empty))
                inflight.extend(collect(u))
                if prog.has_pending():
                    pending.add(u)
                else:
                    pending.discard(u)

        metrics.wall_s += time.perf_counter() - started
        return SimulationResult(programs=programs, metrics=metrics)


def run_protocol(graph: Graph, program_factory: Callable[[int], NodeProgram],
                 seed: SeedLike = None, **kwargs) -> SimulationResult:
    """One-shot convenience wrapper: build a :class:`Simulator` and run it."""
    sim = Simulator(graph, program_factory, seed=seed,
                    bandwidth_words=kwargs.pop("bandwidth_words", DEFAULT_BANDWIDTH_WORDS),
                    tracer=kwargs.pop("tracer", None),
                    metrics=kwargs.pop("metrics", None))
    return sim.run(**kwargs)
