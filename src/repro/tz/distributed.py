"""Distributed Thorup–Zwick sketch construction — paper Algorithm 2 + §3.3.

The protocol runs ``k`` phases **top-down** (``i = k-1`` … ``0``).  In phase
``i`` the sources are ``A_i \\ A_{i+1}`` and every node ``u`` participates
for a source ``v`` only while ``DistKey(d'(v), v) < DistKey(d(u, A_{i+1}),
p_{i+1}(u))`` — the threshold computed by ``u`` itself at the end of phase
``i+1``.  At the end of phase ``i`` the accepted sources *are* ``B_i(u)``,
and the level-``i`` pivot follows from the recursion
``d(u, A_i) = min(min_{w ∈ B_i(u)} d(u, w), d(u, A_{i+1}))``.

Three synchronization modes decide *when a phase ends*:

``oracle``
    The simulator detects global quiescence and advances every node at
    once.  Zero protocol overhead; rounds are a lower bound on the honest
    protocols.  (This is a measurement device, not a CONGEST protocol.)
``known_smax``
    The paper's Section 3.2 assumption — "every node knows S" — made
    concrete: every phase gets a fixed round budget derived from ``S``
    (``budget="whp"``: the Lemma 3.7 bound ``O(n^{1/k} S log n)`` with
    explicit constants; ``budget="safe"``: the deterministic ``S·(n+2)``
    fallback).  A message straggling across a phase boundary raises
    :class:`~repro.errors.ProtocolError` — insufficient budgets fail loudly
    rather than silently corrupting sketches.
``echo``
    The full Section 3.3 machinery, no global knowledge beyond ``n``:
    leader election + BFS tree (max-ID flooding), per-message ECHO
    acknowledgements (:class:`~repro.algorithms.termination.EchoBookkeeper`),
    COMPLETE convergecast up the tree, and START broadcast down the tree.
    A node also advances on *seeing* next-phase data (data can outrun the
    START wave), which is safe because the leader only releases phase
    ``i-1`` after every phase-``i`` cascade has fully settled.

Echo-mode edge discipline: ECHO/COMPLETE/START messages queue per edge and
drain one per edge per round with priority over data; a data broadcast
(which needs *all* incident edges) is deferred to a control-silent round.
The paper bounds this overhead at "at most double the messages and rounds
plus negligible extras"; experiment E4 measures the actual factor.

:func:`build_tz_sketches_distributed` runs the protocol on the columnar
round engine (:class:`repro.congest.columnar.PhasedBellmanFord`).  The
per-node programs below (``TZOracleProgram``, ``TZKnownSProgram``,
``TZEchoProgram``) are the reference it is tested against, and what the
delayed and faulty simulators run.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional, Union

import numpy as np

from repro.algorithms.bfs_tree import BFSTreeProgram, TreeInfo
from repro.algorithms.round_robin import MultiSourceEngine
from repro.algorithms.termination import EchoBookkeeper
from repro.congest.columnar import PhasedBellmanFord
from repro.congest.context import NodeContext
from repro.congest.metrics import RunMetrics
from repro.congest.node import NodeProgram
from repro.distkey import INF_KEY, DistKey
from repro.errors import ConfigError, ProtocolError
from repro.graphs.graph import Graph
from repro.rng import SeedLike
from repro.tz.hierarchy import Hierarchy, tz_artifacts
from repro.tz.sketch import TZLabels, TZSketch

DATA, ECHO, COMPLETE, START = "tzd", "tze", "tzc", "tzs"


# ======================================================================
# shared phase bookkeeping
# ======================================================================
class _TZPhasedProgram(NodeProgram):
    """State common to all three synchronization modes."""

    def __init__(self, node: int, k: int, level: int,
                 phase_marker: Optional[RunMetrics] = None):
        self.node = node
        self.k = k
        self.level = level  # this node's own hierarchy level (its only
        #                     non-local knowledge is k and n, as in the paper)
        self.phase = k      # "before the first phase"
        self.pivot_keys: dict[int, DistKey] = {k: INF_KEY}
        self.bunch: dict[int, tuple[float, int]] = {}
        self.engine: Optional[MultiSourceEngine] = None
        self.done = False
        self.max_queue_len = 0
        self._phase_marker = phase_marker

    # ------------------------------------------------------------------
    def _make_engine(self, i: int, listener=None) -> MultiSourceEngine:
        return MultiSourceEngine(
            self.node, kind=DATA, threshold=self.pivot_keys[i + 1],
            listener=listener,
            payload_fn=lambda src, d, _p=i: (DATA, _p, src, d))

    def _finalize_phase(self) -> None:
        """Record ``B_i(u)`` and fold the level-``i`` pivot recursion."""
        eng = self.engine
        if eng is None:
            return
        i = self.phase
        best = self.pivot_keys[i + 1]
        for src, d in eng.dist.items():
            self.bunch[src] = (d, i)
            key = DistKey(d, src)
            if key < best:
                best = key
        self.pivot_keys[i] = best
        self.max_queue_len = max(self.max_queue_len, eng.max_queue_len)

    def _mark_phase(self, i: int) -> None:
        if self._phase_marker is not None:
            self._phase_marker.begin_phase(f"phase-{i}")

    def finished(self) -> bool:
        return self.done

    def has_pending(self) -> bool:
        return self.engine is not None and self.engine.pending()

    # ------------------------------------------------------------------
    def sketch(self) -> TZSketch:
        if not self.done:
            raise ProtocolError(f"node {self.node}: sketch read before "
                                f"protocol completion")
        pivots = tuple((self.pivot_keys[i].node, self.pivot_keys[i].dist)
                       for i in range(self.k))
        return TZSketch(node=self.node, k=self.k, pivots=pivots,
                        bunch=dict(self.bunch))

    def result(self) -> TZSketch:
        return self.sketch()


# ======================================================================
# oracle synchronization
# ======================================================================
class TZOracleProgram(_TZPhasedProgram):
    """Phases advance at simulator-detected global quiescence."""

    def on_start(self, ctx: NodeContext) -> None:
        self._advance(ctx)

    def _advance(self, ctx: NodeContext) -> None:
        self._finalize_phase()
        self.phase -= 1
        if self.phase < 0:
            self.engine = None
            self.done = True
            return
        self._mark_phase(self.phase)
        self.engine = self._make_engine(self.phase)
        if self.level == self.phase:
            self.engine.enqueue_source()

    def on_round(self, ctx: NodeContext, inbox: dict[int, Any]) -> None:
        eng = self.engine
        if eng is None:
            return
        for w, payload in inbox.items():
            if payload[0] != DATA:
                continue
            if payload[1] != self.phase:
                raise ProtocolError(
                    f"node {self.node}: phase-{payload[1]} data in phase "
                    f"{self.phase} under oracle sync")
            eng.accept(payload[2], payload[3], w, ctx.edge_weight(w))
        eng.serve(ctx)

    def on_quiescent(self, ctx: NodeContext) -> None:
        if not self.done:
            self._advance(ctx)


# ======================================================================
# known-S synchronization
# ======================================================================
class TZKnownSProgram(_TZPhasedProgram):
    """Fixed per-phase round budgets (the paper's "every node knows S")."""

    def __init__(self, node: int, k: int, level: int, budgets: list[int],
                 phase_marker: Optional[RunMetrics] = None):
        super().__init__(node, k, level, phase_marker)
        if len(budgets) != k:
            raise ConfigError("need one budget per phase")
        self.budgets = budgets  # indexed by phase i
        self.phase_end = 0

    def on_start(self, ctx: NodeContext) -> None:
        self._advance(ctx)

    def _advance(self, ctx: NodeContext) -> None:
        self._finalize_phase()
        self.phase -= 1
        if self.phase < 0:
            self.engine = None
            self.done = True
            return
        self._mark_phase(self.phase)
        self.phase_end += self.budgets[self.phase]
        # the budget is the one thing this protocol counts rounds for
        # (a phase lasts at least the round it starts in)
        ctx.wake_at(max(self.phase_end, ctx.round) + 1)
        self.engine = self._make_engine(self.phase)
        if self.level == self.phase:
            self.engine.enqueue_source()

    def on_round(self, ctx: NodeContext, inbox: dict[int, Any]) -> None:
        if not self.done and ctx.round > self.phase_end:
            self._advance(ctx)
        if self.done:
            if inbox:
                raise ProtocolError(
                    f"node {self.node}: message after protocol end — "
                    f"phase budgets too small")
            return
        eng = self.engine
        for w, payload in inbox.items():
            if payload[0] != DATA:
                continue
            if payload[1] != self.phase:
                raise ProtocolError(
                    f"node {self.node}: phase-{payload[1]} data in phase "
                    f"{self.phase} — budget for phase {payload[1]} too small")
            eng.accept(payload[2], payload[3], w, ctx.edge_weight(w))
        eng.serve(ctx)


def phase_budgets(n: int, k: int, S: int, mode: str = "whp",
                  universe_size: Optional[int] = None,
                  whp_constant: float = 3.0) -> list[int]:
    """Per-phase round budgets for known-S synchronization.

    ``whp`` instantiates Lemma 3.7's ``O(n^{1/k} S log n)`` with the
    explicit Lemma 3.6 constant (bunches exceed ``c · U^{1/k} ln U`` with
    probability ``<= 1/U^c``); ``safe`` is the deterministic fallback
    ``S · (U + 2)`` (a queue can never hold more than ``U`` sources).
    """
    U = n if universe_size is None else universe_size
    if S < 1:
        raise ConfigError("S must be >= 1")
    if mode == "safe":
        per = S * (U + 2) + 2
    elif mode == "whp":
        occupancy = math.ceil(whp_constant * U ** (1.0 / k) * math.log(max(U, 2))) + 2
        per = S * occupancy + 2
    else:
        raise ConfigError(f"unknown budget mode {mode!r}")
    return [int(per)] * k


# ======================================================================
# echo synchronization (paper Section 3.3)
# ======================================================================
class TZEchoProgram(_TZPhasedProgram):
    """Full in-protocol termination detection.

    Wire formats (word counts within the Section 2.2 budget):

    * ``("tzd", phase, source, dist)`` — Bellman-Ford data broadcast,
    * ``("tze", phase, source, quoted-dist)`` — ECHO of one data message,
    * ``("tzc", phase)`` — COMPLETE, child → parent on the BFS tree,
    * ``("tzs", phase)`` — START, parent → children (phase ``-1`` = done),
    * ``("elect", id, hops)`` / ``("adopt",)`` — setup (see
      :mod:`repro.algorithms.bfs_tree`).
    """

    def __init__(self, node: int, n: int, k: int, level: int,
                 horizon: Optional[int] = None, settle: int = 1,
                 phase_marker: Optional[RunMetrics] = None):
        super().__init__(node, k, level, phase_marker)
        self.n = n
        self.stage = "elect"
        self.elect = BFSTreeProgram(node, n,
                                    horizon=(n + 1) if horizon is None else horizon,
                                    settle=settle)
        self.tree: Optional[TreeInfo] = None
        self.tree_neighbors: tuple[int, ...] = ()
        self.book: Optional[EchoBookkeeper] = None
        #: neighbor -> nonempty FIFO of control payloads (COMPLETE/START
        #: forwards); a drained queue is removed
        self.control: dict[int, deque] = {}
        self.self_complete = False
        self.complete_sent = False
        self.children_complete: dict[int, set[int]] = {}
        self._start_forwarded: set[int] = set()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _push_control(self, to: int, payload: tuple) -> None:
        self.control.setdefault(to, deque()).append(payload)

    def _on_source_complete(self) -> None:
        self.self_complete = True

    # ------------------------------------------------------------------
    # phase lifecycle
    # ------------------------------------------------------------------
    def _enter_phase(self, i: int) -> None:
        self.phase = i
        self._mark_phase(i)
        self.complete_sent = False
        self.book = EchoBookkeeper(self.node, self.tree_neighbors,
                                   on_complete=self._on_source_complete)
        self.engine = self._make_engine(i, listener=self.book)
        if self.level == i:
            self.self_complete = False  # complete once our cascade settles
            self.engine.enqueue_source()
        else:
            self.self_complete = True   # non-sources are complete up front

    def _advance_phase(self) -> None:
        if self.book is not None and not self.book.quiet():
            raise ProtocolError(
                f"node {self.node}: advancing out of phase {self.phase} "
                f"with unsettled echoes — termination detection bug")
        self._finalize_phase()
        nxt = self.phase - 1
        if nxt < 0:
            self.phase = -1
            self.engine = None
            self.book = None
            self.done = True
            return
        self._enter_phase(nxt)

    def _handle_start(self, ph: int, frm: int) -> None:
        if frm != self.tree.parent:
            raise ProtocolError(f"node {self.node}: START from non-parent {frm}")
        if ph == self.phase - 1:
            self._advance_phase()
        elif ph >= self.phase:
            pass  # already advanced via next-phase data
        else:
            raise ProtocolError(
                f"node {self.node}: START({ph}) while in phase {self.phase} "
                f"skipped a phase — FIFO control ordering violated")
        self._forward_start(ph)

    def _forward_start(self, ph: int) -> None:
        if ph in self._start_forwarded:
            return
        self._start_forwarded.add(ph)
        for c in self.tree.children:
            self._push_control(c, (START, ph))

    def _complete_ready(self) -> bool:
        """Self-complete, every child of the BFS tree reported for the
        current phase, and COMPLETE not yet sent."""
        if self.done or self.complete_sent or not self.self_complete:
            return False
        children = self.tree.children
        if not children:
            return True
        reported = self.children_complete.get(self.phase)
        return reported is not None and reported.issuperset(children)

    def _maybe_complete(self) -> None:
        """COMPLETE convergecast: fire once :meth:`_complete_ready`."""
        if not self._complete_ready():
            return
        self.complete_sent = True
        if self.tree.parent is not None:
            self._push_control(self.tree.parent, (COMPLETE, self.phase))
        else:
            # leader: the phase is globally over — release the next one
            self._forward_start(self.phase - 1)
            self._advance_phase()

    # ------------------------------------------------------------------
    # NodeProgram interface
    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        self.elect.on_start(ctx)

    def on_round(self, ctx: NodeContext, inbox: dict[int, Any]) -> None:
        if self.stage == "elect":
            self.elect.on_round(ctx, inbox)
            if not self.elect.done:
                return
            self.tree = self.elect.tree()
            self.tree_neighbors = ctx.neighbors
            self.stage = "run"
            self._enter_phase(self.k - 1)
            inbox = {}

        # 1. absorb this round's mail
        for w, payload in inbox.items():
            kind = payload[0]
            if kind == DATA:
                _, ph, src, a = payload
                if ph == self.phase - 1:
                    # data outran the START wave: the leader has already
                    # certified phase `self.phase` complete, so advance now
                    self._advance_phase()
                elif ph != self.phase:
                    raise ProtocolError(
                        f"node {self.node}: phase-{ph} data while in phase "
                        f"{self.phase}")
                self.engine.accept(src, a, w, ctx.edge_weight(w))
            elif kind == ECHO:
                self.book.receive_echo(w, payload[2], payload[3])
            elif kind == COMPLETE:
                if w not in self.tree.children:
                    raise ProtocolError(
                        f"node {self.node}: COMPLETE from non-child {w}")
                self.children_complete.setdefault(payload[1], set()).add(w)
            elif kind == START:
                self._handle_start(payload[1], w)

        # 2. convergecast bookkeeping (may trigger leader phase release)
        self._maybe_complete()

        # 3. edge discipline: control messages first, one per edge —
        # only the edges with a queued COMPLETE/START or an owed ECHO are
        # touched, in neighbor order ...
        control, book = self.control, self.book
        owed = book.owed if book is not None else {}
        if control or owed:
            for v in sorted(control.keys() | owed.keys()):
                q = control.get(v)
                if q is not None:
                    ctx.send(v, q.popleft())
                    if not q:
                        del control[v]
                else:
                    src, quoted = book.pop_owed(v)
                    ctx.send(v, (ECHO, self.phase, src, quoted))
        # ... then (in a control-silent round) one data broadcast
        elif self.engine is not None:
            self.engine.serve(ctx)

    def has_pending(self) -> bool:
        if self.stage == "elect":
            return False  # the election waits on its timers, not on work
        return bool(self.control
                    or (self.book is not None and self.book.owed)
                    or (self.engine is not None and self.engine.pending())
                    or self._complete_ready())


# ======================================================================
# driver
# ======================================================================
@dataclass
class TZDistributedResult:
    """Everything a distributed build hands back."""

    sketches: list[TZSketch]
    hierarchy: Hierarchy
    metrics: RunMetrics
    sync: str
    max_queue_len: int
    tree_depth: Optional[int] = None  # echo mode only

    def sizes_words(self) -> list[int]:
        return [s.size_words() for s in self.sketches]


def build_tz_sketches_distributed(
        graph: Graph,
        k: Optional[int] = None,
        hierarchy: Optional[Hierarchy] = None,
        sync: str = "oracle",
        seed: SeedLike = None,
        S: Optional[int] = None,
        budget: Union[str, list[int]] = "whp",
        phase_metrics: bool = True,
        max_rounds: int = 5_000_000,
) -> TZDistributedResult:
    """Run the distributed Thorup–Zwick construction (Theorem 3.8).

    Parameters
    ----------
    graph:
        Connected weighted graph (the CONGEST network).
    k / hierarchy:
        Stretch parameter (a hierarchy is sampled with the paper's
        ``n^{-1/k}``), or an explicit hierarchy to share randomness with a
        centralized twin.
    sync:
        ``"oracle"``, ``"known_smax"`` or ``"echo"`` (see module docstring).
    S:
        Shortest-path diameter; required by ``known_smax`` only.
    budget:
        ``"whp"`` / ``"safe"`` / explicit per-phase round list, for
        ``known_smax``.
    """
    hierarchy = tz_artifacts(graph, seed,
                             {"k": k, "hierarchy": hierarchy})["hierarchy"]
    kk = hierarchy.k
    budgets = None
    if sync == "known_smax":
        if S is None:
            raise ConfigError("known_smax sync requires S")
        if isinstance(budget, str):
            budgets = phase_budgets(graph.n, kk, S, mode=budget,
                                    universe_size=int(hierarchy.universe().size))
        else:
            budgets = [int(b) for b in budget]
    elif sync not in ("oracle", "echo"):
        raise ConfigError(f"unknown sync mode {sync!r}")

    run = PhasedBellmanFord(graph, hierarchy.level, kk, seed=seed,
                            mark_phases=phase_metrics, max_rounds=max_rounds)
    run.run(sync, budgets)
    # a plain list: a caller's per-pair loop indexes it directly
    owner, src, dist = run.entries()
    sketches = list(TZLabels(kk, np.arange(run.n), run.piv_n, run.piv_d,
                             owner, src, dist, hierarchy.level[src]))
    return TZDistributedResult(sketches=sketches,
                               hierarchy=hierarchy, metrics=run.metrics,
                               sync=sync, max_queue_len=run.max_q,
                               tree_depth=run.tree_depth)


def tz_distributed(graph: Graph, seed: SeedLike, params: dict):
    """The tz registry row's distributed build, in the row's shape:
    ``(sketches, artifacts, metrics, extras)``."""
    res = build_tz_sketches_distributed(graph, seed=seed, **params)
    return (res.sketches, {"k": res.hierarchy.k, "hierarchy": res.hierarchy},
            res.metrics, {"max_queue_len": res.max_queue_len,
                          "tree_depth": res.tree_depth, "sync": res.sync})
