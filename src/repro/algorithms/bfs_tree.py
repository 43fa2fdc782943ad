"""Leader election + BFS spanning tree (paper Section 3.3, setup step).

The paper cites Khan et al. for electing a leader ``r`` and building a BFS
tree "in O(D) <= O(S) rounds and O(|E| log n) messages" and treats the step
as negligible.  We implement the textbook CONGEST construction: **max-ID
flooding**.  Every node floods the largest ID it has heard together with a
hop count; it adopts the sender of the best ``(id, hops)`` announcement as
its tree parent.  After ``D`` rounds the maximum ID has reached everyone
and the parent pointers form a BFS tree rooted at the maximum-ID node.

Nodes do not know ``D``, but they do know ``n`` (model assumption, Section
2.2) and ``D <= n - 1``, so the protocol runs for a fixed horizon of ``n``
rounds, then performs one round of ``adopt`` notifications so every parent
learns its children (needed for the COMPLETE convergecast of the
termination detector).  The message-active prefix is only ``O(D)`` rounds;
the remaining rounds are idle waiting — each node sets a timer for the
horizon and is not called in between — which consumes no bandwidth.  The
simulator charges the idle rounds too, so reported setup-round numbers are
an honest *upper* bound; experiment E4 reports the setup phase separately
so it never contaminates the per-phase measurements of Theorem 3.8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.congest.context import NodeContext
from repro.congest.metrics import RunMetrics
from repro.congest.network import Simulator
from repro.congest.node import NodeProgram
from repro.errors import SimulationError
from repro.graphs.graph import Graph
from repro.rng import SeedLike


@dataclass(frozen=True)
class TreeInfo:
    """A node's local view of the elected tree."""

    leader: int
    parent: Optional[int]  # None iff this node is the leader
    children: tuple[int, ...]
    depth: int

    def is_leader(self) -> bool:
        return self.parent is None


class BFSTreeProgram(NodeProgram):
    """Max-ID flooding election with BFS parents and child discovery.

    Messages: ``("elect", candidate-id, hops)`` during flooding, then one
    ``("adopt",)`` from each node to its final parent.

    The program can be *embedded* in a larger protocol: a host protocol
    constructs it, forwards ``on_start``/``on_round`` calls until
    :attr:`done` becomes True, then reads :meth:`tree`.
    """

    def __init__(self, node: int, n: int, horizon: Optional[int] = None,
                 settle: int = 1):
        self.node = node
        # horizon must exceed the largest possible hop-eccentricity (n - 1)
        self.horizon = int(horizon) if horizon is not None else n
        # extra rounds to wait for adopt deliveries after the horizon —
        # 1 suffices synchronously; bounded-delay runs pass max_delay
        self.settle = max(1, int(settle))
        self.best_id = node
        self.best_hops = 0
        self.parent: Optional[int] = None
        self.children: list[int] = []
        self._adopt_sent = False
        self.done = False

    # --------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        ctx.broadcast(("elect", self.node, 0))
        # the two rounds this protocol counts to: adopt, then done
        ctx.wake_at(self.horizon)
        ctx.wake_at(self.horizon + self.settle)

    def on_round(self, ctx: NodeContext, inbox: dict[int, Any]) -> None:
        improved = False
        for w, payload in inbox.items():
            if not isinstance(payload, tuple):
                continue
            if payload[0] == "elect":
                _, cand, hops = payload
                if (cand > self.best_id
                        or (cand == self.best_id and hops + 1 < self.best_hops)):
                    self.best_id = cand
                    self.best_hops = hops + 1
                    self.parent = w
                    improved = True
            elif payload[0] == "adopt":
                self.children.append(w)
        if improved:
            # announce once per round, after absorbing all of this round's
            # mail — a second improvement in the same round would otherwise
            # put two messages on one edge
            ctx.broadcast(("elect", self.best_id, self.best_hops))

        if ctx.round >= self.horizon and not self._adopt_sent:
            self._adopt_sent = True
            if self.parent is not None:
                ctx.send(self.parent, ("adopt",))
        if ctx.round >= self.horizon + self.settle:
            self.done = True

    # --------------------------------------------------------------
    def tree(self) -> TreeInfo:
        if not self.done:
            raise SimulationError("BFS tree queried before completion")
        return TreeInfo(leader=self.best_id, parent=self.parent,
                        children=tuple(sorted(self.children)),
                        depth=self.best_hops)

    def result(self) -> TreeInfo:
        return self.tree()


def build_bfs_tree(graph: Graph, seed: SeedLike = None,
                   horizon: Optional[int] = None,
                   ) -> tuple[list[TreeInfo], RunMetrics]:
    """Standalone election run. Returns per-node :class:`TreeInfo` + metrics."""
    n = graph.n
    sim = Simulator(graph, lambda u: BFSTreeProgram(u, n, horizon=horizon),
                    seed=seed)
    res = sim.run()
    return [p.result() for p in res.programs], res.metrics
