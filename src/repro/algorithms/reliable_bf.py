"""Retransmitting Bellman-Ford: correctness under message loss.

The paper's protocols assume reliable synchronous links (Section 2.2) and
its conclusion names "failure-prone settings" as future work.  This module
takes the first step the paper gestures at: plain Bellman-Ford becomes
robust to independent message loss if every node periodically rebroadcasts
its current best distance — the classic soft-state repair idea.

:class:`ReliableBellmanFordProgram` rebroadcasts every ``period`` rounds
while it has been "recently active" and stops after ``patience`` silent
periods, giving a protocol that (a) converges to exact distances provided
each edge eventually delivers (probability 1 under i.i.d. loss < 1) and
(b) terminates.  The fault-injection tests drive it through loss rates up
to 50% and assert exact convergence, and show that the *non*-retransmitting
Algorithm 1 visibly fails under the same faults (wrong distances at
quiescence) — motivating exactly the future work the paper names.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.congest.context import NodeContext
from repro.congest.faults import FaultModel, FaultySimulator
from repro.congest.metrics import RunMetrics
from repro.congest.node import NodeProgram
from repro.errors import ConfigError
from repro.graphs.graph import Graph
from repro.rng import SeedLike


class ReliableBellmanFordProgram(NodeProgram):
    """Single-source BF with periodic soft-state rebroadcast.

    Parameters
    ----------
    period:
        Rebroadcast the current distance every ``period`` rounds.
    patience:
        Stop rebroadcasting after this many consecutive periods with no
        improvement anywhere in the local view (the node goes quiet; a
        later improvement wakes it again).
    """

    KIND = "rbf"

    def __init__(self, node: int, source: int, period: int = 2,
                 patience: int = 8):
        if period < 1 or patience < 1:
            raise ConfigError("period and patience must be >= 1")
        self.node = node
        self.is_source = node == source
        self.dist: float = 0.0 if self.is_source else math.inf
        self.period = period
        self.patience = patience
        self._quiet_periods = 0
        self._done = self.dist == math.inf  # non-sources start dormant

    def on_start(self, ctx: NodeContext) -> None:
        if self.is_source:
            ctx.broadcast((self.KIND, 0.0))
            ctx.wake_at(self.period)

    def on_round(self, ctx: NodeContext, inbox: dict[int, Any]) -> None:
        improved = False
        for w, payload in inbox.items():
            if not (isinstance(payload, tuple) and payload[0] == self.KIND):
                continue
            z = payload[1] + ctx.edge_weight(w)
            if z < self.dist:
                self.dist = z
                improved = True
        if improved:
            self._quiet_periods = 0
            self._done = False
            ctx.broadcast((self.KIND, self.dist))
        elif self._done or math.isinf(self.dist):
            return  # dormant until an improvement arrives
        elif ctx.round % self.period == 0:
            # soft-state repair: periodically re-announce the current value
            # so a lost message is eventually replaced
            self._quiet_periods += 1
            if self._quiet_periods > self.patience:
                self._done = True
                return
            ctx.broadcast((self.KIND, self.dist))
        # still repairing: be called at the next period even without mail
        ctx.wake_at(ctx.round - ctx.round % self.period + self.period)

    def result(self) -> float:
        return self.dist


def reliable_single_source_distances(
        graph: Graph, source: int,
        loss_rate: float = 0.0,
        crashes: Optional[dict[int, int]] = None,
        seed: SeedLike = None,
        fault_seed: SeedLike = None,
        period: int = 2,
        patience: int = 8,
        max_rounds: int = 200_000,
) -> tuple[list[float], FaultModel, RunMetrics]:
    """Run retransmitting BF under a fault model.

    Returns ``(distances, fault_model, metrics)`` — the fault model carries
    the drop/block counters for reporting.
    """
    fm = FaultModel(loss_rate=loss_rate, crashes=dict(crashes or {}),
                    seed=fault_seed)
    sim = FaultySimulator(
        graph,
        lambda u: ReliableBellmanFordProgram(u, source, period=period,
                                             patience=patience),
        seed=seed, fault_model=fm)
    res = sim.run(max_rounds=max_rounds)
    return [p.result() for p in res.programs], fm, res.metrics
