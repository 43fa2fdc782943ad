"""Failure injection: lossy links and crash faults.

The paper closes by calling out "failure-prone and asynchronous settings"
as the natural next step (Section 5).  This module provides the substrate
to study that direction experimentally:

* :class:`FaultModel` — per-message independent loss with probability
  ``loss_rate``, plus crash faults (a node stops sending and receiving
  from a given round on).  Loss decisions come from a dedicated seeded
  stream, so a faulty run is exactly reproducible.
* :class:`FaultySimulator` — a :class:`~repro.congest.network.Simulator`
  that filters sends through a fault model.  The run metrics count
  *delivered* messages; transmission attempts that were lost are metered
  separately on the fault model (``dropped`` / ``blocked``), so
  experiments can report both delivered and attempted traffic.

The library's plain protocols assume reliable delivery (as does the
paper); :mod:`repro.algorithms.reliable_bf` shows how retransmission
restores Bellman-Ford's guarantees under loss, and the fault tests
demonstrate that the fragile protocols *fail visibly* rather than
silently returning wrong answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


from repro.congest.network import Simulator
from repro.errors import ConfigError
from repro.rng import SeedLike, ensure_rng


@dataclass
class FaultModel:
    """What can go wrong, and when.

    Parameters
    ----------
    loss_rate:
        Each delivered message is independently dropped with this
        probability.
    crashes:
        ``node -> round``: from that round on, the node neither sends nor
        receives (fail-stop).
    seed:
        Seed for the loss stream (independent of protocol randomness).
    """

    loss_rate: float = 0.0
    crashes: dict[int, int] = field(default_factory=dict)
    seed: SeedLike = None

    def __post_init__(self):
        if not (0.0 <= self.loss_rate < 1.0):
            raise ConfigError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        self._rng = ensure_rng(self.seed)
        self.dropped = 0
        self.blocked = 0

    # ------------------------------------------------------------------
    def is_crashed(self, node: int, round_no: int) -> bool:
        r = self.crashes.get(node)
        return r is not None and round_no >= r

    def delivers(self, src: int, dst: int, round_no: int) -> bool:
        """Decide the fate of one message (stateful: meters drops)."""
        if self.is_crashed(src, round_no) or self.is_crashed(dst, round_no):
            self.blocked += 1
            return False
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.dropped += 1
            return False
        return True


class FaultySimulator(Simulator):
    """A simulator whose sends pass through a :class:`FaultModel`.

    Faults are applied when a node's outbox is collected, in send order
    (one loss draw per message that no crash blocks): a dropped message
    never enters the in-flight list, and a crashed endpoint blocks the
    message in either direction.  The run metrics therefore count
    delivered messages only; the attempts that failed are on the fault
    model (``dropped`` / ``blocked``).  A crashed node's program object
    remains allocated but becomes inert (it receives nothing, so its state
    can only change through its own timers) — fail-stop semantics.
    """

    def __init__(self, *args, fault_model: Optional[FaultModel] = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.fault_model = fault_model or FaultModel()

    def _collect(self, u: int):
        sends = super()._collect(u)
        if not sends:
            return sends
        delivers = self.fault_model.delivers
        arrival = self.round + 1  # sends from round r deliver at r + 1
        return [m for m in sends if delivers(m[0], m[1], arrival)]
