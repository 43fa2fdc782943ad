"""Bounded-delay asynchrony (the paper's other named future direction).

Section 5 closes with "asynchronous settings" as future work.  This module
provides the standard first weakening of the synchronous model: every
message experiences an adversarially-random link delay of 1..``max_delay``
rounds, with **per-edge FIFO** preserved (a later message on the same edge
never overtakes an earlier one — the property real links give you and
several of our phase arguments rely on).

What survives asynchrony (and is asserted by tests):

* Bellman-Ford-family protocols (Algorithm 1, k-source, super-source) are
  *self-stabilizing over message contents* — their state is a monotone
  minimum — so delays change round counts but never results.
* Oracle-synchronized phase protocols remain correct: quiescence detection
  waits for the link queues to drain.
* The Section 3.3 ECHO detector is *causally* correct: every guarantee it
  gives ("my cluster has settled") is triggered by message receipt, not by
  round counting, so echo-mode TZ still produces exactly the right
  sketches — provided the one round-counted component, the election
  horizon, is scaled by ``max_delay``.  The tests demonstrate exactly
  this, which is a concrete down payment on the paper's future work.

Round accounting under delays is pessimistic by up to ``max_delay``x —
the point is correctness under weakened timing, not a performance claim.
"""

from __future__ import annotations

from repro.congest.network import InFlight, Simulator
from repro.errors import ConfigError
from repro.rng import SeedLike, ensure_rng


class DelayedSimulator(Simulator):
    """A simulator whose links hold messages for 1..``max_delay`` rounds.

    Delays are drawn from a dedicated seeded stream (``delay_seed``).
    Per-edge FIFO is enforced by construction: a message's arrival round
    is bumped past the previous arrival on the same directed edge, which
    also preserves the one-message-per-edge-per-round delivery rule.
    """

    def __init__(self, *args, max_delay: int = 3,
                 delay_seed: SeedLike = None, **kwargs):
        super().__init__(*args, **kwargs)
        if max_delay < 1:
            raise ConfigError("max_delay must be >= 1")
        self.max_delay = int(max_delay)
        self._delay_rng = ensure_rng(delay_seed)
        #: arrival round -> the messages due then
        self._queues: dict[int, list[InFlight]] = {}
        self._last_arrival: dict[tuple[int, int], int] = {}
        self.max_observed_delay = 0

    # ------------------------------------------------------------------
    def _collect(self, u: int):
        sends = super()._collect(u)
        if not sends:
            return sends
        now = self.round  # sends happen during round `now`
        for message in sends:
            delay = int(self._delay_rng.integers(1, self.max_delay + 1))
            arrival = now + delay
            edge = message[:2]
            prev = self._last_arrival.get(edge, 0)
            if arrival <= prev:  # FIFO + one delivery per edge per round
                arrival = prev + 1
            self._last_arrival[edge] = arrival
            self.max_observed_delay = max(self.max_observed_delay,
                                          arrival - now)
            self._queues.setdefault(arrival, []).append(message)
        return ()  # everything routes through the link queues

    def _external_pending(self) -> bool:
        return bool(self._queues)

    def _deliveries(self, round_no: int, inflight):
        return inflight + self._queues.pop(round_no, [])
