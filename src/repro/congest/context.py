"""Per-node API surface.

A :class:`NodeContext` is the *only* handle a node program gets on the
world.  It exposes what the paper's model grants a node (Section 2.2): its
own ID, its neighbors and incident edge weights, the network size ``n``
(assumed common knowledge), a private random stream, and the ability to
send one bounded message per incident edge per round.  Everything else —
global distances, other nodes' state — is deliberately unreachable, so a
protocol that typechecks against this surface is a legal CONGEST protocol.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ProtocolError


class NodeContext:
    """Capability object handed to a :class:`~repro.congest.node.NodeProgram`.

    Instances are created by the simulator; protocols never construct one.
    """

    __slots__ = ("node", "n", "_weights", "_neighbors", "rng", "_timers",
                 "_outbox", "_round", "_send_allowed")

    def __init__(self, node: int, n: int, neighbors: dict[int, float],
                 rng: np.random.Generator, timers: dict[int, set[int]]):
        self.node = node
        self.n = n
        self._weights = neighbors
        self._neighbors = tuple(sorted(neighbors))
        self.rng = rng
        self._timers = timers  # the simulator's: round -> nodes to wake
        self._outbox: dict[int, Any] = {}
        self._round = 0
        self._send_allowed = False

    # ------------------------------------------------------------------
    # topology-local knowledge
    # ------------------------------------------------------------------
    @property
    def neighbors(self) -> tuple[int, ...]:
        """Sorted tuple of neighbor IDs."""
        return self._neighbors

    def edge_weight(self, v: int) -> float:
        """Weight of the incident edge to neighbor ``v``."""
        try:
            return self._weights[v]
        except KeyError:
            raise ProtocolError(f"node {self.node}: {v} is not a neighbor") from None

    @property
    def round(self) -> int:
        """Current round number (0 before the first round)."""
        return self._round

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def send(self, dst: int, payload: Any) -> None:
        """Queue ``payload`` on the edge to neighbor ``dst`` for this round.

        At most one message per edge per round (the CONGEST rule); a second
        send on the same edge in the same round raises
        :class:`~repro.errors.ProtocolError`.
        """
        if not self._send_allowed:
            raise ProtocolError(
                f"node {self.node}: send() outside a simulator callback")
        if dst not in self._weights:
            raise ProtocolError(f"node {self.node}: {dst} is not a neighbor")
        if dst in self._outbox:
            raise ProtocolError(
                f"node {self.node}: second message on edge to {dst} in round "
                f"{self._round} violates the one-message-per-edge CONGEST rule")
        self._outbox[dst] = payload

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` on every incident edge (one message per edge)."""
        for v in self._neighbors:
            self.send(v, payload)

    def can_send(self, dst: int) -> bool:
        """True if the edge to ``dst`` is still free this round."""
        return dst not in self._outbox

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def wake_at(self, round_no: int) -> None:
        """Ask for an ``on_round`` call at ``round_no`` even without mail.

        This is how a protocol counts rounds (a fixed election horizon, a
        phase budget, a rebroadcast period): a node is otherwise called
        only when it has mail or declared queued work.  An outstanding
        timer keeps the run alive; asking twice for one round is one call.
        ``round_no`` must lie after the current round.
        """
        if not self._send_allowed:
            raise ProtocolError(
                f"node {self.node}: wake_at() outside a simulator callback")
        if round_no <= self._round:
            raise ProtocolError(
                f"node {self.node}: wake_at({round_no}) is not after the "
                f"current round {self._round}")
        self._timers.setdefault(round_no, set()).add(self.node)

    # ------------------------------------------------------------------
    # simulator-internal hooks (prefixed, not part of the protocol surface)
    # ------------------------------------------------------------------
    def _open(self, round_no: int) -> None:
        self._round = round_no
        self._outbox = {}
        self._send_allowed = True

    def _close(self) -> dict[int, Any]:
        self._send_allowed = False
        return self._outbox
