"""Base class for CONGEST node programs.

A protocol is implemented by subclassing :class:`NodeProgram`; the simulator
instantiates one program per node and drives it through the callbacks below.

Lifecycle
---------
``on_start(ctx)``
    Called once before round 1; typical use: sources inject their first
    message (Algorithm 1 line "Initialization" / Algorithm 2 "In the first
    round").
``on_round(ctx, inbox)``
    Called in exactly the rounds in which the node has something to act
    on: it received at least one message, it reported queued outgoing work
    (``has_pending()``, asked right after each of the node's own
    callbacks), or a timer it set with ``ctx.wake_at(round_no)`` is due.
    In every other round the node is not called at all — in the
    synchronous model a node with no mail, no queued work and no due
    timer cannot change state, so skipping it is unobservable.  Protocols
    that count rounds (a fixed election horizon, fixed phase budgets under
    the paper's "every node knows S" assumption, a rebroadcast period)
    set a timer for the round they are waiting for; an outstanding timer
    keeps the run alive through message-silent rounds.
``on_quiescent(ctx)``
    Called only by the *oracle* synchronizer when the whole network is
    silent (no messages in flight, no pending work anywhere, no timer
    outstanding).  This models
    an external phase-synchronization service; the honest in-protocol
    alternative is the ECHO/COMPLETE machinery of paper Section 3.3
    (``repro.algorithms.termination`` / ``repro.tz.distributed``).

``inbox`` maps each neighbor to the payload received on that edge this
round (at most one per edge, by the model).
"""

from __future__ import annotations

from typing import Any

from repro.congest.context import NodeContext


class NodeProgram:
    """One node's protocol state machine (subclass to implement a protocol)."""

    def on_start(self, ctx: NodeContext) -> None:
        """Round-0 initialization hook (default: no-op)."""

    def on_round(self, ctx: NodeContext, inbox: dict[int, Any]) -> None:
        """Process this round's inbox and queue sends (default: no-op)."""

    def on_quiescent(self, ctx: NodeContext) -> None:
        """Oracle-synchronizer hook at global quiescence (default: no-op)."""

    def has_pending(self) -> bool:
        """True if this node has queued outgoing work not yet sent.

        A node that answers True is called again next round even without
        mail, and keeps the network from being quiescent.  The simulator
        asks right after each of this node's callbacks, so the answer must
        depend on this node's own state only.  It must be True whenever a
        mail-less ``on_round`` would send or change state; a True beyond
        that is harmless but wakes the node for nothing.
        Programs with internal send queues (round-robin multi-source
        Bellman-Ford) must override this; waiting for a round is a timer
        (``ctx.wake_at``), not pending work.
        """
        return False

    def finished(self) -> bool:
        """False while this program still wants ``on_quiescent`` callbacks.

        At global quiescence the simulator keeps invoking ``on_quiescent``
        until every program reports finished — this lets phase-structured
        protocols advance through phases that happen to produce no traffic
        (e.g. a Thorup-Zwick level with no sources).  Programs that never
        use the oracle synchronizer can leave the default (True).
        """
        return True

    def result(self) -> Any:
        """The node's local output after the run (protocol-specific)."""
        return None
