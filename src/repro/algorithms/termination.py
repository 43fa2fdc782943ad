"""ECHO bookkeeping for the Section 3.3 termination detector.

The paper's scheme, per node ``u`` and per data message ``m`` that ``u``
receives from a neighbor ``w``:

* if ``m`` does **not** cause ``u`` to queue a new broadcast (it failed the
  threshold, or did not improve) — ``u`` owes ``w`` an ECHO of ``m``
  immediately;
* if the queued update based on ``m`` is **superseded** before being sent —
  ``u`` owes ``w`` an ECHO of ``m`` at supersede time;
* if ``u`` **does** broadcast a message ``m'`` based on ``m`` — ``u`` owes
  ``w`` an ECHO of ``m`` once ``u`` has collected ECHOs of ``m'`` from its
  neighbors.

A source's own initial broadcast has no parent; when it is fully ECHOed the
source knows its cluster has stopped growing ("every vertex in C(u) knows
its distance to u") and declares itself *complete*.

:class:`EchoBookkeeper` implements exactly this ledger as an
:class:`~repro.algorithms.round_robin.EngineListener`, so the Bellman-Ford
engine needs no termination-specific code.  Data messages are identified by
their ``(source, quoted-distance)`` pair: per node and source the quoted
distance strictly decreases, so the pair is unique per sender, and quotes
are stored/echoed verbatim (bit-identical floats) so matching is exact.

Echo messages owed are buffered in per-edge FIFO queues; the host protocol
drains at most one per edge per round (the CONGEST rule) and must give them
priority over data broadcasts — the paper charges this at "at most double
the number of messages and rounds", which experiment E4 measures.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.algorithms.round_robin import EngineListener, ParentMsg
from repro.errors import ProtocolError


class EchoBookkeeper(EngineListener):
    """Per-node, per-phase ECHO ledger.

    Parameters
    ----------
    node:
        The owning node's ID.
    neighbors:
        All incident neighbors (a broadcast reaches every one of them, and
        each must eventually ECHO it).
    on_complete:
        Called once, when this node's *own source broadcast* has been fully
        ECHOed (only ever fires if :meth:`on_sent` saw a parentless send).
    """

    def __init__(self, node: int, neighbors: tuple[int, ...],
                 on_complete: Optional[Callable[[], None]] = None):
        self.node = node
        self.neighbors = neighbors
        self.on_complete = on_complete
        #: (src, quoted-dist) -> {"waiting": set[int], "parent": ParentMsg}
        self._outstanding: dict[tuple[int, float], dict] = {}
        #: neighbor -> nonempty FIFO of (src, quoted-dist) echoes owed to
        #: it (a drained queue is removed, so the keys are the creditors)
        self.owed: dict[int, deque[tuple[int, float]]] = {}
        self.echoes_sent = 0
        self.echoes_received = 0

    # ------------------------------------------------------------------
    # EngineListener interface (driven by MultiSourceEngine)
    # ------------------------------------------------------------------
    def on_rejected(self, src: int, a: float, via: int) -> None:
        self._owe(via, src, a)

    def on_superseded(self, src: int, parent: ParentMsg) -> None:
        if parent is not None:
            self._owe(parent[0], src, parent[1])

    def on_sent(self, src: int, dist: float, parent: ParentMsg) -> None:
        key = (src, dist)
        if key in self._outstanding:
            raise ProtocolError(
                f"node {self.node}: duplicate broadcast {key} — per-source "
                f"distances must strictly decrease")
        entry = {"waiting": set(self.neighbors), "parent": parent}
        self._outstanding[key] = entry
        if not entry["waiting"]:  # degenerate: broadcast to zero neighbors
            self._settle(key, entry)

    # ------------------------------------------------------------------
    # echo traffic
    # ------------------------------------------------------------------
    def _owe(self, to: int, src: int, quoted: float) -> None:
        self.owed.setdefault(to, deque()).append((src, quoted))

    def receive_echo(self, frm: int, src: int, quoted: float) -> None:
        """A neighbor acknowledged our broadcast ``(src, quoted)``."""
        self.echoes_received += 1
        key = (src, quoted)
        entry = self._outstanding.get(key)
        if entry is None or frm not in entry["waiting"]:
            raise ProtocolError(
                f"node {self.node}: unexpected echo {key} from {frm}")
        entry["waiting"].discard(frm)
        if not entry["waiting"]:
            self._settle(key, entry)

    def _settle(self, key: tuple[int, float], entry: dict) -> None:
        """All echoes for one of our broadcasts are in: discharge upward."""
        del self._outstanding[key]
        parent = entry["parent"]
        if parent is not None:
            self._owe(parent[0], key[0], parent[1])
        elif self.on_complete is not None:
            self.on_complete()

    def pop_owed(self, to: int) -> Optional[tuple[int, float]]:
        """Take the next echo owed to neighbor ``to`` (None if none)."""
        q = self.owed.get(to)
        if q is None:
            return None
        self.echoes_sent += 1
        echo = q.popleft()
        if not q:
            del self.owed[to]
        return echo

    def has_owed(self) -> bool:
        return bool(self.owed)

    def owed_edges(self) -> list[int]:
        """Neighbors we currently owe at least one echo."""
        return list(self.owed)

    def quiet(self) -> bool:
        """True when no broadcasts await echoes and no echoes are owed."""
        return not self._outstanding and not self.owed
