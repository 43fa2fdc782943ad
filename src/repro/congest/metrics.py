"""Round / message / word accounting.

:class:`RunMetrics` is the object every experiment reads its measurements
from.  Protocols can segment a run into named *phases* (the TZ construction
reports one phase per level ``i``, plus setup phases like leader election),
and metrics of sequential runs can be summed with ``+`` for composed
constructions (e.g. gracefully degrading sketches run O(log n) CDG builds
back to back, Theorem 4.8).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class PhaseMetrics:
    """Accounting for one named protocol phase."""

    name: str
    rounds: int = 0
    messages: int = 0
    words: int = 0

    def as_row(self) -> dict:
        return {
            "phase": self.name,
            "rounds": self.rounds,
            "messages": self.messages,
            "words": self.words,
        }


@dataclass
class RunMetrics:
    """Aggregated accounting for a complete protocol execution."""

    rounds: int = 0
    messages: int = 0
    words: int = 0
    max_inflight: int = 0
    phases: list[PhaseMetrics] = field(default_factory=list)
    #: what simulating the run cost the engine (not protocol quantities,
    #: so not in ``as_row``): node callbacks executed, and seconds spent
    #: inside ``Simulator.run``
    wakeups: int = 0
    wall_s: float = field(default=0.0, compare=False)

    # ------------------------------------------------------------------
    def begin_phase(self, name: str) -> None:
        """Open a new phase; subsequent rounds/messages accrue to it."""
        self.phases.append(PhaseMetrics(name=name))

    def record_round(self, messages: int, words: int) -> None:
        """Charge one synchronous round carrying ``messages`` messages."""
        self.rounds += 1
        self.messages += messages
        self.words += words
        self.max_inflight = max(self.max_inflight, messages)
        if self.phases:
            ph = self.phases[-1]
            ph.rounds += 1
            ph.messages += messages
            ph.words += words

    def record_idle(self, rounds: int) -> None:
        """Charge ``rounds`` silent rounds at once (``record_round(0, 0)``
        that many times)."""
        self.rounds += rounds
        if self.phases:
            self.phases[-1].rounds += rounds

    # ------------------------------------------------------------------
    def phase(self, name: str) -> PhaseMetrics:
        """Look up a phase by name (raises ``KeyError`` if absent)."""
        for ph in self.phases:
            if ph.name == name:
                return ph
        raise KeyError(name)

    def phase_names(self) -> list[str]:
        return [ph.name for ph in self.phases]

    def __add__(self, other: "RunMetrics") -> "RunMetrics":
        if not isinstance(other, RunMetrics):
            return NotImplemented
        out = RunMetrics(
            rounds=self.rounds + other.rounds,
            messages=self.messages + other.messages,
            words=self.words + other.words,
            max_inflight=max(self.max_inflight, other.max_inflight),
            wakeups=self.wakeups + other.wakeups,
            wall_s=self.wall_s + other.wall_s,
        )
        # copies: recording into the sum must not move its operands
        out.phases = [replace(ph) for ph in (*self.phases, *other.phases)]
        return out

    def as_row(self) -> dict:
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "words": self.words,
        }

    def describe(self) -> str:
        """The paper's cost and, next to it, what simulating it cost."""
        us = self.wall_s / self.messages * 1e6 if self.messages else 0.0
        return (f"{self.rounds} rounds, {self.messages} messages, "
                f"{self.words} words (max {self.max_inflight} in flight); "
                f"simulated in {self.wall_s:.3f} s — {us:.1f} µs/message, "
                f"{self.wakeups} wake-ups")

    def __repr__(self) -> str:
        return (
            f"RunMetrics(rounds={self.rounds}, messages={self.messages}, "
            f"words={self.words}, phases={len(self.phases)})"
        )
