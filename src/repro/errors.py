"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the library can throw with a single ``except`` clause while
still being able to discriminate between configuration problems, protocol
violations detected by the CONGEST simulator, and graph-validation failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """A graph violates a structural requirement (connectivity, weights...)."""


class ConfigError(ReproError):
    """Invalid parameter combination passed to a public API entry point."""


class ProtocolError(ReproError):
    """A node program violated the CONGEST model rules.

    Raised by the simulator when a program tries to send more than one
    message per edge per round, exceeds the per-message word budget, or
    addresses a non-neighbor.
    """


class SimulationError(ReproError):
    """The simulator itself reached an inconsistent state.

    This indicates a bug in a protocol implementation (e.g. a phase that
    never quiesces within its safety horizon), not a user error.
    """


class QueryError(ReproError):
    """A sketch query could not be answered (e.g. sketches from different
    builds, or a malformed label)."""
