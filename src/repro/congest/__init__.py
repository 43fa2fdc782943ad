"""Synchronous CONGEST-model simulator (system S2).

The paper's model (Section 2.2): a synchronous network where in each round
every node may send one message of ``O(log n)`` bits (a constant number of
*words*) through each incident edge; messages sent in round ``r`` arrive at
the start of round ``r + 1``.  The simulator enforces exactly these rules
and meters the three quantities the paper's theorems bound: **rounds**,
**messages**, and **message words**.

Protocols are written as :class:`~repro.congest.node.NodeProgram` subclasses
— one instance per node, communicating *only* through the context object's
``send``/``broadcast`` — and executed by
:class:`~repro.congest.network.Simulator`.
"""

from repro.congest.node import NodeProgram
from repro.congest.context import NodeContext
from repro.congest.network import Simulator, SimulationResult
from repro.congest.metrics import RunMetrics
from repro.congest.faults import FaultModel, FaultySimulator
from repro.congest.delays import DelayedSimulator

__all__ = [
    "DelayedSimulator",
    "NodeProgram",
    "NodeContext",
    "Simulator",
    "SimulationResult",
    "RunMetrics",
    "FaultModel",
    "FaultySimulator",
]
