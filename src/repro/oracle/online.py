"""The online sketch-exchange query (paper Section 2.1).

After preprocessing, two nodes estimate their distance by *exchanging
sketches over the network*: ``v`` ships its sketch to ``u`` (or both ship
to each other), then the estimate is computed locally.  The paper's claim:
this costs at most ``O(D · sketch-size)`` rounds (``D`` = hop diameter),
whereas any from-scratch distance computation (Bellman-Ford, a ping...)
needs ``Ω(S)`` rounds — and ``S`` can exceed ``D`` by a factor of ``n``
(the ``star_path`` family realizes the gap).

We model the exchange as chunked store-and-forward along a hop-shortest
path: a sketch of ``W`` words moves in ``ceil(W / B)`` chunks of ``B``
words; consecutive chunks pipeline, so a path of ``h`` hops delivers the
sketch in ``h + ceil(W/B) - 1`` rounds (classic pipelining bound, and the
exact behaviour of a chunked relay in the simulator — verified by a test
against :class:`SketchRelayProgram` below).  Experiment E10 reports this
against the measured ``Ω(S)`` of a fresh Bellman-Ford run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.congest.context import NodeContext
from repro.congest.metrics import RunMetrics
from repro.congest.network import Simulator
from repro.congest.node import NodeProgram
from repro.errors import ConfigError
from repro.graphs.graph import Graph
from repro.rng import SeedLike
from repro.words import DEFAULT_BANDWIDTH_WORDS


@dataclass(frozen=True)
class OnlineQueryCost:
    """Predicted cost of one online sketch exchange."""

    hops: int
    sketch_words: int
    chunks: int
    rounds_pipelined: int
    rounds_naive: int  # store-and-forward without pipelining: hops * chunks

    def as_row(self) -> dict:
        return {"hops": self.hops, "words": self.sketch_words,
                "rounds": self.rounds_pipelined,
                "rounds_naive": self.rounds_naive}


def online_query_cost(hops: int, sketch_words: int,
                      bandwidth_words: int = DEFAULT_BANDWIDTH_WORDS,
                      ) -> OnlineQueryCost:
    """Closed-form cost of shipping one sketch over ``hops`` hops."""
    if hops < 0 or sketch_words < 0:
        raise ConfigError("hops and sketch_words must be nonnegative")
    if bandwidth_words < 1:
        raise ConfigError("bandwidth_words must be >= 1")
    chunks = max(1, math.ceil(sketch_words / bandwidth_words))
    return OnlineQueryCost(
        hops=hops, sketch_words=sketch_words, chunks=chunks,
        rounds_pipelined=(0 if hops == 0 else hops + chunks - 1),
        rounds_naive=hops * chunks)


def online_query_cost_many(hops, sketch_words,
                           bandwidth_words: int = DEFAULT_BANDWIDTH_WORDS,
                           ) -> dict:
    """Vectorized :func:`online_query_cost` for a whole query batch.

    ``hops`` and ``sketch_words`` broadcast against each other (e.g. one
    hop count per pair, one shared sketch size).  Returns arrays keyed like
    :meth:`OnlineQueryCost.as_row`, so the serving layer can budget the
    total round cost of answering a batch online.
    """
    if bandwidth_words < 1:
        raise ConfigError("bandwidth_words must be >= 1")
    hops_a = np.atleast_1d(np.asarray(hops, dtype=np.int64))
    words_a = np.atleast_1d(np.asarray(sketch_words, dtype=np.int64))
    hops_a, words_a = np.broadcast_arrays(hops_a, words_a)
    if (hops_a < 0).any() or (words_a < 0).any():
        raise ConfigError("hops and sketch_words must be nonnegative")
    chunks = np.maximum(1, -(-words_a // bandwidth_words))
    return {
        "hops": hops_a,
        "words": words_a,
        "chunks": chunks,
        "rounds": np.where(hops_a == 0, 0, hops_a + chunks - 1),
        "rounds_naive": hops_a * chunks,
    }


class SketchRelayProgram(NodeProgram):
    """Chunked relay of an opaque payload along a fixed path.

    Each chunk is ``("chunk", seq, filler...)`` padded to the bandwidth
    budget; a relay node forwards the chunk it received last round (classic
    store-and-forward pipelining).  Used by tests to confirm the
    closed-form :func:`online_query_cost` matches simulated behaviour.
    """

    def __init__(self, node: int, path: list[int], n_chunks: int,
                 chunk_words: int):
        self.node = node
        self.path = path
        self.n_chunks = n_chunks
        self.chunk_words = chunk_words
        try:
            idx = path.index(node)
            self.next_hop: Optional[int] = (
                path[idx + 1] if idx + 1 < len(path) else None)
        except ValueError:
            self.next_hop = None
        self.is_origin = bool(path) and node == path[0]
        self._to_send = list(range(n_chunks)) if self.is_origin else []
        self.received: list[int] = []

    def _chunk(self, seq: int) -> tuple:
        filler = tuple(0 for _ in range(max(0, self.chunk_words - 2)))
        return ("chunk", seq) + filler

    def on_start(self, ctx: NodeContext) -> None:
        self._pump(ctx)

    def _pump(self, ctx: NodeContext) -> None:
        if self._to_send and self.next_hop is not None:
            ctx.send(self.next_hop, self._chunk(self._to_send.pop(0)))

    def on_round(self, ctx: NodeContext, inbox: dict[int, Any]) -> None:
        for payload in inbox.values():
            if isinstance(payload, tuple) and payload[0] == "chunk":
                seq = payload[1]
                if self.next_hop is not None:
                    self._to_send.append(seq)
                else:
                    self.received.append(seq)
        self._pump(ctx)

    def has_pending(self) -> bool:
        return bool(self._to_send) and self.next_hop is not None

    def result(self) -> list[int]:
        return self.received


def simulate_online_exchange(graph: Graph, u: int, v: int, sketch_words: int,
                             bandwidth_words: int = DEFAULT_BANDWIDTH_WORDS,
                             seed: SeedLike = None,
                             ) -> tuple[OnlineQueryCost, RunMetrics]:
    """Ship a ``sketch_words``-word payload from ``v`` to ``u`` along a
    hop-shortest path, for real, in the simulator.

    Returns the closed-form prediction and the measured metrics (tests
    assert ``metrics.rounds == prediction.rounds_pipelined``).
    """
    path = _hop_shortest_path(graph, v, u)
    cost = online_query_cost(len(path) - 1, sketch_words, bandwidth_words)
    sim = Simulator(
        graph,
        lambda w: SketchRelayProgram(w, path, cost.chunks, bandwidth_words),
        seed=seed, bandwidth_words=bandwidth_words)
    res = sim.run()
    received = res.programs[u].result()
    if sorted(received) != list(range(cost.chunks)):
        raise ConfigError("relay lost chunks — simulator bug")
    return cost, res.metrics


def _hop_shortest_path(graph: Graph, src: int, dst: int) -> list[int]:
    """BFS path (fewest hops) from src to dst."""
    from collections import deque

    prev = {src: None}
    dq = deque([src])
    while dq:
        x = dq.popleft()
        if x == dst:
            break
        for y in graph.neighbors(x):
            if y not in prev:
                prev[y] = x
                dq.append(y)
    if dst not in prev:
        raise ConfigError(f"no path {src} -> {dst}")
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return path[::-1]
