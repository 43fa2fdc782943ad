"""The CONGEST simulator (repro.congest)."""


import pytest

from repro.congest import NodeProgram, Simulator
from repro.congest.metrics import RunMetrics
from repro.congest.tracing import Tracer
from repro.errors import ProtocolError, SimulationError
from repro.graphs import Graph, path_graph, ring


class Flooder(NodeProgram):
    """Floods a token once; used to exercise delivery and metering."""

    def __init__(self, node: int, origin: int):
        self.node = node
        self.origin = origin
        self.seen = node == origin

    def on_start(self, ctx):
        if self.node == self.origin:
            ctx.broadcast(("tok",))

    def on_round(self, ctx, inbox):
        if inbox and not self.seen:
            self.seen = True
            ctx.broadcast(("tok",))

    def result(self):
        return self.seen


class DoubleSender(NodeProgram):
    def on_start(self, ctx):
        if ctx.node == 0:
            ctx.send(1, ("a",))
            ctx.send(1, ("b",))


class FatSender(NodeProgram):
    def on_start(self, ctx):
        if ctx.node == 0:
            ctx.send(1, tuple(range(100)))


class NonNeighborSender(NodeProgram):
    def on_start(self, ctx):
        if ctx.node == 0:
            ctx.send(2, ("x",))


class Chatterbox(NodeProgram):
    """Never stops talking — for max_rounds enforcement."""

    def on_start(self, ctx):
        ctx.broadcast(("x",))

    def on_round(self, ctx, inbox):
        ctx.broadcast(("x",))


class TestDelivery:
    def test_flood_reaches_everyone(self):
        g = ring(9)
        res = Simulator(g, lambda u: Flooder(u, 0)).run()
        assert all(res.results())

    def test_flood_rounds_equal_eccentricity(self):
        g = path_graph(7)
        res = Simulator(g, lambda u: Flooder(u, 0)).run()
        # token reaches node 6 at round 6; its own rebroadcast is absorbed
        # by node 5 in round 7, after which the network is silent
        assert res.metrics.rounds == 7

    def test_messages_arrive_next_round(self):
        g = path_graph(2)

        class Recorder(NodeProgram):
            def __init__(self, node):
                self.node = node
                self.arrival = None

            def on_start(self, ctx):
                if self.node == 0:
                    ctx.send(1, ("m",))

            def on_round(self, ctx, inbox):
                if inbox and self.arrival is None:
                    self.arrival = ctx.round

            def result(self):
                return self.arrival

        res = Simulator(g, Recorder).run()
        assert res.programs[1].result() == 1

    def test_quiescent_immediately_when_nothing_sent(self):
        res = Simulator(path_graph(3), lambda u: NodeProgram()).run()
        assert res.metrics.rounds == 0
        assert res.metrics.messages == 0


class TestModelEnforcement:
    def test_two_messages_one_edge_rejected(self):
        with pytest.raises(ProtocolError, match="one-message-per-edge"):
            Simulator(path_graph(2), lambda u: DoubleSender()).run()

    def test_bandwidth_enforced(self):
        with pytest.raises(ProtocolError, match="bandwidth"):
            Simulator(path_graph(2), lambda u: FatSender()).run()

    def test_bandwidth_configurable(self):
        res = Simulator(path_graph(2), lambda u: FatSender(),
                        bandwidth_words=100).run()
        assert res.metrics.messages == 1
        assert res.metrics.words == 100

    def test_non_neighbor_send_rejected(self):
        with pytest.raises(ProtocolError, match="not a neighbor"):
            Simulator(path_graph(3), lambda u: NonNeighborSender()).run()

    def test_send_outside_callback_rejected(self):
        g = path_graph(2)
        sim = Simulator(g, lambda u: NodeProgram())
        with pytest.raises(ProtocolError, match="outside"):
            sim.contexts[0].send(1, ("x",))

    def test_max_rounds_raises(self):
        with pytest.raises(SimulationError, match="did not quiesce"):
            Simulator(ring(4), lambda u: Chatterbox()).run(max_rounds=10)


class TestMetrics:
    def test_message_and_word_counts(self):
        g = path_graph(3)
        res = Simulator(g, lambda u: Flooder(u, 0)).run()
        # round 1: 0->1; round 2: 1->{0,2}; round 3: 2->1 (absorbed)
        assert res.metrics.messages == 4
        assert res.metrics.words == 4  # ("tok",) is 1 word

    def test_phase_accounting(self):
        m = RunMetrics()
        m.begin_phase("a")
        m.record_round(2, 6)
        m.begin_phase("b")
        m.record_round(1, 3)
        assert m.phase("a").messages == 2
        assert m.phase("b").rounds == 1
        assert m.rounds == 2 and m.words == 9
        with pytest.raises(KeyError):
            m.phase("zzz")

    def test_metrics_addition(self):
        a, b = RunMetrics(), RunMetrics()
        a.begin_phase("x")
        a.record_round(3, 9)
        b.record_round(5, 15)
        c = a + b
        assert c.rounds == 2 and c.messages == 8 and c.words == 24
        assert c.max_inflight == 5
        assert c.phase_names() == ["x"]

    def test_max_inflight(self):
        g = ring(6)
        res = Simulator(g, lambda u: Flooder(u, 0)).run()
        assert res.metrics.max_inflight >= 2


class TestContext:
    def test_neighbors_sorted(self):
        g = Graph(4, [(2, 0, 1.0), (2, 3, 1.0), (2, 1, 1.0)])
        sim = Simulator(g, lambda u: NodeProgram())
        assert sim.contexts[2].neighbors == (0, 1, 3)

    def test_edge_weight(self):
        g = Graph(2, [(0, 1, 3.5)])
        sim = Simulator(g, lambda u: NodeProgram())
        assert sim.contexts[0].edge_weight(1) == 3.5
        with pytest.raises(ProtocolError):
            sim.contexts[0].edge_weight(0)

    def test_per_node_rngs_differ(self):
        g = path_graph(3)
        sim = Simulator(g, lambda u: NodeProgram(), seed=1)
        draws = [sim.contexts[u].rng.random() for u in range(3)]
        assert len(set(draws)) == 3

    def test_node_rngs_reproducible(self):
        g = path_graph(3)
        a = Simulator(g, lambda u: NodeProgram(), seed=1)
        b = Simulator(g, lambda u: NodeProgram(), seed=1)
        assert a.contexts[1].rng.random() == b.contexts[1].rng.random()


class TestTracing:
    def test_tracer_records_deliveries(self):
        g = path_graph(3)
        tr = Tracer()
        Simulator(g, lambda u: Flooder(u, 0), tracer=tr).run()
        assert len(tr) == 4
        assert all(ev.kind() == "tok" for ev in tr.events)

    def test_tracer_predicate_filters(self):
        g = path_graph(3)
        tr = Tracer(predicate=lambda ev: ev.dst == 2)
        Simulator(g, lambda u: Flooder(u, 0), tracer=tr).run()
        assert len(tr) == 1
        assert next(tr.between(1, 2)).round == 2


class TestRunProtocol:
    """The one-shot convenience wrapper around Simulator."""

    def test_runs_to_quiescence(self):
        from repro.congest.network import run_protocol

        res = run_protocol(path_graph(4), lambda u: Flooder(u, 0), seed=1)
        assert all(res.results())

    def test_forwards_metrics_kwarg(self):
        # regression: metrics= used to fall through **kwargs into
        # Simulator.run() and crash with an unexpected-keyword TypeError
        from repro.congest.network import run_protocol

        m = RunMetrics()
        res = run_protocol(path_graph(4), lambda u: Flooder(u, 0), seed=1,
                           metrics=m)
        assert res.metrics is m
        assert m.rounds >= 1 and m.messages >= 1

    def test_forwards_bandwidth_and_tracer(self):
        from repro.congest.network import run_protocol

        tr = Tracer()
        res = run_protocol(path_graph(3), lambda u: Flooder(u, 0), seed=1,
                           bandwidth_words=2, tracer=tr)
        assert len(tr) > 0  # the tracer actually reached the simulator
        assert res.metrics.rounds >= 1
