"""Fine-grained simulator semantics: timers, event-driven scheduling,
quiescence callbacks, finished(), metering, and the errors module."""


import pytest

from repro.congest import DelayedSimulator, NodeProgram, Simulator
from repro.errors import (
    ConfigError,
    GraphError,
    ProtocolError,
    QueryError,
    ReproError,
    SimulationError,
)
from repro.graphs import path_graph


class TestErrorsHierarchy:
    @pytest.mark.parametrize("exc", [GraphError, ConfigError, ProtocolError,
                                     SimulationError, QueryError])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("x")


class Alarm(NodeProgram):
    """Counts rounds the only way a program may: by setting timers."""

    def __init__(self, rounds=()):
        self.rounds = list(rounds)
        self.calls = []

    def on_start(self, ctx):
        for r in self.rounds:
            ctx.wake_at(r)

    def on_round(self, ctx, inbox):
        self.calls.append((ctx.round, dict(inbox)))


class TestTimers:
    def test_timer_nodes_tick_every_round(self):
        class Ticker(Alarm):
            def on_round(self, ctx, inbox):
                super().on_round(ctx, inbox)
                if ctx.round < 5:
                    ctx.wake_at(ctx.round + 1)

        g = path_graph(3)
        res = Simulator(g, lambda u: Ticker([1])).run()
        # outstanding timers kept the network non-quiescent for 5 rounds
        # even with zero messages
        assert all([r for r, _ in p.calls] == [1, 2, 3, 4, 5]
                   for p in res.programs)
        assert res.metrics.rounds == 5
        assert res.metrics.messages == 0

    @pytest.mark.parametrize("make", [
        Simulator,
        lambda g, f: DelayedSimulator(g, f, max_delay=3, delay_seed=1)])
    def test_wake_at_fires_at_exactly_its_round(self, make):
        # node 0 asks for rounds 3 and 7 (twice: one call), node 1 for
        # none; silent rounds in between are charged but wake nobody
        progs = [Alarm([3, 7, 7]), Alarm(), Alarm([4])]
        res = make(path_graph(3), lambda u: progs[u]).run()
        assert progs[0].calls == [(3, {}), (7, {})]
        assert progs[1].calls == []
        assert progs[2].calls == [(4, {})]
        assert res.metrics.rounds == 7
        assert res.metrics.wakeups == 3 + 3  # on_start x3, then the timers

    def test_wake_at_rejects_the_past_and_the_present(self):
        class Late(NodeProgram):
            def on_round(self, ctx, inbox):
                ctx.wake_at(ctx.round)

            def on_start(self, ctx):
                ctx.wake_at(2)

        with pytest.raises(ProtocolError, match="not after the current"):
            Simulator(path_graph(2), lambda u: Late()).run()
        sim = Simulator(path_graph(2), lambda u: NodeProgram())
        with pytest.raises(ProtocolError, match="outside a simulator"):
            sim.contexts[0].wake_at(3)

    def test_timer_keeps_a_message_silent_election_alive(self):
        from repro.algorithms.bfs_tree import BFSTreeProgram
        from repro.graphs import Graph

        sim = Simulator(Graph(1, []),
                        lambda u: BFSTreeProgram(u, 1, horizon=6, settle=2))
        res = sim.run()
        assert res.metrics.rounds == 6 + 2
        assert res.metrics.messages == 0
        assert res.programs[0].tree().is_leader()


class TestEventDrivenScheduling:
    """The scheduler wakes a node only for mail, queued work or a due
    timer — shown by counting callbacks, not by timing them."""

    def test_a_silent_idle_program_is_never_called(self):
        class Bystander(NodeProgram):
            calls = 0

            def on_round(self, ctx, inbox):
                Bystander.calls += 1

        class Talker(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(1, ("ping", 8))

            def on_round(self, ctx, inbox):
                for w, (_, ttl) in inbox.items():
                    if ttl:
                        ctx.send(w, ("ping", ttl - 1))

        # 0 and 1 play ping-pong for 9 rounds; 2 and 3 hear nothing
        progs = [Talker(), Talker(), Bystander(), Bystander()]
        res = Simulator(path_graph(4), lambda u: progs[u]).run()
        assert res.metrics.rounds == 9 and res.metrics.messages == 9
        assert Bystander.calls == 0
        assert res.metrics.wakeups == 4 + 9

    @pytest.mark.parametrize("graph", ["er_unit", "er_weighted"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_tz_builds_wake_far_fewer_than_n_per_round(self, graph, k,
                                                       request):
        from repro.graphs import shortest_path_diameter
        from repro.tz.distributed import build_tz_sketches_distributed

        g = request.getfixturevalue(graph)
        echo = build_tz_sketches_distributed(g, k=k, sync="echo",
                                             seed=7).metrics
        # a clock-driven engine makes n * (rounds + 1) calls
        assert echo.wakeups < 0.6 * g.n * echo.rounds
        known = build_tz_sketches_distributed(
            g, k=k, sync="known_smax", seed=7,
            S=shortest_path_diameter(g)).metrics
        # budget rounds wake nobody: n * rounds would be 3-10x the messages
        assert known.wakeups <= known.messages
        assert known.rounds * g.n > 3 * known.messages

    def test_wakeups_add_up_but_stay_out_of_the_cost_row(self):
        from repro.congest.metrics import RunMetrics

        total = RunMetrics(rounds=1, wakeups=3) + RunMetrics(wakeups=4)
        assert total.wakeups == 7
        assert "wakeups" not in total.as_row()


class PhaseHopper(NodeProgram):
    """Advances through `phases` silent stages via on_quiescent."""

    def __init__(self, phases: int):
        self.remaining = phases
        self.advances = 0

    def on_quiescent(self, ctx):
        if self.remaining > 0:
            self.remaining -= 1
            self.advances += 1

    def finished(self):
        return self.remaining == 0


class TestQuiescenceCallbacks:
    def test_silent_phase_chains_advance(self):
        g = path_graph(2)
        sim = Simulator(g, lambda u: PhaseHopper(4))
        res = sim.run()
        assert all(p.advances == 4 for p in res.programs)
        assert res.metrics.rounds == 0  # all stages were traffic-free

    def test_never_finishing_program_raises(self):
        class Stuck(NodeProgram):
            def finished(self):
                return False

        g = path_graph(2)
        with pytest.raises(SimulationError, match="livelock"):
            Simulator(g, lambda u: Stuck()).run()

    def test_mixed_finished_states(self):
        # one program needs two callbacks, the other none: the run must
        # keep offering callbacks until all report finished
        class Lazy(PhaseHopper):
            pass

        g = path_graph(2)
        progs = {0: PhaseHopper(2), 1: PhaseHopper(0)}
        Simulator(g, lambda u: progs[u]).run()
        assert progs[0].advances == 2


class SendAtQuiescence(NodeProgram):
    def __init__(self, node):
        self.node = node
        self.sent = False
        self.got = False

    def on_quiescent(self, ctx):
        if self.node == 0 and not self.sent:
            self.sent = True
            ctx.broadcast(("wake",))

    def on_round(self, ctx, inbox):
        if inbox:
            self.got = True

    def finished(self):
        return self.sent if self.node == 0 else True


class TestQuiescentSends:
    def test_messages_sent_at_quiescence_are_delivered(self):
        g = path_graph(2)
        res = Simulator(g, lambda u: SendAtQuiescence(u)).run()
        assert res.programs[1].got
        assert res.metrics.rounds == 1


class TestBandwidthBoundary:
    def test_exactly_at_budget_ok(self):
        class Sender(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(1, (1, 2, 3, 4, 5, 6))  # exactly 6 words

        g = path_graph(2)
        res = Simulator(g, lambda u: Sender()).run()
        assert res.metrics.words == 6

    def test_one_word_over_rejected(self):
        class Sender(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(1, (1, 2, 3, 4, 5, 6, 7))

        g = path_graph(2)
        with pytest.raises(ProtocolError, match="bandwidth"):
            Simulator(g, lambda u: Sender()).run()

    def test_every_payload_shape_meters_as_payload_words(self):
        """Flat tuples are metered through a memo keyed on their element
        types, anything nested through ``payload_words`` itself: a flat
        payload, a repeat of its shape, and its nested / dict twins must
        all be charged what ``payload_words`` says, message by message."""
        from repro.congest.metrics import RunMetrics
        from repro.words import payload_words

        payloads = [("bf", 3, 1.5), ("ks", 9, 0.25), ("bf", (3, 1.5)),
                    ("bf", [3, None], True), {"bf": (3, 1.5)}, ("bf", 3, 4),
                    42, None, ("tzc", 1), ("bf", 3, 1.5), ((1, 2), (3,))]
        metrics = RunMetrics()
        charged = []

        class OneByOne(NodeProgram):
            def __init__(self, node):
                self.queue = list(payloads) if node == 0 else []

            def on_start(self, ctx):
                if self.queue:
                    ctx.send(1, self.queue.pop(0))

            def on_round(self, ctx, inbox):
                if inbox:
                    charged.append(metrics.words)
                self.on_start(ctx)

            def has_pending(self):
                return bool(self.queue)

        Simulator(path_graph(2), OneByOne, metrics=metrics).run()
        per_message = [b - a for a, b in zip([0] + charged, charged)]
        assert per_message == [payload_words(p) for p in payloads]
        assert metrics.messages == len(payloads)

    def test_over_budget_error_names_sender_edge_size_and_budget(self):
        class Sender(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(1, ("bf", 2, 3.0, 4, 5, 6, 7))

        with pytest.raises(ProtocolError, match=(
                "node 0: message to 1 is 7 words, exceeds bandwidth "
                "budget of 6 words/edge/round")):
            Simulator(path_graph(2), lambda u: Sender()).run()

    def test_min_bandwidth_validation(self):
        g = path_graph(2)
        with pytest.raises(ProtocolError):
            Simulator(g, lambda u: NodeProgram(), bandwidth_words=0)
