"""Online sketch exchange (repro.oracle.online, Section 2.1 claim)."""

import pytest

from repro.errors import ConfigError
from repro.graphs import path_graph, ring, star_path
from repro.oracle.online import online_query_cost, simulate_online_exchange


class TestClosedForm:
    def test_single_chunk(self):
        c = online_query_cost(hops=5, sketch_words=4, bandwidth_words=6)
        assert c.chunks == 1
        assert c.rounds_pipelined == 5
        assert c.rounds_naive == 5

    def test_pipelining_beats_naive(self):
        c = online_query_cost(hops=10, sketch_words=60, bandwidth_words=6)
        assert c.chunks == 10
        assert c.rounds_pipelined == 19
        assert c.rounds_naive == 100

    def test_zero_hops(self):
        assert online_query_cost(0, 100).rounds_pipelined == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            online_query_cost(-1, 5)

    def test_row(self):
        row = online_query_cost(3, 12, 6).as_row()
        assert row["hops"] == 3 and row["rounds"] == 4


class TestSimulatedExchange:
    def test_simulation_matches_formula(self):
        g = path_graph(8)
        cost, metrics = simulate_online_exchange(g, u=7, v=0,
                                                 sketch_words=24,
                                                 bandwidth_words=6)
        assert metrics.rounds == cost.rounds_pipelined

    def test_all_chunks_arrive(self):
        g = ring(10)
        cost, metrics = simulate_online_exchange(g, u=5, v=0,
                                                 sketch_words=30,
                                                 bandwidth_words=5)
        assert cost.chunks == 6
        assert metrics.messages == cost.chunks * cost.hops

    def test_star_path_gap(self):
        # the Section 2.1 motivation: D=2 but S=n-1, so an online query
        # costs ~sketch-size rounds while a fresh BF costs ~n rounds
        from repro.algorithms import single_source_distances

        g = star_path(30)
        cost, metrics = simulate_online_exchange(g, u=0, v=29,
                                                 sketch_words=12)
        _, _, bf_metrics = single_source_distances(g, 0)
        assert metrics.rounds < bf_metrics.rounds


class TestBandwidthValidation:
    def test_zero_bandwidth_rejected_everywhere(self):
        import pytest

        from repro.errors import ConfigError
        from repro.oracle import online_query_cost, online_query_cost_many

        with pytest.raises(ConfigError):
            online_query_cost(3, 30, bandwidth_words=0)
        with pytest.raises(ConfigError):
            online_query_cost_many([3], 30, bandwidth_words=0)
