"""Gracefully degrading sketches (repro.slack.graceful, Theorem 4.8)."""


import pytest

from repro.errors import ConfigError, QueryError
from repro.oracle.evaluation import average_stretch, eps_far_mask
from repro.slack.graceful import (
    build_graceful_centralized,
    build_graceful_distributed,
    graceful_schedule,
)


@pytest.fixture(scope="module")
def built(er_weighted):
    sketches, schedule = build_graceful_centralized(
        er_weighted, seed=81)
    return sketches, schedule


class TestSchedule:
    def test_eps_powers_of_half(self):
        sched = graceful_schedule(64)
        assert [e for e, _ in sched] == [2.0 ** -i for i in range(1, 7)]

    def test_k_grows_logarithmically(self):
        sched = graceful_schedule(64)
        assert [k for _, k in sched] == [1, 2, 3, 4, 5, 6]

    def test_final_eps_at_most_1_over_n(self):
        for n in (10, 33, 64, 100):
            sched = graceful_schedule(n)
            assert sched[-1][0] <= 1.0 / n

    def test_tiny_n_rejected(self):
        with pytest.raises(ConfigError):
            graceful_schedule(1)


class TestStructure:
    def test_component_count(self, built, er_weighted):
        sketches, schedule = built
        assert all(len(s.components) == len(schedule) for s in sketches)

    def test_size_is_sum_of_components(self, built):
        sketches, _ = built
        s = sketches[0]
        assert s.size_words() == sum(c.size_words() for c in s.components)

    def test_mismatched_sketches_rejected(self, built):
        from repro.slack.graceful import GracefulSketch

        sketches, _ = built
        stub = GracefulSketch(node=99, components=sketches[0].components[:1])
        with pytest.raises(QueryError):
            sketches[1].estimate_to(stub)


class TestGuarantees:
    def test_never_underestimates(self, built, er_weighted_apsp):
        sketches, _ = built
        n = len(sketches)
        for u in range(n):
            for v in range(u + 1, n):
                assert sketches[u].estimate_to(sketches[v]) >= \
                    er_weighted_apsp[u, v] - 1e-9

    def test_worst_case_stretch_logarithmic(self, built, er_weighted_apsp):
        # Lemma 4.7 part 1: with eps < 1/n every pair is covered at
        # stretch 8*ceil(log2 n) - 1
        sketches, schedule = built
        n = len(sketches)
        bound = 8 * len(schedule) - 1
        for u in range(n):
            for v in range(u + 1, n):
                assert sketches[u].estimate_to(sketches[v]) <= \
                    bound * er_weighted_apsp[u, v] + 1e-9

    def test_graceful_degradation_per_eps(self, built, er_weighted_apsp):
        # Theorem 4.8: for each eps_i, the single designated component
        # achieves stretch 8*k_i - 1 on eps_i-far pairs
        sketches, schedule = built
        n = len(sketches)
        for idx, (eps, k) in enumerate(schedule[:3]):
            far = eps_far_mask(er_weighted_apsp, eps)
            bound = 8 * k - 1
            for u in range(n):
                for v in range(u + 1, n):
                    if far[u, v] or far[v, u]:
                        est = sketches[u].estimate_for_eps(sketches[v], eps)
                        assert est <= bound * er_weighted_apsp[u, v] + 1e-9

    def test_min_estimate_beats_any_component(self, built):
        sketches, _ = built
        a, b = sketches[2], sketches[9]
        full = a.estimate_to(b)
        per = [c.estimate_to(o)
               for c, o in zip(a.components, b.components)]
        assert full == min(per)

    def test_average_stretch_small(self, built, er_weighted_apsp):
        # Corollary 4.9: O(1) average stretch; on these graphs the
        # measured value is tiny
        sketches, _ = built
        avg = average_stretch(er_weighted_apsp,
                              lambda u, v: sketches[u].estimate_to(sketches[v]))
        assert avg <= 3.0

    def test_same_node_zero(self, built):
        sketches, _ = built
        assert sketches[7].estimate_to(sketches[7]) == 0.0


class TestDistributedBuild:
    @pytest.mark.slow
    def test_matches_shape_and_guarantees(self, er_weighted,
                                          er_weighted_apsp):
        sketches, schedule, metrics = build_graceful_distributed(
            er_weighted, seed=82)
        assert metrics.rounds > 0
        n = er_weighted.n
        bound = 8 * len(schedule) - 1
        for u in range(0, n, 5):
            for v in range(u + 1, n, 3):
                est = sketches[u].estimate_to(sketches[v])
                assert er_weighted_apsp[u, v] - 1e-9 <= est
                assert est <= bound * er_weighted_apsp[u, v] + 1e-9
