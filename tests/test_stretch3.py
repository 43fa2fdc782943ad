"""Stretch-3 ε-slack sketches (repro.slack.stretch3, Theorem 4.3)."""

import pytest

from repro.errors import QueryError
from repro.oracle.evaluation import eps_far_mask
from repro.slack.density_net import sample_density_net
from repro.slack.stretch3 import (
    Stretch3Sketch,
    build_stretch3_centralized,
    build_stretch3_distributed,
)


EPS = 0.25


@pytest.fixture(scope="module")
def shared_net():
    return sample_density_net(36, EPS, seed=55)


class TestBuildEquivalence:
    def test_distributed_matches_centralized(self, er_weighted, er_float,
                                             shared_net):
        """Both builds compute every entry from the net member, so they
        agree to the bit — non-integral weights included."""
        for g in (er_weighted, er_float):
            cs, _ = build_stretch3_centralized(g, EPS, net=shared_net)
            ds, _, metrics = build_stretch3_distributed(g, EPS,
                                                        net=shared_net, seed=1)
            assert cs == ds
            assert metrics.rounds >= 1

    def test_sketch_covers_whole_net(self, er_weighted, shared_net):
        cs, _ = build_stretch3_centralized(er_weighted, EPS, net=shared_net)
        assert all(set(s.entries) == set(shared_net.members) for s in cs)

    def test_size_words(self, er_weighted, shared_net):
        cs, _ = build_stretch3_centralized(er_weighted, EPS, net=shared_net)
        assert cs[0].size_words() == 2 * shared_net.size()


class TestGuarantees:
    def test_never_underestimates(self, er_weighted, er_weighted_apsp,
                                  shared_net):
        cs, _ = build_stretch3_centralized(er_weighted, EPS, net=shared_net)
        n = er_weighted.n
        for u in range(n):
            for v in range(u + 1, n):
                assert cs[u].estimate_to(cs[v]) >= \
                    er_weighted_apsp[u, v] - 1e-9

    def test_stretch3_on_far_pairs(self, er_weighted, er_weighted_apsp,
                                   shared_net):
        cs, _ = build_stretch3_centralized(er_weighted, EPS, net=shared_net)
        far = eps_far_mask(er_weighted_apsp, EPS)
        n = er_weighted.n
        checked = 0
        for u in range(n):
            for v in range(u + 1, n):
                if far[u, v] or far[v, u]:
                    est = cs[u].estimate_to(cs[v])
                    assert est <= 3 * er_weighted_apsp[u, v] + 1e-9
                    checked += 1
        assert checked > 0

    def test_net_member_queries_exact_to_anyone(self, er_weighted,
                                                er_weighted_apsp, shared_net):
        # if u is itself a net node, min_w d(u,w)+d(w,v) <= d(u,u)+d(u,v)
        cs, _ = build_stretch3_centralized(er_weighted, EPS, net=shared_net)
        u = shared_net.members[0]
        for v in range(er_weighted.n):
            if v != u:
                assert cs[u].estimate_to(cs[v]) == \
                    pytest.approx(er_weighted_apsp[u, v])

    def test_symmetric(self, er_weighted, shared_net):
        cs, _ = build_stretch3_centralized(er_weighted, EPS, net=shared_net)
        assert cs[3].estimate_to(cs[17]) == cs[17].estimate_to(cs[3])

    def test_same_node_zero(self, er_weighted, shared_net):
        cs, _ = build_stretch3_centralized(er_weighted, EPS, net=shared_net)
        assert cs[4].estimate_to(cs[4]) == 0.0

    def test_disjoint_nets_raise(self):
        a = Stretch3Sketch(node=0, eps=0.5, entries={1: 1.0})
        b = Stretch3Sketch(node=2, eps=0.5, entries={3: 1.0})
        with pytest.raises(QueryError):
            a.estimate_to(b)
