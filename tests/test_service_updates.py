"""The dynamic-update subsystem (repro.service.updates).

The hard invariant (ISSUE 4 acceptance): after ``UpdateableIndex.apply``,
the updated index answers **bit-identically** to an index rebuilt from
scratch on the mutated graph with the same random artifacts — property-
tested for every scheme × memory backing (heap / mmap-loaded RPIX),
including :class:`~repro.errors.QueryError` parity when an update
disconnects the graph.  Weight perturbations are drawn as non-integral
floats on purpose: float path sums are direction-sensitive at the ulp
level, and the repair must reproduce the builder's floats exactly.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, GraphError, QueryError
from repro.graphs import Graph, random_geometric
from repro.oracle.serialization import load_index_binary, save_index_binary
from repro.service import build_index, refresh_index
from repro.service.updates import (EdgeChange, UpdateableIndex,
                                   dirty_frontier, load_changes_jsonl,
                                   sample_weight_changes,
                                   save_changes_jsonl)

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

BACKINGS = ("heap", "mmap")


@st.composite
def graphs_with_changes(draw, max_n=12, max_changes=3, allow_structure=True):
    """A connected weighted graph plus a change batch against it.

    Weights and perturbations are non-integral floats — the adversarial
    case for bit-identity (ties vanish, but path-sum rounding differs
    between the two ends of a path).
    """
    n = draw(st.integers(min_value=3, max_value=max_n))
    weights = st.floats(min_value=0.25, max_value=9.0, allow_nan=False,
                        allow_infinity=False, width=32)
    g = Graph(n)
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        g.add_edge(u, v, 1.0 + draw(weights))
    for _ in range(draw(st.integers(min_value=0, max_value=n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, 1.0 + draw(weights))
    changes = []
    shadow = g.copy()  # compose op legality against the evolving graph
    for _ in range(draw(st.integers(min_value=1, max_value=max_changes))):
        kind = draw(st.sampled_from(
            ["set", "set", "insert"] if allow_structure else ["set"]))
        if kind == "insert":
            u = draw(st.integers(min_value=0, max_value=n - 1))
            v = draw(st.integers(min_value=0, max_value=n - 1))
            if u == v or shadow.has_edge(u, v):
                continue
            c = EdgeChange("insert", u, v, 1.0 + draw(weights))
            shadow.add_edge(u, v, c.weight)
        else:
            edges = list(shadow.edges())
            u, v, _ = edges[draw(st.integers(0, len(edges) - 1))]
            c = EdgeChange("set", u, v, 1.0 + draw(weights))
            shadow.set_weight(u, v, c.weight)
        changes.append(c)
    return g, changes


def _all_ordered_pairs(n: int):
    us, vs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return us.ravel(), vs.ravel()


def _answers_with_errors(index, us, vs):
    """Per-pair answers with QueryError as a sentinel (parity checks)."""
    out = []
    for u, v in zip(us, vs):
        try:
            out.append(float(index.estimate_many(np.asarray([u]),
                                                 np.asarray([v]))[0]))
        except QueryError:
            out.append("raise")
    return out


def _assert_updated_equals_rebuilt(upd, backing):
    """The invariant, through the chosen memory backing."""
    rebuilt = upd.rebuild_reference()
    assert upd.index == rebuilt
    us, vs = _all_ordered_pairs(upd.graph.n)
    want = _answers_with_errors(rebuilt, us, vs)
    if backing == "heap":
        got = _answers_with_errors(upd.index, us, vs)
    else:  # the repaired store, saved and reopened memory-mapped
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "epoch.rpix")
            save_index_binary(upd.index, path)
            got = _answers_with_errors(
                load_index_binary(path, backing="mmap"), us, vs)
    assert got == want  # exact floats, exact raise positions


class TestUpdatedEqualsRebuilt:
    """Updated-index ≡ rebuilt-index, per scheme × backing."""

    @settings(max_examples=10, **COMMON)
    @given(gc=graphs_with_changes(),
           seed=st.integers(min_value=0, max_value=10**6),
           shards=st.integers(min_value=1, max_value=4),
           backing=st.sampled_from(BACKINGS))
    def test_tz(self, gc, seed, shards, backing):
        g, changes = gc
        upd = UpdateableIndex(g, scheme="tz", seed=seed, k=3,
                              num_shards=shards, rebuild_threshold=1.0)
        upd.apply(changes)
        _assert_updated_equals_rebuilt(upd, backing)

    @settings(max_examples=8, **COMMON)
    @given(gc=graphs_with_changes(),
           seed=st.integers(min_value=0, max_value=10**6),
           shards=st.integers(min_value=1, max_value=3),
           backing=st.sampled_from(BACKINGS))
    def test_stretch3(self, gc, seed, shards, backing):
        g, changes = gc
        upd = UpdateableIndex(g, scheme="stretch3", seed=seed, eps=0.4,
                              num_shards=shards, rebuild_threshold=1.0)
        upd.apply(changes)
        _assert_updated_equals_rebuilt(upd, backing)

    @settings(max_examples=8, **COMMON)
    @given(gc=graphs_with_changes(max_n=10),
           seed=st.integers(min_value=0, max_value=10**6),
           shards=st.integers(min_value=1, max_value=3),
           backing=st.sampled_from(BACKINGS))
    def test_cdg(self, gc, seed, shards, backing):
        g, changes = gc
        upd = UpdateableIndex(g, scheme="cdg", seed=seed, eps=0.4, k=2,
                              num_shards=shards, rebuild_threshold=1.0)
        upd.apply(changes)
        _assert_updated_equals_rebuilt(upd, backing)

    @settings(max_examples=5, **COMMON)
    @given(gc=graphs_with_changes(max_n=8, max_changes=2),
           seed=st.integers(min_value=0, max_value=10**6),
           backing=st.sampled_from(BACKINGS))
    def test_graceful(self, gc, seed, backing):
        g, changes = gc
        upd = UpdateableIndex(g, scheme="graceful", seed=seed,
                              num_shards=2, rebuild_threshold=1.0)
        upd.apply(changes)
        _assert_updated_equals_rebuilt(upd, backing)

    @settings(max_examples=6, **COMMON)
    @given(gc=graphs_with_changes(max_n=10),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_tz_sequential_batches_compose(self, gc, seed):
        """Applying N batches one by one ends bit-identical to a rebuild
        on the final graph (epochs compose)."""
        g, changes = gc
        upd = UpdateableIndex(g, scheme="tz", seed=seed, k=2,
                              rebuild_threshold=1.0)
        for c in changes:
            upd.apply([c])
        assert upd.epoch <= len(changes)
        _assert_updated_equals_rebuilt(upd, "heap")


class TestDisconnectingUpdates:
    """QueryError parity when an update disconnects the graph."""

    def _bridge_graph(self):
        # removing (2, 3) splits {0,1,2} from {3,4,5}
        return Graph(6, [(0, 1, 1.25), (1, 2, 1.5), (0, 2, 2.75),
                         (2, 3, 1.0), (3, 4, 1.25), (4, 5, 1.5),
                         (3, 5, 2.25)])

    @pytest.mark.parametrize("scheme,params", [
        ("tz", dict(k=2)), ("stretch3", dict(eps=0.5))])
    def test_removal_parity(self, scheme, params):
        g = self._bridge_graph()
        for seed in range(4):
            upd = UpdateableIndex(g, scheme=scheme, seed=seed,
                                  rebuild_threshold=1.0, **params)
            upd.apply([EdgeChange("remove", 2, 3)])
            _assert_updated_equals_rebuilt(upd, "heap")

    def test_reinsert_restores_answers(self):
        g = self._bridge_graph()
        upd = UpdateableIndex(g, scheme="tz", seed=1, k=2,
                              rebuild_threshold=1.0)
        before = upd.index.estimate(0, 5)
        upd.apply([EdgeChange("remove", 2, 3)])
        with pytest.raises(QueryError):
            upd.index.estimate(0, 5)
        upd.apply([EdgeChange("insert", 2, 3, 1.0)])
        assert upd.index.estimate(0, 5) == before
        _assert_updated_equals_rebuilt(upd, "heap")


class TestUpdateSemantics:
    @pytest.fixture()
    def triangle(self):
        return Graph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])

    def test_noop_keeps_epoch_and_index(self, triangle):
        upd = UpdateableIndex(triangle, scheme="tz", seed=1, k=2)
        index = upd.index
        report = upd.apply([EdgeChange("increase", 0, 2, 9.0)])
        assert report.mode == "noop" and report.dirty == 0
        assert upd.epoch == 0 and upd.index is index

    def test_threshold_forces_rebuild(self, triangle):
        upd = UpdateableIndex(triangle, scheme="tz", seed=1, k=2,
                              rebuild_threshold=0.0)
        report = upd.apply([EdgeChange("set", 0, 1, 3.5)])
        assert report.mode == "rebuild"
        _assert_updated_equals_rebuilt(upd, "heap")

    def test_repair_under_threshold(self, triangle):
        upd = UpdateableIndex(triangle, scheme="tz", seed=1, k=2,
                              rebuild_threshold=1.0)
        report = upd.apply([EdgeChange("set", 0, 1, 0.5)])
        assert report.mode == "repair" and report.epoch == 1
        assert report.seconds["total"] > 0.0
        _assert_updated_equals_rebuilt(upd, "heap")

    def test_old_epoch_store_untouched(self, triangle):
        """Epoch semantics: the previous store object still answers with
        the previous graph's values after an apply."""
        upd = UpdateableIndex(triangle, scheme="tz", seed=1, k=2,
                              rebuild_threshold=1.0)
        old_index = upd.index
        old_answer = old_index.estimate(0, 2)
        upd.apply([EdgeChange("set", 1, 2, 0.25)])
        assert upd.index is not old_index
        assert old_index.estimate(0, 2) == old_answer

    def test_direction_checked_ops(self, triangle):
        upd = UpdateableIndex(triangle, scheme="tz", seed=1, k=2)
        with pytest.raises(GraphError):
            upd.apply([EdgeChange("increase", 0, 1, 0.5)])
        with pytest.raises(GraphError):
            upd.apply([EdgeChange("decrease", 0, 1, 5.0)])
        with pytest.raises(GraphError):
            upd.apply([EdgeChange("insert", 0, 1, 1.0)])
        with pytest.raises(GraphError):
            upd.apply([EdgeChange("remove", 1, 0),
                       EdgeChange("remove", 1, 0)])
        # a bad stream is rejected before any mutation lands
        assert upd.graph.has_edge(0, 1) and upd.graph.weight(0, 1) == 1.0
        assert upd.epoch == 0

    def test_change_validation(self):
        with pytest.raises(ConfigError):
            EdgeChange("teleport", 0, 1, 1.0)
        with pytest.raises(ConfigError):
            EdgeChange("set", 0, 0, 1.0)
        with pytest.raises(ConfigError):
            EdgeChange("set", 0, 1, -1.0)
        with pytest.raises(ConfigError):
            EdgeChange("insert", 0, 1, None)
        EdgeChange("remove", 0, 1)  # no weight needed

    def test_dirty_frontier_localizes(self):
        # node 2's shortest paths never use the (0, 1) edge (its direct
        # legs are cheaper), so increasing it leaves node 2 clean
        g = Graph(3, [(0, 1, 2.0), (0, 2, 1.05), (1, 2, 1.05)])
        h = g.copy()
        dirty = dirty_frontier(h, [EdgeChange("increase", 0, 1, 9.0)])
        assert dirty.tolist() == [0, 1]
        assert h.weight(0, 1) == 9.0 and g.weight(0, 1) == 2.0
        # more changed edges never dirty fewer nodes: the frontier of a
        # batch contains the frontier of each of its prefixes
        g = random_geometric(200, seed=5)
        changes = sample_weight_changes(g, 64, seed=6)
        fronts = [set(dirty_frontier(g.copy(), changes[:size]).tolist())
                  for size in (1, 4, 16, 64)]
        assert all(a <= b for a, b in zip(fronts, fronts[1:]))
        assert 0 < len(fronts[0]) < g.n

    def test_failed_repair_leaves_state_untouched(self):
        """Atomicity: a repair that raises mid-way (here: a removal that
        strands a node from the CDG density net) must leave graph,
        sketches, index, and epoch exactly as they were — and the next
        apply must still satisfy the bit-identity invariant."""
        from repro.slack.density_net import DensityNet

        g = Graph(5, [(0, 1, 1.25), (1, 2, 1.5), (2, 3, 1.25),
                      (3, 4, 1.5)])
        net = DensityNet(eps=0.5, n=5, members=(0, 2))
        upd = UpdateableIndex(g, scheme="cdg", seed=1, eps=0.5, k=1,
                              net=net, rebuild_threshold=1.0)
        index = upd.index
        with pytest.raises(QueryError, match="strands"):
            upd.apply([EdgeChange("remove", 3, 4)])  # 4 loses the net
        assert upd.graph.has_edge(3, 4)  # nothing committed
        assert upd.epoch == 0 and upd.index is index
        # the instance is still consistent: a good batch keeps the
        # updated-equals-rebuilt invariant
        upd.apply([EdgeChange("set", 0, 1, 2.5)])
        _assert_updated_equals_rebuilt(upd, "heap")

    def test_changes_jsonl_round_trip(self, tmp_path):
        changes = [EdgeChange("set", 0, 1, 2.5),
                   EdgeChange("remove", 1, 2),
                   EdgeChange("insert", 0, 2, 0.75)]
        path = tmp_path / "changes.jsonl"
        save_changes_jsonl(changes, path)
        assert load_changes_jsonl(path) == changes


class TestIndexRefresh:
    def test_tz_refresh_equals_a_fresh_build(self, er_weighted):
        """Replacing some owners' sketches gives, byte for byte, the
        store a from-scratch build of the updated set gives — for any
        shard count — and the old store object still answers as before."""
        from repro.oracle.serialization import index_binary_bytes
        from repro.tz import build_tz_sketches_centralized

        old, _ = build_tz_sketches_centralized(er_weighted, k=2, seed=11)
        # same hierarchy, perturbed weights: a compatible update
        moved = er_weighted.copy()
        for u, v, w in list(er_weighted.edges())[:2]:
            moved.set_weight(u, v, 2.0 * w)
        new, _ = build_tz_sketches_centralized(moved, k=2, seed=11)
        touched = [u for u in range(er_weighted.n) if new[u] != old[u]]
        assert 0 < len(touched) < er_weighted.n
        merged = [new[u] if u in touched else old[u]
                  for u in range(er_weighted.n)]
        us, vs = _all_ordered_pairs(er_weighted.n)
        for shards in (1, 3, 8):
            index = build_index(old, num_shards=shards)
            before = index_binary_bytes(index)
            answers = index.estimate_many(us, vs)
            fresh = index.apply_sketch_updates({u: new[u] for u in touched})
            assert fresh is not index
            assert index_binary_bytes(fresh) == index_binary_bytes(
                build_index(merged, num_shards=shards))
            assert index_binary_bytes(index) == before
            assert np.array_equal(index.estimate_many(us, vs), answers)

    def test_refresh_index_empty_touch_returns_same_object(self,
                                                           er_weighted):
        from repro.tz import build_tz_sketches_centralized

        sketches, _ = build_tz_sketches_centralized(er_weighted, k=2,
                                                    seed=11)
        index = build_index(sketches, num_shards=2)
        assert refresh_index(index, sketches, []) is index


class TestBuiltSketchesUpdateable:
    SCHEMES = [("tz", dict(k=2)), ("stretch3", dict(eps=0.4)),
               ("cdg", dict(eps=0.4, k=2)), ("graceful", dict())]

    @pytest.mark.parametrize("scheme,params", SCHEMES)
    def test_seeded_index_equals_seeded_build(self, er_weighted, scheme,
                                              params):
        """One ``sample`` per scheme: a seed means the same artifacts,
        hence the same sketches, to ``UpdateableIndex`` and to
        ``build_sketches`` (``repro serve --updateable --seed`` vs
        ``repro build --seed``, the scenario oracle's twin)."""
        from repro import build_sketches

        for seed in (4, 5):
            built = build_sketches(er_weighted, scheme, seed=seed, **params)
            upd = UpdateableIndex(er_weighted, scheme, seed=seed, **params)
            assert upd.sketches == built.sketches

    @pytest.mark.parametrize("scheme,params", SCHEMES)
    def test_updateable_reuses_build(self, er_weighted, scheme, params):
        from repro import build_sketches

        built = build_sketches(er_weighted, scheme=scheme, seed=4, **params)
        upd = built.updateable(num_shards=2, rebuild_threshold=1.0)
        assert upd.sketches == built.sketches
        upd.apply(sample_weight_changes(er_weighted, 2, seed=3))
        _assert_updated_equals_rebuilt(upd, "heap")

    def test_updateable_rejects_distributed_and_graceful(self, er_unit):
        from repro import build_sketches

        with pytest.raises(ConfigError, match="centralized"):
            build_sketches(er_unit, scheme="tz", k=2, seed=1,
                           mode="distributed").updateable()

    @pytest.mark.parametrize("scheme,params", SCHEMES)
    def test_refuses_what_a_build_refuses(self, er_unit, scheme, params):
        """A keyword the scheme does not read is refused, with the
        message ``build_sketches`` gives — never silently dropped."""
        from repro import build_sketches

        stray = {"tz": "eps", "stretch3": "k"}.get(scheme, "epsilon")
        with pytest.raises(ConfigError) as want:
            build_sketches(er_unit, scheme, seed=1, **params, **{stray: 0.3})
        with pytest.raises(ConfigError) as got:
            UpdateableIndex(er_unit, scheme, seed=1, **params,
                            **{stray: 0.3})
        assert str(got.value) == str(want.value)
        assert f"no parameter '{stray}'" in str(got.value)


class TestRepairPolicies:
    """Repair vs rebuild is one rule — rebuild when the dirty fraction
    exceeds ``rebuild_threshold`` — and a pure seconds choice (the
    bit-identity invariant holds on either path)."""

    def test_static_threshold_bounds_and_boundary(self, er_weighted):
        for bad in (-0.1, 1.5):
            with pytest.raises(ConfigError, match="rebuild_threshold"):
                UpdateableIndex(er_weighted, "tz", seed=4, k=2,
                                rebuild_threshold=bad)
        changes = sample_weight_changes(er_weighted, 2, seed=6)

        def apply_at(threshold):
            upd = UpdateableIndex(er_weighted, "tz", seed=4, k=2,
                                  rebuild_threshold=threshold)
            return upd, upd.apply(changes)

        _, probe = apply_at(1.0)
        frac = probe.dirty_fraction
        assert probe.mode == "repair" and 0.0 < frac < 1.0
        repaired, at = apply_at(frac)           # == threshold: repair
        assert at.mode == "repair"
        rebuilt, below = apply_at(float(np.nextafter(frac, 0.0)))
        assert below.mode == "rebuild"          # > threshold: rebuild
        assert "policy" not in at.as_dict()
        # same changes, same epoch, bit-identical answers either way
        us, vs = _all_ordered_pairs(er_weighted.n)
        assert _answers_with_errors(repaired.index, us, vs) == \
            _answers_with_errors(rebuilt.index, us, vs)
