"""Property-based tests for the serving layer (repro.service).

Two invariants, checked on every generated instance:

* **batch/single bit-identity** — for random connected weighted graphs and
  all k ∈ {1, 2, 3, 4}, every batched answer equals the single-query answer
  *exactly* (``==`` on floats, not approx), across shard counts and cache
  configurations;
* **sandwich bound** — every estimate satisfies
  ``d(u, v) <= est <= (2k-1) d(u, v)`` against the Dijkstra (APSP) ground
  truth.

The default profile keeps examples small so the tier-1 run stays fast; the
``slow``-marked exhaustive variants (bigger graphs, every pair, more
examples — further scaled by the ``nightly`` hypothesis profile, see
``conftest.py``) are for the nightly job:
``pytest --runslow -m slow tests/test_service_properties.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.graphs import Graph, apsp
from repro.service import QueryEngine, TZIndex, build_index
from repro.service.engine import RANGE_PAIRS
from repro.tz import build_tz_sketches_centralized, estimate_distance

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

#: k = 1 is the one TZ shape with no sub-top level (``kk = 0``): an empty
#: probe request, what a fused plan/finish most easily breaks
KS = (1, 2, 3, 4)


@st.composite
def connected_graphs(draw, max_n=14):
    """Random connected weighted graph: spanning tree + extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    weights = st.integers(min_value=1, max_value=12)
    g = Graph(n)
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        g.add_edge(u, v, float(draw(weights)))
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, float(draw(weights)))
    return g


def _all_ordered_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    us, vs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return us.ravel(), vs.ravel()


class TestBatchedEqualsSingle:
    @settings(max_examples=20, **COMMON)
    @given(g=connected_graphs(), seed=st.integers(min_value=0, max_value=10**6))
    def test_every_batched_answer_equals_single(self, g, seed):
        for k in KS:
            sketches, _ = build_tz_sketches_centralized(g, k=k, seed=seed)
            us, vs = _all_ordered_pairs(g.n)
            single = [estimate_distance(sketches[u], sketches[v])
                      for u, v in zip(us, vs)]
            batched = TZIndex(sketches).estimate_many(us, vs)
            assert batched.tolist() == single  # exact, not approx

    @settings(max_examples=10, **COMMON)
    @given(g=connected_graphs(max_n=10),
           seed=st.integers(min_value=0, max_value=10**6),
           shards=st.integers(min_value=1, max_value=5))
    def test_shard_count_never_changes_answers(self, g, seed, shards):
        for k in KS:
            sketches, _ = build_tz_sketches_centralized(g, k=k, seed=seed)
            us, vs = _all_ordered_pairs(g.n)
            base = TZIndex(sketches, num_shards=1).estimate_many(us, vs)
            sharded = TZIndex(sketches, num_shards=shards).estimate_many(us, vs)
            assert np.array_equal(base, sharded)

    @settings(max_examples=10, **COMMON)
    @given(g=connected_graphs(max_n=10),
           seed=st.integers(min_value=0, max_value=10**6),
           cache=st.integers(min_value=0, max_value=64))
    def test_cache_never_changes_answers(self, g, seed, cache):
        sketches, _ = build_tz_sketches_centralized(g, k=2, seed=seed)
        engine = QueryEngine(build_index(sketches), cache_size=cache)
        us, vs = _all_ordered_pairs(g.n)
        pairs = np.stack([us, vs], axis=1)
        first = engine.dist_many(pairs)
        again = engine.dist_many(pairs)  # now (partly) served from cache
        single = [estimate_distance(sketches[u], sketches[v])
                  for u, v in zip(us, vs)]
        assert first.tolist() == single
        assert again.tolist() == single

    @settings(max_examples=25, **COMMON)
    @given(g=connected_graphs(max_n=8),
           seed=st.integers(min_value=0, max_value=10**6),
           cache=st.integers(min_value=1, max_value=64),
           data=st.data())
    def test_cached_batches_equal_reference_and_account(self, g, seed,
                                                        cache, data):
        """Any batch sequence — in-batch duplicates, both directions of
        a pair, replays — through any capacity: every answer is the
        reference answer, every row is counted once as a hit or a miss,
        the table never holds more than ``cache_size`` entries, and
        every written slot that is no longer resident was an eviction."""
        sketches, _ = build_tz_sketches_centralized(g, k=2, seed=seed)
        engine = QueryEngine(build_index(sketches), cache_size=cache)
        node = st.integers(min_value=0, max_value=g.n - 1)
        batches = data.draw(st.lists(
            st.lists(st.tuples(node, node), min_size=1, max_size=40),
            min_size=1, max_size=6))
        asked = inserted = 0
        for batch in batches:
            mirrored = batch + [(v, u) for u, v in batch]
            for pairs in (mirrored, mirrored):  # the second is a replay
                before = engine._cache.keys.copy()
                got = engine.dist_many(pairs)
                inserted += np.count_nonzero(before != engine._cache.keys)
                assert got.tolist() == [
                    estimate_distance(sketches[u], sketches[v])
                    for u, v in pairs]
                asked += len(pairs)
                assert engine.stats.hits + engine.stats.misses == asked
                assert engine.cache_entries <= cache
                assert engine.stats.evictions == (inserted
                                                  - engine.cache_entries)


class TestSandwichBound:
    @settings(max_examples=20, **COMMON)
    @given(g=connected_graphs(), seed=st.integers(min_value=0, max_value=10**6))
    def test_estimates_within_2k_minus_1(self, g, seed):
        d = apsp(g)
        for k in KS:
            sketches, _ = build_tz_sketches_centralized(g, k=k, seed=seed)
            us, vs = _all_ordered_pairs(g.n)
            est = TZIndex(sketches).estimate_many(us, vs)
            lo = d[us, vs]
            hi = (2 * k - 1) * d[us, vs]
            assert (est >= lo - 1e-9).all()
            assert (est <= hi + 1e-9).all()


@pytest.mark.slow
class TestExhaustive:
    """Nightly-scale variants: larger graphs, every ordered pair.  No
    explicit ``max_examples`` — the active hypothesis profile governs, so
    the nightly job's ``REPRO_HYPOTHESIS_PROFILE=nightly`` scales it up."""

    @settings(**COMMON)
    @given(g=connected_graphs(max_n=40),
           seed=st.integers(min_value=0, max_value=10**6),
           shards=st.integers(min_value=1, max_value=8))
    def test_identity_and_sandwich_large(self, g, seed, shards):
        d = apsp(g)
        for k in KS:
            sketches, _ = build_tz_sketches_centralized(g, k=k, seed=seed)
            us, vs = _all_ordered_pairs(g.n)
            single = [estimate_distance(sketches[u], sketches[v])
                      for u, v in zip(us, vs)]
            est = TZIndex(sketches, num_shards=shards).estimate_many(us, vs)
            assert est.tolist() == single
            assert (est >= d[us, vs] - 1e-9).all()
            assert (est <= (2 * k - 1) * d[us, vs] + 1e-9).all()


def _single_answers(sketches, us, vs):
    """Per-pair single-query answers with QueryError as a sentinel."""
    out = []
    for u, v in zip(us, vs):
        try:
            out.append(sketches[u].estimate_to(sketches[v]))
        except QueryError:
            out.append("raise")
    return out


def _batched_answers(index, us, vs):
    """Per-pair batch-of-one answers with QueryError as a sentinel, plus
    the full-batch outcome."""
    per_pair = []
    for u, v in zip(us, vs):
        try:
            per_pair.append(float(index.estimate_many(
                np.asarray([u]), np.asarray([v]))[0]))
        except QueryError:
            per_pair.append("raise")
    try:
        full = index.estimate_many(us, vs)
        full_raises = False
    except QueryError:
        full, full_raises = None, True
    return per_pair, full, full_raises


def _assert_batched_equals_single(sketches, index):
    """The universal contract: batch-of-one answers (values *and*
    QueryErrors) equal the single-query path pair by pair, and the full
    batch raises exactly when some pair raises singly."""
    n = len(sketches)
    us, vs = _all_ordered_pairs(n)
    single = _single_answers(sketches, us, vs)
    per_pair, full, full_raises = _batched_answers(index, us, vs)
    assert per_pair == single  # exact floats, exact raise positions
    assert full_raises == ("raise" in single)
    if not full_raises:
        assert full.tolist() == single


class TestSlackSchemesBatchedEqualsSingle:
    """ISSUE 2 acceptance: every scheme's batched answers are bit-identical
    to the single-query path, across shard counts."""

    @settings(max_examples=8, **COMMON)
    @given(g=connected_graphs(max_n=10),
           seed=st.integers(min_value=0, max_value=10**6),
           shards=st.integers(min_value=1, max_value=4))
    def test_stretch3(self, g, seed, shards):
        from repro import build_sketches
        from repro.service import Stretch3Index

        built = build_sketches(g, scheme="stretch3", eps=0.4, seed=seed)
        _assert_batched_equals_single(
            built.sketches, Stretch3Index(built.sketches, num_shards=shards))

    @settings(max_examples=8, **COMMON)
    @given(g=connected_graphs(max_n=10),
           seed=st.integers(min_value=0, max_value=10**6),
           shards=st.integers(min_value=1, max_value=4))
    def test_cdg(self, g, seed, shards):
        from repro import build_sketches
        from repro.service import CDGIndex

        built = build_sketches(g, scheme="cdg", eps=0.4, k=2, seed=seed)
        _assert_batched_equals_single(
            built.sketches, CDGIndex(built.sketches, num_shards=shards))

    @settings(max_examples=6, **COMMON)
    @given(g=connected_graphs(max_n=8),
           seed=st.integers(min_value=0, max_value=10**6),
           shards=st.integers(min_value=1, max_value=4))
    def test_graceful(self, g, seed, shards):
        from repro import build_sketches
        from repro.service import GracefulIndex

        built = build_sketches(g, scheme="graceful", seed=seed)
        _assert_batched_equals_single(
            built.sketches, GracefulIndex(built.sketches, num_shards=shards))

    @settings(max_examples=6, **COMMON)
    @given(g=connected_graphs(max_n=10),
           seed=st.integers(min_value=0, max_value=10**6),
           ncpu=st.sampled_from([1, 4]))
    def test_shard_server_jobs_never_change_answers(self, g, seed, ncpu):
        # every ordered pair, tiled to a batch the engine cuts into
        # ``ncpu`` ranges (in-thread at one CPU): the same bytes
        from repro import build_sketches
        from repro.service import QueryEngine, build_index

        built = build_sketches(g, scheme="stretch3", eps=0.4, seed=seed)
        us, vs = _all_ordered_pairs(g.n)
        index = build_index(built.sketches, num_shards=4)
        base = index.estimate_many(us, vs)
        q = 4 * RANGE_PAIRS
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.service.engine.usable_cpus", lambda: ncpu)
            engine = QueryEngine(index, cache_size=0)
        with engine:
            got = engine.dist_many(np.resize(np.stack([us, vs], axis=1),
                                             (q, 2)))
        assert got.tobytes() == np.resize(base, q).tobytes()


class TestQueryErrorParityDisconnected:
    """Batched raises exactly where the single path raises, on graphs
    where some pairs genuinely have no shared landmark."""

    def _two_components(self):
        from repro.graphs import Graph

        # components {0, 1} and {2, 3, 4}
        return Graph(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0),
                         (2, 4, 2.0)])

    def test_stretch3_net_missing_a_component(self):
        from repro.slack.density_net import DensityNet
        from repro.slack.stretch3 import build_stretch3_centralized
        from repro.service import Stretch3Index

        g = self._two_components()
        # net only in the big component: every pair touching {0, 1} raises
        net = DensityNet(eps=0.5, n=g.n, members=(2,))
        sketches, _ = build_stretch3_centralized(g, 0.5, net=net)
        idx = Stretch3Index(sketches, num_shards=3)
        _assert_batched_equals_single(sketches, idx)
        with pytest.raises(QueryError, match="share no net node"):
            idx.estimate_many(np.array([0]), np.array([2]))

    def test_stretch3_net_in_both_components(self):
        from repro.slack.density_net import DensityNet
        from repro.slack.stretch3 import build_stretch3_centralized
        from repro.service import Stretch3Index

        g = self._two_components()
        # one net node per component: within-component pairs answer,
        # cross-component pairs raise (all routes are inf)
        net = DensityNet(eps=0.5, n=g.n, members=(0, 2))
        sketches, _ = build_stretch3_centralized(g, 0.5, net=net)
        idx = Stretch3Index(sketches)
        _assert_batched_equals_single(sketches, idx)
        assert idx.estimate(3, 4) == sketches[3].estimate_to(sketches[4])

    def test_cdg_cross_component_parity(self):
        from repro.slack.cdg import build_cdg_centralized
        from repro.slack.density_net import DensityNet
        from repro.service import CDGIndex

        g = self._two_components()
        net = DensityNet(eps=0.5, n=g.n, members=(0, 2))
        for seed in range(5):
            sketches, _, _ = build_cdg_centralized(g, 0.5, 2, seed=seed,
                                                   net=net)
            _assert_batched_equals_single(sketches,
                                          CDGIndex(sketches, num_shards=2))

    def test_graceful_component_parity(self):
        from repro.slack.cdg import build_cdg_centralized
        from repro.slack.density_net import DensityNet
        from repro.slack.graceful import GracefulSketch
        from repro.service import GracefulIndex

        g = self._two_components()
        net = DensityNet(eps=0.5, n=g.n, members=(0, 2))
        # hand-assembled two-component graceful set (the stock builder
        # samples its own nets, which may miss a component entirely)
        a, _, _ = build_cdg_centralized(g, 0.5, 1, seed=1, net=net)
        b, _, _ = build_cdg_centralized(g, 0.25, 2, seed=2, net=net)
        sketches = [GracefulSketch(node=u, components=(a[u], b[u]))
                    for u in range(g.n)]
        _assert_batched_equals_single(
            sketches, GracefulIndex(sketches, num_shards=2))

    def test_workers_match_inline_on_disconnected(self):
        from repro.slack.density_net import DensityNet
        from repro.slack.stretch3 import build_stretch3_centralized
        from repro.service import QueryEngine, Stretch3Index

        g = self._two_components()
        net = DensityNet(eps=0.5, n=g.n, members=(0, 2))
        sketches, _ = build_stretch3_centralized(g, 0.5, net=net)
        idx = Stretch3Index(sketches, num_shards=2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.service.engine.usable_cpus", lambda: 2)
            engine = QueryEngine(idx, cache_size=0)
        # bulk batches, cut into two ranges
        ok = np.tile([[2, 4], [3, 2]], (RANGE_PAIRS, 1))
        bad = ok.copy()
        bad[-1] = (1, 3)
        with engine:
            assert engine.dist_many(ok).tobytes() == \
                idx.estimate_many(ok[:, 0], ok[:, 1]).tobytes()
            with pytest.raises(QueryError) as err:
                engine.dist_many(bad)
            assert err.value.row == len(bad) - 1


# ----------------------------------------------------------------------
# answer(shards, requests): one pass over any set of shards
# ----------------------------------------------------------------------
def _disconnected() -> Graph:
    """Components {0, 1, 2} and {3, 4, 5, 6}."""
    return Graph(7, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 2.5), (3, 4, 1.0),
                     (4, 5, 1.5), (5, 6, 1.0), (3, 6, 2.0)])


def _connected() -> Graph:
    g = _disconnected()
    g.add_edge(2, 3, 1.25)
    g.add_edge(0, 6, 3.0)
    return g


def _tz_with_sentinel_pivots(g: Graph):
    """A k=3 TZ set on ``g`` some of whose pivots are the INF_KEY
    sentinel: a whole component has no top-level landmark."""
    for seed in range(64):
        sketches, _ = build_tz_sketches_centralized(g, k=3, seed=seed)
        if any(p < 0 for s in sketches for p, _ in s.pivots):
            return sketches
    raise AssertionError("no seed leaves a component without a landmark")


def _tz_fully_sharded():
    """Hand-crafted: landmark 0 sits at level 0 in some bunches and at
    level 1 in others, so the dense top split is unsound and every
    entry goes through the bunch table; node 5 has a sentinel pivot."""
    from repro.tz.sketch import TZSketch

    inf = float("inf")
    sketches = [TZSketch(node=0, k=2, pivots=((0, 0.0), (4, 4.0)),
                         bunch={0: (0.0, 0), 4: (4.0, 1)})]
    for u in range(1, 5):
        sketches.append(TZSketch(
            node=u, k=2, pivots=((u, 0.0), (4, float(4 - u))),
            bunch={u: (0.0, 0), 0: (float(u), u % 2),
                   4: (float(4 - u), 1)}))
    sketches.append(TZSketch(node=5, k=2, pivots=((5, 0.0), (-1, inf)),
                             bunch={5: (0.0, 0)}))
    return sketches


def _slack_on_net(scheme: str, g: Graph):
    """A slack sketch set on ``g`` over the pinned net {0, 3, 5}, so most
    nodes reach the net through a gateway leg."""
    from repro.slack.cdg import build_cdg_centralized
    from repro.slack.density_net import DensityNet
    from repro.slack.graceful import GracefulSketch
    from repro.slack.stretch3 import build_stretch3_centralized

    net = DensityNet(eps=0.5, n=g.n, members=(0, 3, 5))
    if scheme == "stretch3":
        return build_stretch3_centralized(g, 0.5, net=net)[0]
    a = build_cdg_centralized(g, 0.5, 2, seed=1, net=net)[0]
    if scheme == "cdg":
        return a
    b = build_cdg_centralized(g, 0.25, 1, seed=2, net=net)[0]
    return [GracefulSketch(node=u, components=(a[u], b[u]))
            for u in range(g.n)]


def _slack_disconnected(scheme: str):
    return _slack_on_net(scheme, _disconnected())


def _slack_connected(scheme: str):
    from repro import build_sketches

    params = {"stretch3": dict(eps=0.4), "cdg": dict(eps=0.4, k=2),
              "graceful": {}}[scheme]
    return build_sketches(_connected(), scheme=scheme, seed=5,
                          **params).sketches


def _connected_inexact() -> Graph:
    """:func:`_connected` with weights in tenths, so that sums round and
    the order of a scheme's additions shows in the last bit."""
    g = _connected()
    return Graph(g.n, [(u, v, w / 10 + 0.1) for u, v, w in g.edges()])


_DECOMPOSITION_CASES = {
    "tz": lambda: build_tz_sketches_centralized(_connected(), k=3,
                                                seed=4)[0],
    "tz-sentinel-pivots": lambda: _tz_with_sentinel_pivots(_disconnected()),
    "tz-fully-sharded": _tz_fully_sharded,
    **{scheme: (lambda scheme=scheme: _slack_connected(scheme))
       for scheme in ("stretch3", "cdg", "graceful")},
    **{f"{scheme}-disconnected":
       (lambda scheme=scheme: _slack_disconnected(scheme))
       for scheme in ("stretch3", "cdg", "graceful")},
    **{f"{scheme}-inexact":
       (lambda scheme=scheme: _slack_on_net(scheme, _connected_inexact()))
       for scheme in ("cdg", "graceful")},
}
_decomposition_sets: dict = {}


def _decomposition_set(name: str):
    """The sketch set of a case, built once per session."""
    if name not in _decomposition_sets:
        _decomposition_sets[name] = _DECOMPOSITION_CASES[name]()
    return _decomposition_sets[name]


def _outcome(fn):
    """``fn()``'s answers, or its QueryError as ``(message, row)``."""
    try:
        return fn().tolist()
    except QueryError as exc:
        return str(exc), exc.row


def _bits(fn):
    """:func:`_outcome` with the answers as their float64 bytes."""
    try:
        return np.asarray(fn(), dtype=np.float64).tobytes()
    except QueryError as exc:
        return str(exc), exc.row


class TestAnswerDecomposition:
    """plan → answer → finish is ``estimate_many`` is the single-pair
    query — values, QueryErrors and the row they name — on every layout
    and shard count."""

    def test_cases_cover_the_layouts(self):
        tz = {name: build_index(_decomposition_set(name), num_shards=3)
              for name in _DECOMPOSITION_CASES if name.startswith("tz")}
        assert tz["tz"].dense_top and not tz["tz"].sentinel_pivots
        assert tz["tz-sentinel-pivots"].sentinel_pivots
        assert not tz["tz-fully-sharded"].dense_top
        assert tz["tz-fully-sharded"].sentinel_pivots

    @settings(max_examples=120, **COMMON)
    @given(case=st.sampled_from(sorted(_DECOMPOSITION_CASES)),
           shards=st.sampled_from([1, 2, 3, 5, 8]), data=st.data())
    def test_plan_answer_finish_is_the_single_query(self, case, shards,
                                                    data):
        sketches = _decomposition_set(case)
        n = len(sketches)
        index = build_index(sketches, num_shards=shards)
        node = st.integers(min_value=0, max_value=n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), min_size=1,
                                   max_size=24), label="pairs")
        us, vs = (np.asarray(col, dtype=np.int64) for col in zip(*pairs))
        state, (request,) = index.plan(us, vs)

        single = _single_answers(sketches, us.tolist(), vs.tolist())
        whole = _outcome(lambda: index.finish(state,
                                              [index.answer(request)]))
        assert whole == _outcome(lambda: index.estimate_many(us, vs))
        if "raise" not in single:
            assert whole == single
        else:
            _, row = whole
            assert single[row] == "raise"
            if not case.startswith("graceful"):
                # (graceful scans component by component, so it names
                # the first bad row of the first bad component)
                assert row == single.index("raise")
        for j, want in enumerate(single):
            got = _outcome(lambda: index.estimate_many(us[j:j + 1],
                                                       vs[j:j + 1]))
            assert got == ([want] if want != "raise" else (got[0], 0))


_TZ_CASES = sorted(name for name in _DECOMPOSITION_CASES
                   if name.startswith("tz"))


class TestOnePairSwept:
    """A lone pair is the batch the per-request floor is paid on, and
    the one whose probes the miss filter usually rejects outright.  The
    property suites draw batches of 1–24 pairs, so a lone pair is
    sampled there; here every ordered pair of every TZ layout is asked
    on its own, through the store and through a cache-less engine."""

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("case", _TZ_CASES)
    def test_every_pair_alone_is_the_single_query(self, case, shards):
        sketches = _decomposition_set(case)
        index = build_index(sketches, num_shards=shards)
        n = len(sketches)
        with QueryEngine(index, cache_size=0) as engine:
            for u in range(n):
                for v in range(n):
                    try:
                        want = [estimate_distance(sketches[u], sketches[v])]
                    except QueryError as exc:
                        want = (str(exc), 0)
                    assert _outcome(lambda: index.estimate_many(
                        np.array([u]), np.array([v]))) == want, (u, v)
                    assert _outcome(lambda: np.array(
                        [engine.dist(u, v)])) == want, (u, v)

    @settings(max_examples=60, **COMMON)
    @given(case=st.sampled_from(sorted(_DECOMPOSITION_CASES)),
           shards=st.sampled_from([1, 2, 3, 5]),
           path=st.sampled_from(["build", "rpix-mmap"]))
    def test_the_scalar_query_is_the_batch_of_one(self, case, shards, path,
                                                  tmp_path_factory):
        """A lone pair is answered by the store's scalar single-pair
        query (``estimate``, and the engine's batch of one): on every
        layout and whatever path built the store, its float is the
        batch path's bit for bit, and its QueryError the batch path's
        message at row 0 — through a cache-less engine and a cached
        one, miss and hit."""
        sketches = _decomposition_set(case)
        index = _through(path, build_index(sketches, num_shards=shards),
                         tmp_path_factory.mktemp("lone"))
        n = len(sketches)
        with QueryEngine(index, cache_size=0) as bare, \
                QueryEngine(index, cache_size=4 * n) as cached:
            for u in range(n):
                for v in range(n):
                    want = _bits(lambda: index.estimate_many(
                        np.array([u]), np.array([v])))
                    assert _bits(lambda: np.array(
                        [index.estimate(u, v)])) == want, (u, v)
                    for engine in (bare, cached, cached):
                        assert _bits(lambda: engine.dist_many(
                            [(u, v)])) == want, (u, v)
        assert cached.stats.hits > 0

    @pytest.mark.parametrize("case", _TZ_CASES)
    def test_a_hit_candidate_is_never_nan(self, case):
        """``finish`` takes the first hit by copying hit candidates into
        a NaN-prefilled answer and reads the NaNs left as the unresolved
        pairs — sound only because no hit's candidate is NaN (it is a sum
        of terms that are finite or +inf)."""
        sketches = _decomposition_set(case)
        index = build_index(sketches, num_shards=2)
        us, vs = _all_ordered_pairs(len(sketches))
        state, (request,) = index.plan(us, vs)
        try:
            index.finish(state, [index.answer(request)])
        except QueryError:
            pass  # the candidates are complete before anything raises
        assert state.hit.any()
        assert not np.isnan(state.cand[state.hit]).any()


# ----------------------------------------------------------------------
# the TZ probe kernel behind its miss filter
# ----------------------------------------------------------------------
def _tz_stores(index) -> list:
    """Every TZ bunch table inside a store (none in a stretch-3 one)."""
    if isinstance(index, TZIndex):
        return [index]
    if hasattr(index, "components"):
        return [comp._sub for comp in index.components]
    return [index._sub] if hasattr(index, "_sub") else []


def _walk_reference(store: TZIndex, keys) -> tuple[list, list]:
    """The directory walk one key at a time, the filter never asked:
    what ``_probe`` must return byte for byte."""
    from repro.service.index import _HASH_MULT

    dists, levels = [], []
    for key in keys:
        cur = int((np.array([key]).view(np.uint64) * _HASH_MULT)[0]
                  >> store.shift)
        while store.slots[cur] >= 0 and store.keys[store.slots[cur]] != key:
            cur = (cur + 1) & store.mask
        pos = store.slots[cur]
        dists.append(store.dists[pos])
        levels.append(store.levels[pos])
    return dists, levels


def _through(path: str, index, tmp_path):
    """The store ``path`` makes of ``index`` — one construction path
    that ends in ``_install`` each."""
    from repro.oracle.serialization import (load_index_binary,
                                            save_index_binary)

    if path == "rpix-mmap":
        file = tmp_path / "store.rpix"
        save_index_binary(index, file)
        return load_index_binary(file, backing="mmap")
    return index


class TestProbeBehindTheFilter:
    """Whatever path built the store, every resident key probes to its
    own row, everything else — the sentinel key -2 included — to the
    absent row, and ``_probe`` equals the unfiltered walk."""

    @settings(max_examples=150, **COMMON)
    @given(case=st.sampled_from(sorted(_DECOMPOSITION_CASES)),
           shards=st.sampled_from([1, 2, 3, 5, 8]),
           path=st.sampled_from(["build", "rpix-mmap"]),
           data=st.data())
    def test_resident_found_absent_rejected(self, case, shards, path, data,
                                            tmp_path_factory):
        sketches = _decomposition_set(case)
        full = build_index(sketches, num_shards=shards)
        index = _through(path, full, tmp_path_factory.mktemp("probe"))
        for whole, store in zip(_tz_stores(full), _tz_stores(index)):
            keys = np.asarray(store.keys)
            assert np.array_equal(keys, whole.keys)
            dist, level = store._probe(keys.astype(np.int64))
            assert dist.tobytes() == store.dists[:-1].tobytes()
            assert level.tobytes() == store.levels[:-1].tobytes()

            # probes drawn over the key space, rows of the table and the
            # sentinel mixed in
            drawn = data.draw(st.lists(st.integers(-2, store.n ** 2 - 1),
                                       max_size=40), label="probes")
            probes = np.asarray(drawn + [-2] + whole.keys[:40].tolist(),
                                dtype=np.int64)
            dist, level = store._probe(probes)
            want_dist, want_level = _walk_reference(store, probes.tolist())
            assert dist.tolist() == want_dist
            assert level.tolist() == want_level
            absent = ~np.isin(probes, keys)
            assert absent[len(drawn)]  # -2 is never resident
            assert not dist[absent].any() and (level[absent] == -1).all()
            assert (level[~absent] >= 0).all()

            # the scalar probe of a lone pair's scan (never asked for
            # the sentinel: the scan skips a negative pivot)
            live = probes >= 0
            assert [store._probe_one(key) for key in probes[live].tolist()] \
                == list(zip(dist[live].tolist(), level[live].tolist()))
