"""Public API (repro.oracle.api, repro.oracle.schemes)."""

import pytest

from repro import build_sketches
from repro.errors import ConfigError
from repro.graphs import shortest_path_diameter
from repro.oracle.schemes import SCHEMES, get_scheme


class TestRegistry:
    def test_all_schemes_present(self):
        assert set(SCHEMES) == {"tz", "stretch3", "cdg", "graceful"}

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError, match="unknown scheme"):
            get_scheme("magic")

    def test_stretch_bounds(self):
        assert SCHEMES["tz"].stretch_bound({"k": 3}) == 5
        assert SCHEMES["stretch3"].stretch_bound({"eps": 0.1}) == 3
        assert SCHEMES["cdg"].stretch_bound({"k": 2}) == 15
        assert SCHEMES["graceful"].stretch_bound({"n": 64}) == 47

    def test_slack_semantics(self):
        assert SCHEMES["tz"].slack_of({"k": 3}) is None
        assert SCHEMES["stretch3"].slack_of({"eps": 0.2}) == 0.2
        assert SCHEMES["graceful"].slack_of({"n": 10}) is None

    def test_describe(self):
        text = SCHEMES["cdg"].describe({"eps": 0.25, "k": 2})
        assert "15" in text and "0.25" in text


#: scheme -> the build parameters of the rows below
ROW_PARAMS = {"tz": {"k": 3}, "stretch3": {"eps": 0.8},
              "cdg": {"eps": 0.8, "k": 2}, "graceful": {}}

#: ``sha256(repr(sketches))[:20]`` of ``build_sketches(er_weighted,
#: scheme, mode, seed=seed, **ROW_PARAMS[scheme])``, recorded on the
#: per-scheme builders before the registry row replaced them
GOLDEN = {
    "tz/centralized/1": "e0322e24dbd7c0644905",
    "tz/centralized/7": "326c40d293b2b970c05c",
    "tz/distributed/1": "b934fe0313f05413f5c8",
    "tz/distributed/7": "27fafe2dea9132c6eabc",
    "stretch3/centralized/1": "4ba2fdda080dd95912dd",
    "stretch3/centralized/7": "fcaf476a78a3aee198d6",
    "stretch3/distributed/1": "1e513d7bc5262947055d",
    "stretch3/distributed/7": "7981d6876f7b95dd94e9",
    "cdg/centralized/1": "f8b6454cc07365f2c683",
    "cdg/centralized/7": "db480e4c1447278e3c16",
    "cdg/distributed/1": "420b6a9af32ce9c43cc7",
    "cdg/distributed/7": "25d79683040444abf719",
    "graceful/centralized/1": "2977e3f64a4c7b23b9b2",
    "graceful/centralized/7": "089a5258faa8133fab0c",
    "graceful/distributed/1": "76543258582559c6288c",
    "graceful/distributed/7": "8f130e7122f66a9d824a",
}


class TestRegistryRow:
    """A scheme is one registry row: ``sample`` draws its artifacts,
    ``sketches`` is the function every build and rebuild ends in."""

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_same_seed_same_bytes(self, er_weighted, key):
        import hashlib

        scheme, mode, seed = key.split("/")
        built = build_sketches(er_weighted, scheme, mode, seed=int(seed),
                               **ROW_PARAMS[scheme])
        assert hashlib.sha256(repr(built.sketches).encode()
                              ).hexdigest()[:20] == GOLDEN[key]

    @pytest.mark.parametrize("scheme", sorted(ROW_PARAMS))
    def test_sample_is_the_identity_on_its_output(self, er_weighted,
                                                  scheme):
        spec = get_scheme(scheme)
        artifacts = spec.sample(er_weighted, 3, ROW_PARAMS[scheme])
        again = spec.sample(er_weighted, None, artifacts)
        assert all(again[key] is artifacts[key] for key in artifacts)
        built = build_sketches(er_weighted, scheme, seed=3,
                               **ROW_PARAMS[scheme])
        assert built.sketches == spec.sketches(er_weighted, artifacts)
        assert built.artifacts.keys() == artifacts.keys()

    @pytest.mark.parametrize("scheme", ["tz"])
    def test_owner_subset_equals_the_full_build(self, er_weighted, scheme):
        """What a CDG build's net labels rest on: a TZ owner's label
        does not depend on who else is being built."""
        spec = get_scheme(scheme)
        artifacts = spec.sample(er_weighted, 5, ROW_PARAMS[scheme])
        full = spec.sketches(er_weighted, artifacts)
        for owners in ([0], [7, 3, 30], list(range(er_weighted.n))):
            assert spec.sketches(er_weighted, artifacts, owners) == \
                [full[u] for u in owners]

    @pytest.mark.parametrize("scheme", ["tz"])
    def test_owner_subset_on_a_disconnected_graph(self, scheme):
        from repro.graphs import Graph

        # components {0, 1} and {2, 3, 4}; at n = 5 every sampled net
        # is all of V, so each component holds a net member
        g = Graph(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 4, 2.0)])
        spec = get_scheme(scheme)
        artifacts = spec.sample(g, 2, ROW_PARAMS[scheme])
        full = spec.sketches(g, artifacts)
        assert spec.sketches(g, artifacts, [4, 1]) == [full[4], full[1]]


class TestBuildDispatch:
    def test_tz_requires_k(self, er_unit):
        with pytest.raises(ConfigError):
            build_sketches(er_unit, scheme="tz")

    def test_stretch3_requires_eps(self, er_unit):
        with pytest.raises(ConfigError):
            build_sketches(er_unit, scheme="stretch3")

    def test_cdg_requires_both(self, er_unit):
        with pytest.raises(ConfigError):
            build_sketches(er_unit, scheme="cdg", eps=0.2)

    def test_bad_mode_rejected(self, er_unit):
        with pytest.raises(ConfigError):
            build_sketches(er_unit, scheme="tz", mode="quantum", k=2)

    def test_centralized_has_no_metrics(self, er_unit):
        b = build_sketches(er_unit, scheme="tz", k=2, seed=1)
        assert b.metrics is None
        assert "centralized" in b.describe()

    def test_distributed_has_metrics(self, er_unit):
        b = build_sketches(er_unit, scheme="tz", mode="distributed", k=2,
                           seed=1)
        assert b.metrics is not None and b.metrics.rounds > 0
        assert "rounds" in b.describe()
        assert b.metrics.describe() in b.describe()  # engine cost included
        assert f"{b.metrics.wakeups} wake-ups" in b.describe()

    def test_extras_expose_hierarchy_and_net(self, er_unit):
        b = build_sketches(er_unit, scheme="cdg", eps=0.3, k=2, seed=2)
        assert "net" in b.extras and "hierarchy" in b.extras


class TestUnknownParameters:
    """A keyword the scheme/mode does not read is refused, never
    dropped: a typo of ``sync=`` must not build with the oracle
    terminator, and a stale ``jobs=`` must not look accepted."""

    REQUIRED = {"tz": {"k": 2}, "stretch3": {"eps": 0.4},
                "cdg": {"eps": 0.4, "k": 2}, "graceful": {}}

    @pytest.mark.parametrize("mode", ["centralized", "distributed"])
    @pytest.mark.parametrize("scheme", sorted(REQUIRED))
    @pytest.mark.parametrize("stray", ["sinc", "jobs", "epsilon"])
    def test_rejected_per_scheme_and_mode(self, er_unit, scheme, mode,
                                          stray):
        with pytest.raises(ConfigError, match=f"no parameter '{stray}'"):
            build_sketches(er_unit, scheme, mode, seed=1,
                           **self.REQUIRED[scheme], **{stray: 2})

    @pytest.mark.parametrize("scheme", ["tz", "cdg", "graceful"])
    @pytest.mark.parametrize("sync", [None, "oracle", "echo"])
    @pytest.mark.parametrize("given", [{"S": 4}, {"budget": [1, 1]},
                                       {"S": 4, "budget": "whp"}])
    def test_round_budgets_need_known_smax(self, er_unit, scheme, sync,
                                           given):
        """``S`` and ``budget`` size the known-S terminator's phases and
        nothing else: under any other sync (a missing one is the oracle)
        they would be dropped, so they are refused."""
        params = {**self.REQUIRED[scheme], **given}
        if sync is not None:
            params["sync"] = sync
        with pytest.raises(ConfigError, match="only with sync='known_smax'"):
            build_sketches(er_unit, scheme, "distributed", seed=1, **params)

    def test_the_error_names_what_is_read(self, er_unit):
        with pytest.raises(ConfigError, match="reads: k, hierarchy$"):
            build_sketches(er_unit, "tz", k=2, epsilon=0.5, sinc="echo")
        # a parameter of the other mode is as unknown as a typo
        with pytest.raises(ConfigError, match="'sync'"):
            build_sketches(er_unit, "tz", k=2, sync="echo")
        with pytest.raises(ConfigError, match="'dist_matrix'"):
            build_sketches(er_unit, "stretch3", "distributed", eps=0.4,
                           dist_matrix=None)

    @pytest.mark.parametrize("scheme", sorted(REQUIRED))
    def test_recorded_artifacts_are_read(self, small_ring, scheme):
        """What a build records is a parameter its scheme reads: a
        build from ``built.artifacts`` gives the same sketches — how
        ``updateable()`` rebuilds."""
        built = build_sketches(small_ring, scheme, seed=3,
                               **self.REQUIRED[scheme])
        again = build_sketches(small_ring, scheme, **built.artifacts)
        assert again.sketches == built.sketches

    def test_every_read_parameter_is_accepted(self, small_ring):
        from repro.oracle.api import _PARAMS

        for (scheme, mode), names in _PARAMS.items():
            params = {**dict.fromkeys(names), **self.REQUIRED[scheme]}
            if "sync" in names:
                params.update(sync="known_smax", budget="whp",
                              S=shortest_path_diameter(small_ring))
            built = build_sketches(small_ring, scheme, mode, seed=3,
                                   **params)
            assert len(built.sketches) == small_ring.n


class TestQueryFacade:
    def test_query_all_schemes(self, er_unit, er_unit_apsp):
        for scheme, params in [("tz", {"k": 2}), ("stretch3", {"eps": 0.3}),
                               ("cdg", {"eps": 0.3, "k": 2}),
                               ("graceful", {})]:
            b = build_sketches(er_unit, scheme=scheme, seed=3, **params)
            est = b.query(0, er_unit.n - 1)
            assert est >= er_unit_apsp[0, er_unit.n - 1] - 1e-9

    def test_tz_query_method_passthrough(self, er_unit):
        b = build_sketches(er_unit, scheme="tz", k=2, seed=4)
        a = b.query(0, 5, method="paper")
        c = b.query(0, 5, method="classic")
        assert a > 0 and c > 0

    def test_size_helpers(self, er_unit):
        b = build_sketches(er_unit, scheme="tz", k=2, seed=5)
        sizes = b.sizes_words()
        assert len(sizes) == er_unit.n
        assert b.max_size_words() == max(sizes)
        assert b.mean_size_words() == pytest.approx(sum(sizes) / len(sizes))

    def test_stretch_bound_and_slack_facade(self, er_unit):
        b = build_sketches(er_unit, scheme="cdg", eps=0.3, k=2, seed=6)
        assert b.stretch_bound() == 15
        assert b.slack() == 0.3


class TestSeedSemantics:
    def test_same_seed_same_sketches(self, er_unit):
        a = build_sketches(er_unit, scheme="tz", k=2, seed=7)
        b = build_sketches(er_unit, scheme="tz", k=2, seed=7)
        for sa, sb in zip(a.sketches, b.sketches):
            assert sa.pivots == sb.pivots and sa.bunch == sb.bunch

    def test_shared_hierarchy_links_modes(self, er_unit):
        a = build_sketches(er_unit, scheme="tz", k=2, seed=8)
        h = a.extras["hierarchy"]
        b = build_sketches(er_unit, scheme="tz", mode="distributed",
                           hierarchy=h, seed=9)
        for sa, sb in zip(a.sketches, b.sketches):
            assert sa.pivots == sb.pivots and sa.bunch == sb.bunch


class TestQueryIdRange:
    """``BuiltSketches.query`` checks ids the way ``query_many`` does:
    a negative id is not Python's index from the end, and an id past
    the graph is a ``QueryError``, not an ``IndexError``."""

    @pytest.fixture(scope="class", params=[("tz", "distributed", {"k": 2}),
                                           ("stretch3", "centralized",
                                            {"eps": 0.8})],
                    ids=lambda p: f"{p[0]}-{p[1]}")
    def built(self, request, er_unit):
        scheme, mode, params = request.param
        return build_sketches(er_unit, scheme, mode, seed=3, **params)

    @pytest.mark.parametrize("bad", [-1, "n", 2**63, 1.5])
    @pytest.mark.parametrize("end", ["u", "v"])
    def test_bad_id_raises_what_query_many_raises(self, built, bad, end):
        from repro.errors import QueryError

        n = built.graph.n
        bad = n if bad == "n" else bad
        pair = (bad, 0) if end == "u" else (0, bad)
        with pytest.raises((QueryError, ConfigError)) as many:
            built.query_many([pair])
        with pytest.raises(type(many.value)) as one:
            built.query(*pair)
        assert str(one.value) == str(many.value)

    def test_in_range_ids_still_answer(self, built):
        n = built.graph.n
        assert built.query(0, n - 1) == built.query_many([(0, n - 1)])[0]


class TestRepairPolicies:
    """An update repairs only where the scheme's row has a ``repair``
    (stretch3), at any dirty fraction; every other row rebuilds.  Both
    paths end in the from-scratch index."""

    @staticmethod
    def _dirtying(dirty: int, n: int):
        """A graph on which ``set (0, 1)`` dirties exactly ``dirty``
        nodes: the edge's ends and the pendants of 0.  The hub 2 and its
        pendants are as far from 0 as from 1, so they stay clean."""
        from repro.graphs import Graph

        edges = [(0, 1, 1.5), (0, 2, 1.0), (1, 2, 1.0)]
        edges += [(0, v, 1.25) for v in range(3, dirty + 1)]
        edges += [(2, v, 1.25) for v in range(dirty + 1, n)]
        return Graph(n, edges)

    @pytest.mark.parametrize("scheme", sorted(ROW_PARAMS))
    def test_only_a_row_with_a_repair_repairs(self, scheme):
        from repro.service.updates import EdgeChange, UpdateableIndex

        n = 40
        mode = "repair" if scheme == "stretch3" else "rebuild"
        cases = [(self._dirtying(dirty, n), [EdgeChange("set", 0, 1, 1.75)],
                  dirty) for dirty in (2, n // 2, n - 1)]
        # moving (0, 2) as well dirties the hub side too: every node
        cases.append((self._dirtying(n - 1, n),
                      [EdgeChange("set", 0, 1, 1.75),
                       EdgeChange("set", 0, 2, 1.75)], n))
        for graph, changes, dirty in cases:
            upd = UpdateableIndex(graph, scheme, seed=1,
                                  **ROW_PARAMS[scheme])
            report = upd.apply(changes)
            assert (report.dirty, report.mode) == (dirty, mode)
            assert upd.index == upd.rebuild_reference()
