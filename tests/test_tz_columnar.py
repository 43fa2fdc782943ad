"""The columnar centralized builder: pinned outputs and kernel properties.

``GOLDEN`` holds, per case, a digest of every sketch — pivots, bunch
values **and bunch dict order** — and of the RPIX bytes of the index
built from them.  The sketch digests were recorded at the commit
*before* the per-root Dijkstra loop became the frontier kernel (and
before :class:`TZIndex` was assembled from arrays) and have not moved
since; the RPIX digests were re-recorded when the container went to
version 2 (one bunch table and one directory per TZ store), and again at
version 3 (int32 keys, int8 levels, a directory of int32 rows) — each
version-3 container checked column by column to hold the values of the
version-2 one it replaced.  Any builder must reproduce the table
exactly; the kernel tests below then compare its rows against the
per-root reference :func:`cluster_of` and the definition-based
:func:`brute_force_bunches`.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import build_sketches
from repro.graphs import (Graph, apsp, assign_uniform_weights, erdos_renyi,
                          ring)
from repro.oracle.serialization import (index_binary_bytes,
                                        load_index_binary, load_index_bytes)
from repro.service import build_index
from repro.tz import (Hierarchy, brute_force_bunches,
                      build_tz_sketches_centralized, centralized,
                      compute_pivot_keys, sample_hierarchy)


# ----------------------------------------------------------------------
# (a) golden digests
# ----------------------------------------------------------------------
def _two_components() -> Graph:
    """A weighted 12-ring and an integer-weight 9-node ER graph, side by
    side with no edge between them."""
    g = Graph(21)
    for u, v, w in assign_uniform_weights(ring(12), seed=5).edges():
        g.add_edge(u, v, w)
    for u, v, w in erdos_renyi(9, seed=6).edges():
        g.add_edge(12 + u, 12 + v, float(1 + (u * v) % 3))
    return g


def _cases(request) -> dict:
    """``name -> (graph, universe or None)``."""
    er_weighted = request.getfixturevalue("er_weighted")
    return {
        "er_weighted": (er_weighted, None),
        "er_unit": (request.getfixturevalue("er_unit"), None),
        "small_grid": (request.getfixturevalue("small_grid"), None),
        "small_ring": (request.getfixturevalue("small_ring"), None),
        "two_components": (_two_components(), None),
        # CDG-style: the hierarchy lives on a net, the other nodes have
        # level -1 — inside clusters, never roots
        "net_universe": (er_weighted, range(0, er_weighted.n, 3)),
        "single_node": (Graph(1), None),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


def _sketch_digest(sketches) -> str:
    """Everything a sketch holds, bunch iteration order included."""
    return _sha(repr([(s.node, s.k, s.pivots, list(s.bunch.items()))
                      for s in sketches]).encode())


GOLDEN = {
    ('er_weighted', 1): ('215e48b658018c07b2a3', '94089feaa3903c594bea'),
    ('er_weighted', 2): ('c9aed4302ea866449008', '35da0d8f579f53c97e5b'),
    ('er_weighted', 3): ('8b8b5cb510c020927993', 'd3d041c78081bd272eca'),
    ('er_unit', 1): ('9f5823324d08be4f4a37', '3703663fa792e3364c5e'),
    ('er_unit', 2): ('d2072961598069fbf5c2', '7d45ae65cd8755c4717b'),
    ('er_unit', 3): ('e76982ed03d34e6590f2', '3fa9cf8c0a3cf86c20a7'),
    ('small_grid', 1): ('9938e900d3b9ca9313fa', '7553b1b8fb8a1fb67668'),
    ('small_grid', 2): ('0c7f9edd01a767feef30', '0e8d0adefb1e9d5d269c'),
    ('small_grid', 3): ('97209afbde1d770f831f', 'f256230df9e380ba7893'),
    ('small_ring', 1): ('5d5e297d2acb37702401', 'e8327f05ded5770e358f'),
    ('small_ring', 2): ('394c05c4a64cd266cb45', '15ad6f93c1614a24767b'),
    ('small_ring', 3): ('39fc21ab0b138c8befa8', '73a8378fe334442bb1c7'),
    ('two_components', 1): ('92b051f0ea11afa81622', 'c935c5262fa5c16d62f3'),
    ('two_components', 2): ('9bbafc60022261f32e29', '6d84bd822b084589cc85'),
    ('two_components', 3): ('c2e8241d9ca6a061a024', '733af4b817580df1082e'),
    ('net_universe', 1): ('534d42412c22fea1ecca', 'e78f15cd1c5f0d46e03f'),
    ('net_universe', 2): ('63049f6d3fe818e71793', '97be0c4cfbc40b149836'),
    ('net_universe', 3): ('e6477d556f01a604c2d9', '1db0d4d2c40dac43b238'),
    ('single_node', 1): ('44409bfd49f7b62d2889', '76b10edaf4ccd8a219af'),
    ('single_node', 2): ('4512eb254926d865b129', '0e006163952e85790b02'),
    ('single_node', 3): ('236cd8ce4ba010c5afbb', '527891781e06e0d1a754'),
}


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("name", (
    "er_weighted", "er_unit", "small_grid", "small_ring", "two_components",
    "net_universe", "single_node"))
def test_golden_sketches_and_index_bytes(request, name, k):
    graph, universe = _cases(request)[name]
    h = sample_hierarchy(graph.n, k, universe=universe, seed=31 + k)
    sketches, _ = build_tz_sketches_centralized(graph, hierarchy=h)
    row = (_sketch_digest(sketches),
           _sha(index_binary_bytes(build_index(sketches, num_shards=3))))
    assert row == GOLDEN[name, k]


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("name", ("er_weighted", "two_components",
                                  "net_universe", "single_node"))
def test_pinned_container_reloads_to_the_same_bytes(request, tmp_path,
                                                    name, k):
    """The golden RPIX digests were recorded before the container had
    one loader, so bytes that hash to them are a container *as earlier
    commits wrote it*: each way of loading it gives a store that writes
    those bytes again."""
    graph, universe = _cases(request)[name]
    h = sample_hierarchy(graph.n, k, universe=universe, seed=31 + k)
    sketches, _ = build_tz_sketches_centralized(graph, hierarchy=h)
    blob = index_binary_bytes(build_index(sketches, num_shards=3))
    assert _sha(blob) == GOLDEN[name, k][1]
    (tmp_path / "old.rpix").write_bytes(blob)
    for store in (load_index_bytes(blob),
                  load_index_binary(tmp_path / "old.rpix", backing="heap"),
                  load_index_binary(tmp_path / "old.rpix", backing="mmap")):
        assert index_binary_bytes(store) == blob


# ----------------------------------------------------------------------
# (b) the kernel against the per-root reference and the definition
# ----------------------------------------------------------------------
@st.composite
def instances(draw):
    """A random graph — sparse enough to fall apart now and then — with
    unit, small-integer (ties everywhere) or float weights, and a
    hierarchy sampled over all of V or over a subset."""
    n = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("unit", "int", "float")))
    p = draw(st.sampled_from((0.03, 0.1, 0.3)))
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v, {"unit": 1.0,
                                  "int": float(rng.integers(1, 4)),
                                  "float": float(rng.uniform(0.1, 10.0)),
                                  }[kind])
    universe = None
    if draw(st.booleans()):
        universe = np.flatnonzero(rng.random(n) < 0.5)
        if universe.size == 0:
            universe = [int(rng.integers(n))]
    h = sample_hierarchy(n, draw(st.integers(1, 4)), universe=universe,
                         seed=rng)
    return g, h, kind


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_kernel_rows_equal_cluster_of_and_definition(instance):
    g, h, kind = instance
    pk = compute_pivot_keys(g, h)
    table = centralized.grow_clusters(g, h, pk, h.universe())
    key = (table.owner * h.k + table.level) * g.n + table.landmark
    assert (np.diff(key) > 0).all()  # canonical order, no duplicates
    for w in h.universe().tolist():
        rows = table.landmark == w
        assert (table.level[rows] == h.level_of(w)).all()
        mine = dict(zip(table.owner[rows].tolist(),
                        table.dist[rows].tolist()))
        # same members, the very same floats
        assert mine == centralized.cluster_of(g, w, h.level_of(w),
                                              pk[h.level_of(w) + 1])
    fast = table.bunches(g.nodes())
    slow = brute_force_bunches(g, h, dist_matrix=apsp(g))
    if kind == "float":
        # the definition reads d(u, w) off u's row, the builder grows it
        # from w: same members and levels, sums equal up to their order
        assert [sorted(b) for b in fast] == [sorted(b) for b in slow]
        for bf, bs in zip(fast, slow):
            for w, (d, lvl) in bf.items():
                assert lvl == bs[w][1] and d == pytest.approx(bs[w][0],
                                                              rel=1e-12)
    else:
        assert fast == slow


# ----------------------------------------------------------------------
# (c) + (d) the table does not depend on how the roots were split
# ----------------------------------------------------------------------
def _columns(table):
    return [c.tolist() for c in table[:4]]


def _grow(graph, h, pk, roots):
    return centralized.grow_clusters(graph, h, pk, roots)


@pytest.mark.parametrize("k", (2, 3))
def test_block_size_is_invisible(monkeypatch, er_weighted, k):
    h = sample_hierarchy(er_weighted.n, k, seed=3)
    pk = compute_pivot_keys(er_weighted, h)
    default = _grow(er_weighted, h, pk, h.universe())
    for cells in (1, 1 << 40):  # one root per block / one block per level
        monkeypatch.setattr(centralized, "_BLOCK_CELLS", cells)
        table = _grow(er_weighted, h, pk, h.universe())
        assert _columns(table) == _columns(default)


def test_root_split_is_invisible(er_unit):
    h = sample_hierarchy(er_unit.n, 3, seed=4)
    pk = compute_pivot_keys(er_unit, h)
    roots = h.universe()
    whole = _grow(er_unit, h, pk, roots)
    parts = [_grow(er_unit, h, pk, roots[j::3]) for j in range(3)]
    assert _columns(centralized.merge_bunch_tables(parts)) == _columns(whole)
    assert _grow(er_unit, h, pk, []).owner.size == 0


def test_build_report_counts_every_bunch_entry(er_weighted):
    built = build_sketches(er_weighted, "tz", k=3, seed=8)
    assert built.extras["build"]["entries"] == sum(
        len(s.bunch) for s in built.sketches)


@pytest.mark.parametrize("k", (2, 3))
def test_report_counts_fewer_relaxations_than_unpruned_rows(er_weighted, k):
    """Unpruned, every member of a truncated cluster relaxes its whole
    row at least once; the prune drops the edges heavier than their
    head's threshold, so the kernel examines strictly fewer."""
    built = build_sketches(er_weighted, "tz", k=k, seed=8)
    deg = np.diff(er_weighted.to_csr().indptr)
    unpruned = sum(int(deg[s.node]) for s in built.sketches
                   for _, level in s.bunch.values() if level < k - 1)
    assert 0 < built.extras["build"]["relaxations"] < unpruned


# ----------------------------------------------------------------------
# (e) the prune's tie boundary
# ----------------------------------------------------------------------
@pytest.mark.parametrize("root, pivot, admitted", ((0, 2, True),
                                                   (2, 0, False)))
def test_an_edge_as_heavy_as_the_threshold_is_kept(root, pivot, admitted):
    """The path ``root —2— 1 —2— pivot``, ``pivot`` alone in ``A_1``:
    the edge into 1 weighs exactly ``d(1, A_1)``, so the tie decides,
    and 1 is in ``C(root)`` iff ``root < p_1(1)``.  A prune that dropped
    edges of weight ``≥ d(v, A_{i+1})`` would lose 1 in the first case."""
    g = Graph(3)
    g.add_edge(root, 1, 2.0)
    g.add_edge(1, pivot, 2.0)
    level = np.zeros(3, dtype=np.int64)
    level[pivot] = 1
    h = Hierarchy(n=3, k=2, q=0.5, level=level)
    pk = compute_pivot_keys(g, h)
    table = centralized.grow_clusters(g, h, pk, h.universe())
    for w in range(3):
        rows = table.landmark == w
        assert dict(zip(table.owner[rows].tolist(),
                        table.dist[rows].tolist())) == centralized.cluster_of(
            g, w, h.level_of(w), pk[h.level_of(w) + 1])
    assert (1 in table.owner[table.landmark == root]) is admitted
