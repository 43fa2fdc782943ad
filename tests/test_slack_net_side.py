"""The Section 4 sketches are computed from the net side: no build,
update (stretch3's repair, the others' rebuild) or index of stretch3,
cdg or graceful needs the n × n matrix."""

from __future__ import annotations

import sys

import pytest

from repro.graphs import assign_uniform_weights, erdos_renyi
from repro.graphs import metrics
from repro.oracle.api import build_sketches
from repro.service import build_index
from repro.service.updates import UpdateableIndex, sample_weight_changes

PARAMS = {"stretch3": {"eps": 0.1}, "cdg": {"eps": 0.1, "k": 2},
          "graceful": {}}


@pytest.fixture(scope="module")
def graph():
    return assign_uniform_weights(erdos_renyi(500, seed=41), seed=42)


@pytest.fixture
def no_apsp(monkeypatch):
    """``apsp`` raises, under every name the package binds it to
    (``distance_rows(g, None)`` goes through it too)."""
    def refuse(g):
        raise AssertionError("apsp called")

    original = metrics.apsp
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and \
                getattr(module, "apsp", None) is original:
            monkeypatch.setattr(module, "apsp", refuse)


@pytest.mark.parametrize("scheme", sorted(PARAMS))
def test_build_repair_and_index_without_apsp(graph, no_apsp, scheme):
    built = build_sketches(graph, scheme, seed=3, **PARAMS[scheme])
    index = build_index(built.sketches, num_shards=2)
    assert index.n == graph.n
    upd = UpdateableIndex(graph, scheme, seed=3, sketches=built.sketches,
                          **PARAMS[scheme])
    report = upd.apply(sample_weight_changes(graph, 2, seed=4))
    assert report.mode == ("repair" if scheme == "stretch3" else "rebuild")
    assert upd.index == upd.rebuild_reference()


@pytest.mark.slow
@pytest.mark.parametrize("scheme,bound_mb", [("stretch3", 700), ("cdg", 300),
                                             ("graceful", 900)])
def test_build_at_ten_thousand_nodes_in_bounded_memory(peak_rss_at_scale,
                                                       scheme, bound_mb):
    """ER + uniform weights at n = 10^4, a centralized build, then its
    index, in a fresh process: ≈ 500 MB peak measured for stretch3
    (eps = 0.1, 10^4 dicts of ≈ 460 entries), ≈ 140 MB for cdg and
    ≈ 620 MB for graceful — the n × n matrix alone would be 800 MB."""
    assert peak_rss_at_scale(scheme, **PARAMS[scheme]) <= bound_mb
