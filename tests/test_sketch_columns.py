"""Every scheme's sketch set as columns, from the build to every epoch.

A centralized build of any scheme hands back its
:class:`~repro.tz.sketch.ColumnLabels` (``TZLabels``,
``Stretch3Labels``, ``CDGLabels``, ``GracefulLabels``); the index, the
sizes, a session and the update path read the columns, and stretch3's
repair splices rows into them.  These tests pin the list contract for the
Section 4 classes (``tests/test_tz_labels.py`` pins TZ's), that the
store built from the columns is byte for byte the one built from the
list, and that no per-node sketch object is created from a build to
the container of an updated epoch.
"""

from __future__ import annotations

import pickle
import numpy as np
import pytest

from repro import build_sketches
from repro.graphs import random_geometric
from repro.oracle.schemes import SCHEMES
from repro.oracle.serialization import index_binary_bytes, save_index_binary
from repro.service import build_index, connect, sample_weight_changes
from repro.slack.cdg import CDGLabels, CDGSketch
from repro.slack.graceful import GracefulLabels, GracefulSketch
from repro.slack.stretch3 import Stretch3Labels, Stretch3Sketch
from repro.tz.sketch import TZLabels, TZSketch

PARAMS = {"tz": {"k": 2}, "stretch3": {"eps": 0.3},
          "cdg": {"eps": 0.3, "k": 2}, "graceful": {}}
COLUMNS = {"tz": TZLabels, "stretch3": Stretch3Labels, "cdg": CDGLabels,
           "graceful": GracefulLabels}
SECTION4 = ("stretch3", "cdg", "graceful")


@pytest.fixture
def created(monkeypatch):
    """Counts the per-node sketch objects of every scheme constructed
    from here on, by class name."""
    made: list[str] = []
    for cls in (TZSketch, Stretch3Sketch, CDGSketch, GracefulSketch):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            made.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return made


def _built(graph, scheme, seed=4):
    return build_sketches(graph, scheme, seed=seed, **PARAMS[scheme])


# ----------------------------------------------------------------------
# the list contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", SECTION4)
class TestListContract:
    def test_the_builder_returns_columns(self, er_weighted, scheme,
                                         created):
        labels = _built(er_weighted, scheme).sketches
        assert type(labels) is COLUMNS[scheme] and created == []
        assert len(labels) == er_weighted.n

    def test_reads_like_the_list(self, er_weighted, scheme):
        labels = _built(er_weighted, scheme).sketches
        plain = list(_built(er_weighted, scheme).sketches)
        n = er_weighted.n
        assert labels[-1] == plain[-1] and labels[-n] == plain[0]
        assert labels[3:9] == plain[3:9] and isinstance(labels[3:9], list)
        assert labels[n - 1].node == n - 1
        with pytest.raises(IndexError):
            labels[n]
        assert list(labels) == plain

    def test_equality_repr_and_pickle(self, er_weighted, scheme):
        labels = _built(er_weighted, scheme).sketches
        plain = list(_built(er_weighted, scheme).sketches)
        assert labels == plain and plain == labels
        assert labels != plain[:-1] and plain[:-1] != labels
        assert labels != tuple(plain)
        assert repr(labels) == repr(plain)
        back = pickle.loads(pickle.dumps(_built(er_weighted, scheme)
                                         .sketches))
        assert type(back) is COLUMNS[scheme] and back == plain
        with pytest.raises(TypeError):
            hash(labels)

    def test_sizes_are_the_sketches_sizes(self, er_weighted, scheme,
                                          created):
        labels = _built(er_weighted, scheme).sketches
        sizes = labels.sizes_words()
        assert created == []
        assert sizes == [s.size_words() for s in labels]

    def test_from_sketches_round_trips(self, er_weighted, scheme):
        labels = _built(er_weighted, scheme).sketches
        assert COLUMNS[scheme].from_sketches(list(labels)) == labels


# ----------------------------------------------------------------------
# the stores are built from the columns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", (1, 3))
@pytest.mark.parametrize("scheme", sorted(PARAMS))
def test_index_from_columns_equals_index_from_the_list(er_weighted, scheme,
                                                       num_shards):
    labels = _built(er_weighted, scheme).sketches
    plain = list(_built(er_weighted, scheme).sketches)
    assert index_binary_bytes(build_index(labels, num_shards)) == \
        index_binary_bytes(build_index(plain, num_shards))


@pytest.mark.parametrize("scheme", ["stretch3"])
def test_a_splice_is_the_list_with_those_rows_replaced(er_weighted,
                                                       scheme):
    """Rows of another build's columns spliced in equal the list with
    those sketches replaced, and index to that list's bytes."""
    from repro.service.updates import UpdateableIndex

    upd = UpdateableIndex(er_weighted, scheme, seed=4, **PARAMS[scheme])
    moved = er_weighted.copy()
    for u, v, w in list(er_weighted.edges())[:3]:
        moved.set_weight(u, v, 0.3 * w)
    new = SCHEMES[scheme].sketches(moved, upd.artifacts)
    rows = np.array([1, 4, 9, 30])
    patch = Stretch3Labels(new.eps, rows, new.net_ids, new.dist[rows])
    spliced = upd.sketches.spliced(rows, patch)
    old = list(upd.sketches)
    merged = [new[u] if u in rows else old[u] for u in range(len(old))]
    assert list(upd.sketches) == old  # the old columns are not written
    assert spliced == merged
    assert index_binary_bytes(build_index(spliced)) == index_binary_bytes(
        build_index(list(spliced)))


# ----------------------------------------------------------------------
# from a build to every epoch, no per-node object
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", sorted(PARAMS))
def test_build_to_repaired_epoch_builds_no_sketch_objects(
        tmp_path, created, scheme):
    """At n = 2000: build → ``updateable()`` → two update epochs (a
    400-edge batch, then a one-edge one; stretch3 repairs them, the
    others rebuild) → ``save_index_binary`` → ``sizes_words()``, then a
    session over the live index: zero per-node sketch objects."""
    graph = random_geometric(2000, seed=7)
    built = build_sketches(graph, scheme, seed=11, **PARAMS[scheme])
    upd = built.updateable()
    wide = upd.apply(sample_weight_changes(upd.graph, 400, seed=1))
    narrow = upd.apply(sample_weight_changes(upd.graph, 1, seed=2))
    save_index_binary(upd.index, tmp_path / "x.rpix")
    sizes = built.sizes_words(), upd.sketches.sizes_words()
    with connect("inproc://", upd) as client:
        client.dist_many([(0, 5), (9, 1999)])
    mode = "repair" if scheme == "stretch3" else "rebuild"
    assert (wide.mode, narrow.mode) == (mode, mode)
    assert created == []
    assert upd.sketches._labels is None and len(sizes[1]) == 2000
    assert sizes[0][:5] == [s.size_words() for s in built.sketches[:5]]
