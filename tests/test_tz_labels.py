"""``TZLabels``: a TZ build's labels as columns, read as a list.

A centralized build hands back pivot arrays and bunch columns; the
per-node :class:`TZSketch` dicts exist only once a caller indexes into
them.  These tests pin the list contract (what every caller of the old
list relied on), that the serving path — index, container, sizes,
sessions — never builds a dict, and that the index built from the
columns is byte for byte the one built from the dicts.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro import build_sketches
from repro.graphs import assign_uniform_weights, erdos_renyi
from repro.oracle.serialization import index_binary_bytes, save_index_binary
from repro.service import TZIndex, build_index, connect
from repro.tz import build_tz_sketches_centralized
from repro.tz.sketch import TZLabels, TZSketch


@pytest.fixture
def created(monkeypatch):
    """Counts the :class:`TZSketch` objects constructed from here on."""
    made = []
    original = TZSketch.__post_init__

    def counting(self):
        made.append(self.node)
        original(self)

    monkeypatch.setattr(TZSketch, "__post_init__", counting)
    return made


def _labels(graph, k=3, seed=11) -> TZLabels:
    labels, _ = build_tz_sketches_centralized(graph, k=k, seed=seed)
    assert isinstance(labels, TZLabels)
    return labels


# ----------------------------------------------------------------------
# the list contract
# ----------------------------------------------------------------------
class TestListContract:
    def test_reads_like_the_list(self, er_weighted):
        labels = _labels(er_weighted)
        plain = list(_labels(er_weighted))
        n = er_weighted.n
        assert len(labels) == n
        assert labels[-1] == plain[-1] and labels[-n] == plain[0]
        assert labels[3:9] == plain[3:9] and isinstance(labels[3:9], list)
        assert labels[::-1] == plain[::-1]
        assert labels[n - 1].node == n - 1
        with pytest.raises(IndexError):
            labels[n]
        assert list(labels) == plain

    def test_equality_both_ways(self, er_weighted):
        labels, plain = _labels(er_weighted), list(_labels(er_weighted))
        assert labels == plain and plain == labels
        assert not (labels != plain) and not (plain != labels)
        assert labels == _labels(er_weighted)
        other = list(_labels(er_weighted, seed=12))
        assert labels != other and other != labels
        assert labels != plain[:-1] and plain[:-1] != labels
        assert labels != tuple(plain)

    def test_repr_is_the_lists(self, er_weighted):
        labels = _labels(er_weighted)
        assert repr(labels) == repr(list(_labels(er_weighted)))

    def test_pickle_round_trip(self, er_weighted):
        labels = _labels(er_weighted)
        for fresh in (True, False):
            if not fresh:
                labels[0]  # materialized before pickling
            back = pickle.loads(pickle.dumps(labels))
            assert isinstance(back, TZLabels)
            assert back == list(_labels(er_weighted))

    def test_unhashable_like_a_list(self, er_weighted):
        with pytest.raises(TypeError):
            hash(_labels(er_weighted))

    def test_sizes_are_the_labels_sizes(self, er_weighted, created):
        labels = _labels(er_weighted)
        sizes = labels.sizes_words()
        assert created == []
        assert sizes == [s.size_words() for s in labels]

    def test_owner_subset_keeps_the_order_asked_for(self, er_weighted):
        from repro.oracle.schemes import get_scheme

        spec = get_scheme("tz")
        artifacts = spec.sample(er_weighted, 5, {"k": 3})
        full = spec.sketches(er_weighted, artifacts)
        owners = [7, 3, 30, 3]
        part = spec.sketches(er_weighted, artifacts, owners)
        assert isinstance(part, TZLabels)
        assert part.sizes_words() == [full[u].size_words() for u in owners]
        assert part == [full[u] for u in owners]


def test_eight_threads_materialize_once(er_weighted, monkeypatch):
    labels = _labels(er_weighted)
    calls = []
    original = TZLabels._materialize

    def slow(self):
        calls.append(1)
        threading.Event().wait(0.05)  # widen the race window
        return original(self)

    monkeypatch.setattr(TZLabels, "_materialize", slow)
    start = threading.Barrier(8)
    seen = [None] * 8

    def reader(i):
        start.wait()
        seen[i] = (labels[i], labels[-1 - i], list(labels))

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1
    plain = list(_labels(er_weighted))
    for i, (first, last, whole) in enumerate(seen):
        assert first is labels[i] and last is labels[-1 - i]
        assert first == plain[i] and whole == plain


# ----------------------------------------------------------------------
# the index is built from the columns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", (1, 3, 4))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_index_from_columns_equals_index_from_dicts(er_weighted, k,
                                                    num_shards):
    labels = _labels(er_weighted, k=k)
    plain = list(_labels(er_weighted, k=k))
    a, b = TZIndex(labels, num_shards), TZIndex(plain, num_shards)
    assert a.pack_meta() == b.pack_meta()
    pa, pb = a.pack_arrays(), b.pack_arrays()
    assert pa.keys() == pb.keys()
    for name in pa:
        assert pa[name].dtype == pb[name].dtype, name
        assert pa[name].tobytes() == pb[name].tobytes(), name
    assert index_binary_bytes(a) == index_binary_bytes(b)


def test_serving_path_builds_no_dicts(tmp_path, created):
    """The cold start a serving benchmark runs, at n = 2000: build,
    index, container, sizes — zero :class:`TZSketch` objects."""
    graph = assign_uniform_weights(erdos_renyi(2000, seed=1), 1.0, 10.0,
                                   seed=2)
    built = build_sketches(graph, "tz", k=2, seed=3)
    index = build_index(built.sketches, num_shards=4)
    save_index_binary(index, tmp_path / "x.rpix")
    sizes = built.sizes_words()
    assert created == []
    assert len(sizes) == 2000 and built.sketches._labels is None
    assert sizes[5] == built.sketches[5].size_words()
    assert created  # indexing into the labels builds them


@pytest.mark.parametrize("how", ("connect", "method"))
def test_sessions_serve_labels_without_dicts(er_weighted, created, how):
    built = build_sketches(er_weighted, "tz", k=3, seed=4)
    pairs = [(0, 5), (7, 7), (35, 1)]
    with (connect("inproc://", built) if how == "connect"
          else built.connect()) as client:
        got = client.dist_many(pairs).tolist()
        one = client.dist(2, 9)
    assert created == [] and built.sketches._labels is None
    assert got == [built.query(u, v) for u, v in pairs]
    assert one == built.query(2, 9)


# ----------------------------------------------------------------------
# nightly: the n = 10^4 cold start in bounded memory
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("k", (2, 3))
def test_tz_build_at_ten_thousand_nodes_in_bounded_memory(
        peak_rss_at_scale, k):
    """ER + uniform weights at n = 10^4, a TZ build, then its
    index: the labels stay columns, so peak RSS of a fresh process stays
    under 450 MB (≈ 345 MB measured at k = 2, ≈ 190 MB at k = 3;
    building the 10^4 bunch dicts and flattening them again peaked at
    ≈ 650 MB).  k = 3 truncates two levels, so the kernel prunes the
    CSR twice."""
    assert peak_rss_at_scale("tz", k=k) <= 450
