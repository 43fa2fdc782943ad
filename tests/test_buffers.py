"""Arrays in one buffer (repro.service.buffers): the layout rule, the
read-only views over it, and the array-tree codec."""

import numpy as np
import pytest

from repro.service.buffers import (
    build_tree,
    flatten_tree,
    plan_layout,
    plan_tree,
    read_tree,
    view_array,
    write_tree,
)


@pytest.fixture()
def arrays():
    return {
        "ids": np.arange(17, dtype=np.int64),
        "dists": np.linspace(0.0, 4.0, 23),
        "table": np.arange(12, dtype=np.float64).reshape(3, 4),
        "empty": np.empty((5, 0), dtype=np.int64),
    }


class TestLayout:
    def test_offsets_are_aligned_and_disjoint(self, arrays):
        manifest, total = plan_layout(arrays)
        end = 0
        for name, dt, shape, off in manifest:
            assert off % 64 == 0
            assert off >= end
            end = off + np.prod(shape, dtype=int) * np.dtype(dt).itemsize
        assert total == end

    def test_layout_follows_insertion_order(self, arrays):
        manifest, _ = plan_layout(arrays)
        assert [row[0] for row in manifest] == list(arrays)


class TestViews:
    def test_views_are_bitwise_and_read_only(self, arrays):
        """What a container loader does with a manifest: one read-only
        view per row over the laid-out bytes, nothing copied."""
        manifest, total = plan_layout(arrays)
        buf = bytearray(total)
        write_tree(memoryview(buf), 0, [row[1:] for row in manifest],
                   list(arrays.values()))
        blob = bytes(buf)
        for (name, dt, shape, off), arr in zip(manifest, arrays.values()):
            got = view_array(blob, dt, shape, off)
            assert got.dtype == arr.dtype and got.shape == arr.shape
            assert np.array_equal(got, arr)
            assert not got.flags.writeable  # immutable views
            assert got.size == 0 or got.base is not None  # no copy

    def test_empty_layout(self):
        assert plan_layout({}) == ((), 0)


class TestArrayTreeCodec:
    TREES = [
        np.arange(9, dtype=np.int64),
        (np.arange(4, dtype=np.int64), np.linspace(0, 1, 6)),
        (np.empty(0, dtype=np.int64),
         (np.arange(3, dtype=np.float64), np.arange(2, dtype=np.int64)),
         np.asarray([7], dtype=np.int64)),
        ((np.arange(5, dtype=np.float64),), ()),
    ]

    @pytest.mark.parametrize("tree", TREES, ids=["array", "pair", "nested",
                                                 "tuples"])
    def test_flatten_build_inverse(self, tree):
        spec, leaves = flatten_tree(tree)
        rebuilt = build_tree(spec, leaves)

        def equal(a, b):
            if isinstance(a, tuple):
                return (isinstance(b, tuple) and len(a) == len(b)
                        and all(equal(x, y) for x, y in zip(a, b)))
            return np.array_equal(a, b)

        assert equal(rebuilt, tree)

    @pytest.mark.parametrize("tree", TREES, ids=["array", "pair", "nested",
                                                 "tuples"])
    def test_buffer_round_trip(self, tree):
        spec, leaves = flatten_tree(tree)
        manifest, total = plan_tree(leaves)
        buf = bytearray(max(total, 1) + 128)
        write_tree(buf, 64, manifest, leaves)
        back = read_tree(buf, 64, spec, manifest)
        _, back_leaves = flatten_tree(back)
        for got, want in zip(back_leaves, leaves):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_live_segment_names_stays_importable_and_empty():
    """``bench/run.py``'s leak check imports this name; the package no
    longer creates shared-memory segments, so it truthfully reports
    none."""
    from repro.service.buffers import live_segment_names

    assert live_segment_names() == []
