"""The zero-copy memory layer (repro.service.buffers): packs, handles,
and the array-tree codec."""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.service.buffers import (
    BufferPack,
    build_tree,
    flatten_tree,
    plan_layout,
    plan_tree,
    read_tree,
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


class TestBufferPack:
    @pytest.mark.parametrize("backing", ["heap", "mmap"])
    def test_round_trip_bitwise(self, arrays, backing, tmp_path):
        path = str(tmp_path / "p.pack") if backing == "mmap" else None
        pack = BufferPack.from_arrays(arrays, backing=backing, path=path)
        try:
            for name, arr in arrays.items():
                got = pack[name]
                assert got.dtype == arr.dtype and got.shape == arr.shape
                assert np.array_equal(got, arr)
                assert not got.flags.writeable  # immutable views
        finally:
            pack.close()

    @pytest.mark.parametrize("backing", ["heap", "mmap"])
    def test_handle_is_picklable_and_attaches(self, arrays, backing,
                                              tmp_path):
        path = str(tmp_path / "p.pack") if backing == "mmap" else None
        pack = BufferPack.from_arrays(arrays, backing=backing, path=path)
        try:
            handle = pickle.loads(pickle.dumps(pack.handle()))
            attached = BufferPack.attach(handle)
            try:
                for name, arr in arrays.items():
                    assert np.array_equal(attached[name], arr)
            finally:
                attached.close()
        finally:
            pack.close()

    def test_dict_face(self, arrays):
        with BufferPack.from_arrays(arrays) as pack:
            assert pack.names() == list(arrays)
            assert "ids" in pack and "nope" not in pack
            assert set(iter(pack)) == set(arrays)
            view = pack.as_dict()
            assert np.array_equal(view["table"], arrays["table"])

    def test_rejects_unknown_backing(self, arrays):
        for backing in ("gpu", "shared"):
            with pytest.raises(ConfigError):
                BufferPack.from_arrays(arrays, backing=backing)

    def test_mmap_needs_a_path(self, arrays):
        with pytest.raises(ConfigError):
            BufferPack.from_arrays(arrays, backing="mmap")

    def test_mmap_scratch_file_deleted_on_close(self, arrays, tmp_path):
        path = tmp_path / "scratch.pack"
        pack = BufferPack.from_arrays(arrays, backing="mmap",
                                      path=str(path), delete_file=True)
        assert path.exists()
        pack.close()
        assert not path.exists()

    def test_empty_pack(self):
        with BufferPack.from_arrays({}) as pack:
            assert pack.names() == [] and pack.nbytes == 0


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
