"""The RPIX store container (repro.oracle.serialization)."""

import pytest

from repro import build_sketches
from repro.errors import QueryError


@pytest.fixture(scope="module")
def all_built(er_unit):
    return {
        "tz": build_sketches(er_unit, scheme="tz", k=3, seed=1),
        "stretch3": build_sketches(er_unit, scheme="stretch3", eps=0.3,
                                   seed=2),
        "cdg": build_sketches(er_unit, scheme="cdg", eps=0.3, k=2, seed=3),
        "graceful": build_sketches(er_unit, scheme="graceful", seed=4),
    }


def _all_pairs(n):
    import numpy as np

    us, vs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return us.ravel(), vs.ravel()


class TestIndexRoundTrip:
    """Golden round-trips for the pre-indexed batched-query store
    through its one persistence format, the binary RPIX container."""

    def test_save_load_identical_batched_answers(self, tmp_path, all_built):
        import numpy as np

        from repro.oracle.serialization import (load_index_binary,
                                                save_index_binary)
        from repro.service import TZIndex

        idx = TZIndex(all_built["tz"].sketches, num_shards=3)
        path = tmp_path / "index.rpix"
        save_index_binary(idx, path)
        back = load_index_binary(path)
        assert back == idx
        us, vs = _all_pairs(idx.n)
        assert np.array_equal(back.estimate_many(us, vs),
                              idx.estimate_many(us, vs))

    def test_empty_bunch_sketches(self, tmp_path):
        import numpy as np

        from repro.oracle.serialization import (load_index_binary,
                                                save_index_binary)
        from repro.service import TZIndex
        from repro.tz.sketch import TZSketch

        # k=1-shaped labels with empty bunches: every query must fail the
        # level scan identically before and after a round trip
        sketches = [TZSketch(node=u, k=1, pivots=((u, 0.0),), bunch={})
                    for u in range(3)]
        idx = TZIndex(sketches)
        path = tmp_path / "empty.rpix"
        save_index_binary(idx, path)
        back = load_index_binary(path)
        assert back == idx and back.nnz() == 0
        # self-queries short-circuit to 0.0 without touching the tables
        assert np.array_equal(back.estimate_many(np.array([0, 1]),
                                                 np.array([0, 1])),
                              np.zeros(2))
        with pytest.raises(QueryError):
            back.estimate_many(np.array([0]), np.array([1]))

    def test_single_node_graph(self, tmp_path):
        import numpy as np

        from repro.graphs import Graph
        from repro.oracle.serialization import (load_index_binary,
                                                save_index_binary)
        from repro.service import TZIndex
        from repro.tz import build_tz_sketches_centralized

        sketches, _ = build_tz_sketches_centralized(Graph(1), k=1, seed=0)
        idx = TZIndex(sketches)
        path = tmp_path / "one.rpix"
        save_index_binary(idx, path)
        back = load_index_binary(path)
        assert back == idx
        assert back.estimate_many(np.array([0]), np.array([0])).tolist() == [0.0]


class TestIndexDisconnected:
    def test_inf_pivots_round_trip(self, tmp_path):
        import numpy as np

        from repro.graphs import Graph
        from repro.oracle.serialization import (load_index_binary,
                                                save_index_binary)
        from repro.service import TZIndex
        from repro.tz import build_tz_sketches_centralized

        # disconnected graph -> INF_KEY sentinel pivots (inf distances).
        # seed 1 is pinned because it actually samples all of A_1 inside
        # one component, forcing inf pivot distances in the other
        g = Graph(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 4, 2.0)])
        sketches, _ = build_tz_sketches_centralized(g, k=2, seed=1)
        idx = TZIndex(sketches)
        assert np.isinf(idx.pivot_dists).any()
        path = tmp_path / "disc.rpix"
        save_index_binary(idx, path)
        back = load_index_binary(path)
        assert back == idx
        assert np.array_equal(back.pivot_dists, idx.pivot_dists)
        assert np.isinf(back.pivot_dists).any()


class TestSlackIndexRoundTrip:
    """Round-trips for the stretch3/cdg/graceful serving stores."""

    @pytest.mark.parametrize("scheme", ["stretch3", "cdg", "graceful"])
    def test_save_load_identical_batched_answers(self, tmp_path, all_built,
                                                 scheme):
        import numpy as np

        from repro.oracle.serialization import (load_index_binary,
                                                save_index_binary)
        from repro.service import build_index

        idx = build_index(all_built[scheme].sketches, num_shards=3)
        path = tmp_path / f"{scheme}.rpix"
        save_index_binary(idx, path)
        back = load_index_binary(path)
        assert back == idx
        assert type(back) is type(idx)
        us, vs = _all_pairs(idx.n)
        assert np.array_equal(back.estimate_many(us, vs),
                              idx.estimate_many(us, vs))

    def test_disconnected_stretch3_round_trip(self, tmp_path):
        import numpy as np

        from repro.graphs import Graph
        from repro.oracle.serialization import (load_index_binary,
                                                save_index_binary)
        from repro.service import Stretch3Index
        from repro.slack.density_net import DensityNet
        from repro.slack.stretch3 import build_stretch3_centralized

        # a net node per component: the reloaded store must raise
        # exactly where the original does
        g = Graph(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 4, 2.0)])
        net = DensityNet(eps=0.5, n=g.n, members=(0, 2))
        sketches, _ = build_stretch3_centralized(g, 0.5, net=net)
        idx = Stretch3Index(sketches, num_shards=2)
        path = tmp_path / "disc3.rpix"
        save_index_binary(idx, path)
        back = load_index_binary(path)
        assert back == idx
        ok = np.array([2, 3]), np.array([4, 2])
        assert np.array_equal(back.estimate_many(*ok),
                              idx.estimate_many(*ok))
        with pytest.raises(QueryError):
            back.estimate_many(np.array([0]), np.array([2]))


class TestBinaryContainer:
    """The mmap-loadable binary index format (header + raw array blobs)."""

    @pytest.mark.parametrize("scheme", ["tz", "stretch3", "cdg", "graceful"])
    @pytest.mark.parametrize("backing", ["heap", "mmap"])
    def test_round_trip_equals_freshly_built(self, all_built, scheme,
                                             backing, tmp_path):
        import numpy as np

        from repro.oracle.serialization import (load_index_binary,
                                                save_index_binary)
        from repro.service import build_index, sample_query_pairs

        idx = build_index(all_built[scheme].sketches, num_shards=3)
        bpath = tmp_path / "i.rpix"
        save_index_binary(idx, bpath)
        from_bin = load_index_binary(bpath, backing=backing)
        fresh = build_index(all_built[scheme].sketches, num_shards=3)
        assert from_bin == fresh == idx
        pairs = sample_query_pairs(idx.n, 200, seed=4)
        assert np.array_equal(
            from_bin.estimate_many(pairs[:, 0], pairs[:, 1]),
            fresh.estimate_many(pairs[:, 0], pairs[:, 1]))

    def test_binary_reload_reserializes_to_identical_bytes(self, all_built,
                                                           tmp_path):
        from repro.oracle.serialization import (load_index_binary,
                                                save_index_binary)
        from repro.service import build_index

        idx = build_index(all_built["cdg"].sketches, num_shards=2)
        save_index_binary(idx, tmp_path / "a.rpix")
        for backing in ("heap", "mmap"):
            save_index_binary(
                load_index_binary(tmp_path / "a.rpix", backing=backing),
                tmp_path / "b.rpix")
            assert (tmp_path / "a.rpix").read_bytes() == \
                (tmp_path / "b.rpix").read_bytes()

    def test_bad_magic_and_version_fail_loudly(self, all_built, tmp_path):
        from repro.oracle.serialization import (load_index_binary,
                                                save_index_binary)
        from repro.service import build_index

        idx = build_index(all_built["tz"].sketches)
        path = tmp_path / "i.rpix"
        save_index_binary(idx, path)
        raw = bytearray(path.read_bytes())
        (tmp_path / "junk.rpix").write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(QueryError, match="not a binary index"):
            load_index_binary(tmp_path / "junk.rpix")
        # 1 is the retired per-shard-table layout: refused, not migrated
        for version in (1, 99):
            bad = bytearray(raw)
            bad[4] = version  # container version
            (tmp_path / "vers.rpix").write_bytes(bytes(bad))
            with pytest.raises(QueryError, match="container version"):
                load_index_binary(tmp_path / "vers.rpix")
        (tmp_path / "trunc.rpix").write_bytes(bytes(raw[:-50]))
        for backing in ("heap", "mmap"):
            with pytest.raises(QueryError, match="truncated"):
                load_index_binary(tmp_path / "trunc.rpix", backing=backing)
        # cut inside the JSON header itself: still a clean QueryError
        (tmp_path / "head.rpix").write_bytes(bytes(raw[:20]))
        with pytest.raises(QueryError, match="header is corrupt"):
            load_index_binary(tmp_path / "head.rpix")
        with pytest.raises(QueryError, match="backing"):
            load_index_binary(path, backing="gpu")

        # a header that parses but lies: a typed error from every way of
        # loading it, never a numpy ValueError, a KeyError — or a store
        import json
        import struct

        from repro.oracle.serialization import load_index_bytes

        hlen = struct.unpack_from("<I", raw, 8)[0]
        header = json.loads(raw[12:12 + hlen])
        rows = {row[0]: i for i, row in enumerate(header["manifest"])}
        base = header["base"]

        def rewritten(edit) -> bytes:
            lied = json.loads(json.dumps(header))
            edit(lied)
            text = json.dumps(lied, separators=(",", ":")).encode("ascii")
            assert 12 + len(text) <= base  # the blobs stay where they are
            return (bytes(raw[:8]) + struct.pack("<I", len(text))
                    + text.ljust(base - 12, b"\0") + bytes(raw[base:]))

        def patch(name, field, value):
            """Rewrite one field of ``name``'s manifest row."""
            def edit(lied):
                lied["manifest"][rows[name]][field] = value
            return edit

        lies = {
            "offset past the blobs": patch("top_col", 3,
                                           header["nbytes"] + 64),
            "object dtype": patch("top_col", 1, "|O"),
            "manifest row removed":
                lambda lied: lied["manifest"].pop(rows["top_col"]),
            "meta key removed": lambda lied: lied["meta"].pop("k"),
            "shape shrunk": patch("keys", 2, [3]),
            "negative shape": patch("keys", 2, [-5]),
        }
        for what, edit in lies.items():
            blob = rewritten(edit)
            (tmp_path / "lie.rpix").write_bytes(blob)
            for load in (lambda: load_index_bytes(blob),
                         lambda: load_index_binary(tmp_path / "lie.rpix"),
                         lambda: load_index_binary(tmp_path / "lie.rpix",
                                                   backing="mmap")):
                with pytest.raises(QueryError, match="binary index "
                                   "container .* is corrupt"):
                    load()
                    pytest.fail(f"{what}: loaded")

    def test_mmap_load_shares_file_bytes(self, all_built, tmp_path):
        """The mmap load builds views over the file, not copies."""
        from repro.oracle.serialization import (load_index_binary,
                                                save_index_binary)
        from repro.service import build_index

        idx = build_index(all_built["tz"].sketches)
        path = tmp_path / "i.rpix"
        save_index_binary(idx, path)
        store = load_index_binary(path, backing="mmap")
        assert not store.pivot_ids.flags.owndata
        assert not store.pivot_ids.flags.writeable
