"""The stored columns of every index: one declared dtype each, narrow
where the values allow, and a container that says otherwise refused.

Every store class declares, per array, the one dtype it keeps it in
(``column_dtypes(meta)``): composite keys and node ids are int32 while
their count is below 2³¹, levels int8, the directory int32 rows,
distances float64.  ``pack_arrays`` writes those dtypes, and the
container loader refuses a manifest row that names another — relabelling
a float column as an int one (same item size, same span) used to load
and answer from the wrong bytes.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import build_sketches
from repro.cli import main
from repro.errors import QueryError
from repro.graphs import assign_uniform_weights, erdos_renyi
from repro.oracle.serialization import (BINARY_VERSION, index_binary_bytes,
                                        load_index_binary, load_index_bytes)
from repro.service import build_index
from repro.service.index import CDGIndex, Stretch3Index, TZIndex, _id_dtype

I4, I8 = np.dtype("<i4"), np.dtype("<i8")


@pytest.fixture(scope="module")
def stores(er_unit):
    """One 3-shard store per scheme on the shared ER graph."""
    built = {
        "tz": build_sketches(er_unit, scheme="tz", k=3, seed=1),
        "stretch3": build_sketches(er_unit, scheme="stretch3", eps=0.3,
                                   seed=2),
        "cdg": build_sketches(er_unit, scheme="cdg", eps=0.3, k=2, seed=3),
        "graceful": build_sketches(er_unit, scheme="graceful", seed=4),
    }
    return {name: build_index(b.sketches, num_shards=3)
            for name, b in built.items()}


def _header(blob: bytes) -> tuple[dict, int]:
    hlen = struct.unpack_from("<I", blob, 8)[0]
    header = json.loads(blob[12:12 + hlen])
    return header, header["base"]


def _rewritten(blob: bytes, edit) -> bytes:
    """``blob`` with its JSON header passed through ``edit`` (the blobs
    stay where they are)."""
    header, base = _header(blob)
    edit(header)
    text = json.dumps(header, separators=(",", ":")).encode("ascii")
    assert 12 + len(text) <= base
    return (blob[:8] + struct.pack("<I", len(text))
            + text.ljust(base - 12, b"\0") + blob[base:])


# ----------------------------------------------------------------------
# the dtype chooser, at its boundary
# ----------------------------------------------------------------------
def test_ids_are_int32_below_two_to_the_31():
    assert _id_dtype(0) == I4
    assert _id_dtype((1 << 31) - 1) == I4
    assert _id_dtype(1 << 31) == I8
    assert _id_dtype(1 << 40) == I8


def test_composite_keys_widen_when_n_squared_reaches_two_to_the_31():
    """46340² < 2³¹ < 46341²: the largest n whose keys ``u * n + w``
    stay int32, and the first that needs int64 — the declared dtypes
    alone, no graph built."""
    assert 46340 ** 2 < 1 << 31 < 46341 ** 2
    assert TZIndex.column_dtypes({"n": 46340})["keys"] == I4
    assert TZIndex.column_dtypes({"n": 46341})["keys"] == I8
    for n, ids in (((1 << 31) - 1, I4), (1 << 31, I8)):
        assert Stretch3Index.column_dtypes({"n": n})["net_ids"] == ids
        cdg = CDGIndex.column_dtypes({"n": n, "sub": {"n": 10}})
        assert cdg["gateway_ids"] == cdg["net_ids"] == cdg["gw_slot"] == ids


def test_a_store_over_wide_keys_answers_the_same(stores):
    """The int64 side of the chooser, exercised at small n: the same
    table with its keys widened serves the same bytes."""
    store = stores["tz"]
    arrays = {**store.pack_arrays(), "keys": store.keys.astype(I8)}
    wide = TZIndex._from_pack(store.pack_meta(), arrays)
    us, vs = np.divmod(np.arange(store.n ** 2), store.n)
    assert wide.estimate_many(us, vs).tobytes() == \
        store.estimate_many(us, vs).tobytes()
    probes = np.arange(-2, store.n ** 2, 7, dtype=np.int64)
    for got, want in zip(wide._probe(probes), store._probe(probes)):
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# every store writes what it declares
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["tz", "stretch3", "cdg", "graceful"])
def test_every_column_is_stored_in_its_declared_dtype(stores, scheme):
    store = stores[scheme]
    declared = type(store).column_dtypes(store.pack_meta())
    arrays = store.pack_arrays()
    assert list(arrays) == list(declared)
    assert {name: a.dtype for name, a in arrays.items()} == declared
    header, _ = _header(index_binary_bytes(store))
    assert [(row[0], row[1]) for row in header["manifest"]] == \
        [(name, dt.str) for name, dt in declared.items()]


def test_the_narrow_columns(stores):
    tz = stores["tz"]
    assert (tz.keys.dtype, tz.levels.dtype, tz.slots.dtype) == \
        (I4, np.dtype("i1"), I4)
    assert tz.dists.dtype == tz.pivot_dists.dtype == np.float64
    for comp in [stores["cdg"], *stores["graceful"].components]:
        assert comp.gateway_ids.dtype == comp.net_ids.dtype == I4
        assert comp._gw_slot.dtype == comp._sub.keys.dtype == I4
    assert stores["stretch3"].net_ids.dtype == I4


# ----------------------------------------------------------------------
# the loader demands the declared dtype of every row
# ----------------------------------------------------------------------
#: every dtype a container holds
_DTYPES = ("<i8", "<f8", "<i4", "|i1")


@pytest.mark.parametrize("scheme", ["tz", "stretch3", "cdg", "graceful"])
def test_a_relabelled_column_is_corrupt(stores, scheme, tmp_path):
    """Each array of each scheme, relabelled with each other dtype a
    container holds: refused at load, naming the row — never a store
    that answers from the wrong bytes or fails with a numpy error at
    query time."""
    blob = index_binary_bytes(stores[scheme])
    header, _ = _header(blob)
    path = tmp_path / "lie.rpix"
    for i, (name, dt, _, _) in enumerate(header["manifest"]):
        for other in _DTYPES:
            if other == dt:
                continue

            def relabel(lied, i=i, other=other):
                lied["manifest"][i][1] = other

            lie = _rewritten(blob, relabel)
            path.write_bytes(lie)
            for load in (lambda: load_index_bytes(lie),
                         lambda: load_index_binary(path, backing="mmap")):
                with pytest.raises(QueryError, match=(
                        f"manifest row '{name}' is corrupt")):
                    load()


def test_an_unknown_column_is_corrupt(stores):
    blob = index_binary_bytes(stores["tz"])

    def rename(lied):
        lied["manifest"][0][0] = "slot_key"

    with pytest.raises(QueryError, match="manifest row 'slot_key' is "
                       "corrupt"):
        load_index_bytes(_rewritten(blob, rename))


@pytest.mark.parametrize("fill", ["row past the table", "no empty slot"])
def test_a_directory_that_cannot_end_a_walk_is_corrupt(stores, fill):
    """The directory is the one column a walk trusts to stop: a slot
    naming a row outside the table, or a table with no empty slot, is
    refused at load."""
    store = stores["tz"]
    blob = bytearray(index_binary_bytes(store))
    header, base = _header(bytes(blob))
    (_, _, shape, off), = [row for row in header["manifest"]
                           if row[0] == "slots"]
    slots = np.frombuffer(blob, dtype=I4, count=shape[0],
                          offset=base + off)
    if fill == "row past the table":
        value = np.full(1, store.keys.size, dtype=I4)
        at = base + off + 4 * int(np.flatnonzero(slots < 0)[0])
        blob[at:at + 4] = value.tobytes()
    else:
        blob[base + off:base + off + 4 * shape[0]] = \
            np.zeros(shape[0], dtype=I4).tobytes()
    with pytest.raises(QueryError, match="container header .* is corrupt"):
        load_index_bytes(bytes(blob))


# ----------------------------------------------------------------------
# an older container: a typed refusal that names the rebuild command
# ----------------------------------------------------------------------
def test_a_version_2_container_names_the_rebuild_command(stores, tmp_path,
                                                         capsys):
    assert BINARY_VERSION == 3
    old = bytearray(index_binary_bytes(stores["tz"]))
    struct.pack_into("<H", old, 4, 2)
    path = tmp_path / "old.rpix"
    path.write_bytes(bytes(old))
    for backing in ("heap", "mmap"):
        with pytest.raises(QueryError, match=(
                r"unsupported binary container version 2 .*"
                r"rebuild it with repro build$")):
            load_index_binary(path, backing=backing)
    assert main(["serve", str(path), "--port", "0", "--memory", "mmap"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: unsupported binary container version 2 (this "
                   "build reads version 3): rebuild it with repro build\n")
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# the size the paper promises, and a load that peaks at it
# ----------------------------------------------------------------------
def _tz_store(n: int, k: int):
    graph = assign_uniform_weights(erdos_renyi(n, seed=7), 1.0, 10.0, seed=8)
    built = build_sketches(graph, "tz", k=k, seed=11)
    return built, build_index(built.sketches, num_shards=4)


@pytest.mark.parametrize("k", [2, 3])
def test_a_tz_store_is_near_the_paper_word_count(k):
    """Thm 1.1 counts a label in words; the served container holds at
    most 1.3x those words as 8-byte words at n = 2000 (2.6-2.9x when
    the directory held int64 keys and rows)."""
    built, store = _tz_store(2000, k)
    words = sum(built.sizes_words())
    assert len(index_binary_bytes(store)) <= 1.3 * 8 * words


_STORE_BYTES_AT_SCALE = """
import sys
sys.path.insert(0, sys.argv[1])
from test_store_columns import _tz_store
from repro.oracle.serialization import index_binary_bytes
print(len(index_binary_bytes(_tz_store(10_000, 2)[1])))
"""


@pytest.mark.slow
def test_a_tz_store_at_ten_thousand_nodes_fits_42_mb():
    """k = 2 at n = 10⁴: 102.8 MB with int64 keys, rows and levels.
    Built in a fresh process, so the test process stays small."""
    tests = Path(__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-c", _STORE_BYTES_AT_SCALE, str(tests)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(tests.parent / "src")}).stdout
    assert int(out) <= 42e6


def test_a_load_peaks_at_the_state_it_keeps():
    """A load allocates the state it keeps (the miss filter, the window)
    plus block-sized scratch — never a temporary the size of the
    directory, which used to set a daemon's peak RSS (4.35 MB above
    what the load kept at n = 2000, k = 2; 0.32 MB in blocks)."""
    _, store = _tz_store(2000, 2)
    blob = index_binary_bytes(store)
    tracemalloc.start()
    try:
        loaded = load_index_bytes(blob)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.estimate(0, 1) == store.estimate(0, 1)
    assert store.slots.nbytes >= 1 << 20
    assert peak - kept <= 512 << 10, (peak, kept)
