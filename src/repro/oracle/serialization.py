"""Sketch serialization: ship labels between processes or to disk.

A distance sketch is only useful if it can leave the node that built it
(the online query of Section 2.1 literally transmits one).  This module
provides a stable, JSON-compatible wire format for every sketch type in
the library, with word-size-faithful content (IDs, distances, levels —
nothing else), plus round-trip helpers for whole sketch sets.  The
pre-built serving indexes of :mod:`repro.service.index` persist in one
format, the binary ``RPIX`` container (:func:`save_index_binary` /
:func:`load_index_binary`): a small JSON header plus the store's arrays
as raw aligned blobs, loadable memory-mapped with no parsing.

Format: ``{"type": ..., "v": 1, ...payload...}``.  Decoding validates the
type tag and version so mixed-version archives fail loudly.  Infinite
distances (possible on disconnected graphs) are encoded as ``null`` —
RFC 8259 JSON has no ``Infinity`` token, and the files must stay readable
by strict parsers; the decoder accepts both spellings.
"""

from __future__ import annotations

import io
import json
import math
import mmap
import os
import struct
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.errors import ConfigError, QueryError
from repro.tz.sketch import TZSketch

if TYPE_CHECKING:
    from repro.slack.cdg import CDGSketch
    from repro.slack.graceful import GracefulSketch
    from repro.slack.stretch3 import Stretch3Sketch

VERSION = 1

#: magic prefix of the binary index container (see ``save_index_binary``)
BINARY_MAGIC = b"RPIX"
#: version of the binary container layout (independent of the JSON
#: payload version above, which governs the logical content); 3 = narrow
#: columns (int32 keys and ids, int8 levels) and a one-array TZ
#: directory — an older file is refused, rebuild it with ``repro build
#: --format binary``
BINARY_VERSION = 3

AnySketch = Union["TZSketch", "Stretch3Sketch", "CDGSketch", "GracefulSketch"]


def _enc_dist(d: float) -> Optional[float]:
    """Finite distance -> float, infinite -> ``null`` (strict JSON)."""
    return float(d) if math.isfinite(d) else None


def _dec_dist(d) -> float:
    """Inverse of :func:`_enc_dist`; tolerates legacy raw ``Infinity``."""
    return math.inf if d is None else float(d)


def sketch_to_dict(sketch: AnySketch) -> dict:
    """Encode any library sketch as a JSON-compatible dict."""
    if isinstance(sketch, TZSketch):
        # sorted entry streams: the wire form is canonical — independent
        # of the in-memory dict's insertion history, so equal sketches
        # always serialize to equal bytes
        return {
            "type": "tz", "v": VERSION, "node": sketch.node, "k": sketch.k,
            "pivots": [[p, _enc_dist(d)] for p, d in sketch.pivots],
            "bunch": [[v, sketch.bunch[v][0], sketch.bunch[v][1]]
                      for v in sorted(sketch.bunch)],
        }
    # a slack sketch's module is loaded wherever the sketch exists; the
    # imports stay here so that loading a container never loads them
    from repro.slack.cdg import CDGSketch
    from repro.slack.graceful import GracefulSketch
    from repro.slack.stretch3 import Stretch3Sketch

    if isinstance(sketch, Stretch3Sketch):
        return {
            "type": "stretch3", "v": VERSION, "node": sketch.node,
            "eps": sketch.eps,
            "entries": [[w, _enc_dist(sketch.entries[w])]
                        for w in sorted(sketch.entries)],
        }
    if isinstance(sketch, CDGSketch):
        return {
            "type": "cdg", "v": VERSION, "node": sketch.node,
            "eps": sketch.eps, "k": sketch.k,
            "gateway": sketch.gateway,
            "gateway_dist": _enc_dist(sketch.gateway_dist),
            "label": sketch_to_dict(sketch.label),
        }
    if isinstance(sketch, GracefulSketch):
        return {
            "type": "graceful", "v": VERSION, "node": sketch.node,
            "components": [sketch_to_dict(c) for c in sketch.components],
        }
    raise QueryError(f"cannot serialize {type(sketch).__name__}")


def sketch_from_dict(data: dict) -> AnySketch:
    """Decode a dict produced by :func:`sketch_to_dict`."""
    if not isinstance(data, dict) or "type" not in data:
        raise QueryError("not a serialized sketch")
    if data.get("v") != VERSION:
        raise QueryError(f"unsupported sketch format version {data.get('v')}")
    t = data["type"]
    if t == "tz":
        return TZSketch(
            node=data["node"], k=data["k"],
            pivots=tuple((int(p), _dec_dist(d)) for p, d in data["pivots"]),
            bunch={int(v): (float(d), int(lvl))
                   for v, d, lvl in data["bunch"]})
    from repro.slack.cdg import CDGSketch
    from repro.slack.graceful import GracefulSketch
    from repro.slack.stretch3 import Stretch3Sketch

    if t == "stretch3":
        return Stretch3Sketch(
            node=data["node"], eps=data["eps"],
            entries={int(w): _dec_dist(d) for w, d in data["entries"]})
    if t == "cdg":
        return CDGSketch(
            node=data["node"], eps=data["eps"], k=data["k"],
            gateway=data["gateway"],
            gateway_dist=_dec_dist(data["gateway_dist"]),
            label=sketch_from_dict(data["label"]))
    if t == "graceful":
        return GracefulSketch(
            node=data["node"],
            components=tuple(sketch_from_dict(c)
                             for c in data["components"]))
    raise QueryError(f"unknown sketch type tag {t!r}")


# ----------------------------------------------------------------------
# edge-change streams (the dynamic-update subsystem's wire format)
# ----------------------------------------------------------------------
def change_to_dict(change) -> dict:
    """Encode an :class:`~repro.service.updates.EdgeChange` with the
    library's standard ``{"type", "v"}`` envelope (one JSON line of a
    ``changes.jsonl`` stream, as consumed by ``repro build
    --apply-updates`` and :meth:`~repro.service.updates.UpdateableIndex.
    apply`).  The endpoints travel as an ``"edge": [u, v]`` pair — the
    envelope's ``"v"`` key is the format version, as everywhere else."""
    out = {"type": "edge_change", "v": VERSION, "op": change.op,
           "edge": [int(change.u), int(change.v)]}
    if change.op != "remove":
        out["weight"] = float(change.weight)
    return out


def change_from_dict(data: dict):
    """Decode a dict produced by :func:`change_to_dict`."""
    from repro.service.updates import EdgeChange

    if not isinstance(data, dict) or data.get("type") != "edge_change":
        raise QueryError("not a serialized edge change")
    if data.get("v") != VERSION:
        raise QueryError(f"unsupported sketch format version {data.get('v')}")
    edge = data.get("edge")
    if not isinstance(edge, (list, tuple)) or len(edge) != 2:
        raise QueryError("edge change wants an [u, v] endpoint pair")
    return EdgeChange(op=str(data["op"]), u=int(edge[0]), v=int(edge[1]),
                      weight=data.get("weight"))


# ----------------------------------------------------------------------
# the binary index container (header + raw array blobs)
# ----------------------------------------------------------------------
# Layout (little-endian):
#
#   offset 0   BINARY_MAGIC  (4 bytes, b"RPIX")
#   offset 4   uint16  container version (BINARY_VERSION)
#   offset 6   uint16  reserved (zero)
#   offset 8   uint32  header length H
#   offset 12  H bytes of ASCII JSON:
#              {"type": tag, "v": VERSION, "meta": {...},
#               "manifest": [[name, dtype, shape, offset], ...],
#               "nbytes": blob span, "base": blob start in the file}
#   offset base  the raw array blobs, 64-byte aligned relative to base
#
# ``(tag, meta, arrays)`` is the physical form of a store
# (:mod:`repro.service.index`) and this container its one persistence
# format: the blobs are the arrays as served, so loading is the (small)
# JSON header plus one read-only view per array — over the bytes read,
# or with ``backing="mmap"`` straight off the page cache — and a
# reloaded store writes the same bytes again.  Each manifest row's dtype
# is the one its store class declares for that array
# (``column_dtypes``); the loader accepts no other.


def write_index_binary(index, fh) -> None:
    """Write the binary container to an open binary file object.

    The streamable core of :func:`save_index_binary` — also what the
    TCP transport's index-fetch frame serializes into, so a remote
    worker downloads byte-for-byte the container ``repro build
    --format binary`` would have written (zero-parse on the wire).
    """
    from repro.service.buffers import plan_layout
    from repro.service.index import index_tag

    tag = index_tag(index)
    if tag is None:
        raise QueryError(f"cannot serialize index {type(index).__name__}")
    arrays = index.pack_arrays()
    manifest, nbytes = plan_layout(arrays)
    header = {
        "type": tag, "v": VERSION, "meta": index.pack_meta(),
        "manifest": [[name, dt, list(shape), off]
                     for name, dt, shape, off in manifest],
        "nbytes": nbytes,
    }
    probe = json.dumps({**header, "base": 0}, separators=(",", ":"))
    # the final header embeds its own blob base; pad the estimate so the
    # base digits cannot change the header length
    base = 12 + len(probe) + 16
    base = (base + 63) & ~63
    header_json = json.dumps({**header, "base": base},
                             separators=(",", ":")).encode("ascii")
    fh.write(BINARY_MAGIC)
    fh.write(struct.pack("<HHI", BINARY_VERSION, 0, len(header_json)))
    fh.write(header_json)
    fh.write(b"\0" * (base - 12 - len(header_json)))
    cursor = 0
    values = list(arrays.values())
    for (name, dt, shape, off), arr in zip(manifest, values):
        if off > cursor:
            fh.write(b"\0" * (off - cursor))
            cursor = off
        blob = np.ascontiguousarray(arr).tobytes()
        fh.write(blob)
        cursor += len(blob)


def index_binary_bytes(index) -> bytes:
    """The binary container as one byte string (the TCP index blob)."""
    buf = io.BytesIO()
    write_index_binary(index, buf)
    return buf.getvalue()


def save_index_binary(index, path) -> None:
    """Persist any pre-built store as a binary container: a small JSON
    header plus the store's contiguous arrays as raw aligned blobs."""
    with open(path, "wb") as fh:
        write_index_binary(index, fh)


def is_binary_index(path) -> bool:
    """True when ``path`` starts with the binary container magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC
    except OSError:
        return False


def _corrupt(what: str) -> QueryError:
    return QueryError(f"binary index container {what} is corrupt")


def load_index_bytes(data):
    """The store a binary container holds, as read-only views over
    ``data`` — bytes (:func:`index_binary_bytes`, a fetched index blob)
    or any buffer (:func:`load_index_binary`'s ``mmap``).  The one
    loader: nothing of the blobs is parsed or copied, and nothing of the
    header is trusted — every manifest row must name an array of the
    store's type in the dtype that type declares for it
    (``column_dtypes``) and a 64-aligned span inside the blobs, and the
    store must find every array and meta key of its type, in consistent
    shapes.

    :raises QueryError: on a bad magic, container version or type tag,
        a truncated container, or a corrupt header.
    """
    from repro.service.buffers import ALIGNMENT, view_array
    from repro.service.index import index_column_dtypes, index_from_arrays

    if len(data) < 12 or data[:4] != BINARY_MAGIC:
        raise QueryError("not a binary index container")
    version, _, hlen = struct.unpack_from("<HHI", data, 4)
    if version != BINARY_VERSION:
        raise QueryError(
            f"unsupported binary container version {version} (this "
            f"build reads version {BINARY_VERSION}): rebuild it with "
            f"repro build ... --format binary")
    try:
        header = json.loads(bytes(data[12:12 + hlen]).decode("ascii"))
    except (ValueError, UnicodeDecodeError):  # short read or garbage
        raise _corrupt("header") from None
    if not isinstance(header, dict):
        raise _corrupt("header")
    if header.get("v") != VERSION:
        raise QueryError(
            f"unsupported sketch format version {header.get('v')}")
    try:
        tag, meta = header["type"], header["meta"]
        nbytes, base = int(header["nbytes"]), int(header["base"])
        rows = [(str(name), str(dt), tuple(map(int, shape)), int(off))
                for name, dt, shape, off in header["manifest"]]
        dtypes = {name: dt.str
                  for name, dt in index_column_dtypes(tag, meta).items()}
    except KeyError as exc:  # a meta key the store's columns depend on
        raise _corrupt(f"header (no {exc.args[0]!r})") from None
    except (ConfigError, TypeError, ValueError) as exc:
        raise _corrupt(f"header ({exc})") from None
    if base < 12 + hlen or nbytes < 0:
        raise _corrupt("header")
    if len(data) < base + nbytes:
        raise QueryError("binary index container is truncated")
    arrays = {}
    for name, dt, shape, off in rows:
        if (dt != dtypes.get(name) or min(shape, default=0) < 0
                or off < 0 or off % ALIGNMENT
                or off + math.prod(shape) * np.dtype(dt).itemsize > nbytes):
            raise _corrupt(f"manifest row {name!r}")
        arrays[name] = view_array(data, dt, shape, base + off)
    try:
        return index_from_arrays(tag, meta, arrays)
    except KeyError as exc:  # an array or meta key the store needs
        raise _corrupt(f"header (no {exc.args[0]!r})") from None
    except (ConfigError, TypeError, ValueError, IndexError) as exc:
        raise _corrupt(f"header ({exc})") from None


def load_index_binary(path, backing: str = "heap"):
    """Load a store written by :func:`save_index_binary`.

    :param backing: ``"heap"`` reads the file into memory; ``"mmap"``
        maps it read-only and serves the arrays straight from the page
        cache — no copy, pages shared by every process that maps the
        same file.  Either way no blob is parsed: a load costs the
        header, one view per array and the state a store derives (the
        TZ miss filter and directory window, built in blocks so the load
        peaks at what it keeps) — ≈ 3 ms for the 2.9 MB TZ container of
        n = 2000, k = 2.
    :raises QueryError: as :func:`load_index_bytes`.
    """
    if backing not in ("heap", "mmap"):
        raise QueryError(
            f"load_index_binary backing must be 'heap' or 'mmap', "
            f"got {backing!r}")
    with open(path, "rb") as fh:
        if backing == "heap":
            return load_index_bytes(fh.read())
        if not os.fstat(fh.fileno()).st_size:  # nothing to map
            raise QueryError("not a binary index container")
        return load_index_bytes(
            mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))


def dumps(sketch: AnySketch) -> str:
    """Sketch -> JSON string."""
    return json.dumps(sketch_to_dict(sketch), separators=(",", ":"))


def loads(text: str) -> AnySketch:
    """JSON string -> sketch."""
    return sketch_from_dict(json.loads(text))


def save_sketch_set(sketches: list[AnySketch], path) -> None:
    """Persist a whole per-node sketch set as JSON lines."""
    with open(path, "w", encoding="ascii") as fh:
        for s in sketches:
            fh.write(dumps(s))
            fh.write("\n")


def load_sketch_set(path) -> list[AnySketch]:
    """Load a sketch set written by :func:`save_sketch_set`."""
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(loads(line))
    return out
