"""On-disk and on-wire formats: the RPIX store container and the
edge-change stream.

A pre-built serving store of :mod:`repro.service.index` persists in one
format, the binary ``RPIX`` container (:func:`save_index_binary` /
:func:`load_index_binary`): a small JSON header plus the store's arrays
as raw aligned blobs, loadable memory-mapped with no parsing.
``repro build`` writes it; ``repro query``, ``eval`` and ``serve``
answer through the store it holds.

Edge changes travel as JSON objects ``{"type": "edge_change", "v": 1,
...}`` (one line of a ``changes.jsonl`` stream, or one entry of a tcp
``apply`` frame's change list); decoding validates the type tag and
version so a mixed-version stream fails loudly.
"""

from __future__ import annotations

import io
import json
import math
import mmap
import os
import struct

import numpy as np

from repro.errors import ConfigError, QueryError

#: version of the JSON envelopes: an edge change and the RPIX header
VERSION = 1

#: magic prefix of the binary index container (see ``save_index_binary``)
BINARY_MAGIC = b"RPIX"
#: version of the binary container layout (independent of the envelope
#: version above, which governs the logical content); 3 = narrow
#: columns (int32 keys and ids, int8 levels) and a one-array TZ
#: directory — an older file is refused, rebuild it with ``repro build``
BINARY_VERSION = 3


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
    worker downloads byte-for-byte the container ``repro build``
    would have written (zero-parse on the wire).
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


def _not_a_container() -> QueryError:
    return QueryError("not a binary index container (repro build "
                      "writes one)")


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
        raise _not_a_container()
    version, _, hlen = struct.unpack_from("<HHI", data, 4)
    if version != BINARY_VERSION:
        raise QueryError(
            f"unsupported binary container version {version} (this "
            f"build reads version {BINARY_VERSION}): rebuild it with "
            f"repro build")
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
            raise _not_a_container()
        return load_index_bytes(
            mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
