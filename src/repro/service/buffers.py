"""Arrays in one buffer: the layout rule and the array-tree codec.

A pre-built :class:`~repro.service.index.IndexStore` is, physically, a
handful of contiguous numpy arrays plus a little scalar metadata, and a
shard request or response is a nested tuple of such arrays.  Both go
into raw bytes the same way — one blob per array, each starting on an
:data:`ALIGNMENT` boundary (:func:`plan_tree`, :func:`plan_layout` with
names glued on) — and come back as **read-only views** over those
bytes (:func:`view_array`): nothing is parsed or copied, and no reader
can corrupt another's answers.

* the RPIX container of a store (:mod:`repro.oracle.serialization`) is
  a JSON header in front of a :func:`plan_layout` blob span, loaded as
  views over the bytes read or over one read-only ``mmap``;
* the **array-tree codec** (:func:`flatten_tree` / :func:`plan_tree` /
  :func:`write_tree` / :func:`read_tree`) puts the nested tuples of
  ndarrays that flow through ``plan``/``answer``/``finish`` into a raw
  buffer region and back, self-describing with :func:`tree_to_bytes` /
  :func:`tree_from_bytes` (no frame carries one; the benchmark times
  it).

Determinism contract: the bytes are exact, so a store over any of them
answers **bit-identically** to the sketch-built original — the
backing-equivalence test suite asserts this for every scheme.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import ConfigError

#: array blobs are aligned to cache-line boundaries inside the buffer
ALIGNMENT = 64


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


def live_segment_names() -> list[str]:
    """Names of shared-memory segments this process created and has not
    unlinked — always empty: the package no longer creates any.  Kept
    only because ``bench/run.py``'s leak check imports it and a PR may
    not edit ``bench/``; the next benchmark-only PR drops both."""
    return []


# ----------------------------------------------------------------------
# the layout rule
# ----------------------------------------------------------------------
def plan_layout(arrays: Mapping[str, np.ndarray],
                ) -> tuple[tuple[tuple[str, str, tuple, int], ...], int]:
    """Lay named arrays out in one buffer.

    Returns ``(manifest, total_bytes)`` where each manifest row is
    ``(name, dtype_str, shape, offset)`` and offsets are
    :data:`ALIGNMENT`-aligned.  Iteration order (= dict insertion order)
    is the layout order, so the layout is deterministic.  The geometry
    is exactly :func:`plan_tree`'s (the message codec) with names glued
    on — one layout rule for containers and messages alike.
    """
    names = [str(name) for name in arrays]
    rows, total = plan_tree([np.ascontiguousarray(a)
                             for a in arrays.values()])
    return tuple((name, dt, shape, off)
                 for name, (dt, shape, off) in zip(names, rows)), total


def view_array(buffer, dtype: str, shape: tuple, offset: int) -> np.ndarray:
    """A read-only ndarray view over ``buffer`` at a manifest row (the
    one materialization rule shared by containers and messages)."""
    count = 1
    for dim in shape:
        count *= dim
    if count == 0:
        view = np.empty(shape, dtype=np.dtype(dtype))
    else:
        view = np.frombuffer(buffer, dtype=np.dtype(dtype), count=count,
                             offset=offset).reshape(shape)
    if view.flags.writeable:
        view.flags.writeable = False
    return view


# ----------------------------------------------------------------------
# the array-tree codec (shard requests/responses without pickle)
# ----------------------------------------------------------------------
def flatten_tree(tree: Any) -> tuple[Any, list[np.ndarray]]:
    """Flatten a nested tuple-of-ndarrays into ``(spec, leaves)``.

    The spec mirrors the tuple structure with leaf indexes at the
    ndarray positions; :func:`build_tree` inverts it.  This covers every
    request/response shape the four stores produce (a bare array, a
    tuple of arrays, or tuples of tuples for the graceful store).
    """
    leaves: list[np.ndarray] = []

    def walk(node):
        if isinstance(node, tuple):
            return tuple(walk(child) for child in node)
        leaves.append(np.ascontiguousarray(node))
        return len(leaves) - 1

    return walk(tree), leaves


def build_tree(spec: Any, leaves: Sequence[np.ndarray]) -> Any:
    """Rebuild the nested structure :func:`flatten_tree` flattened."""
    if isinstance(spec, tuple):
        return tuple(build_tree(child, leaves) for child in spec)
    return leaves[spec]


def plan_tree(leaves: Sequence[np.ndarray],
              ) -> tuple[tuple[tuple[str, tuple, int], ...], int]:
    """Layout for the flattened leaves: ``((dtype, shape, offset), ...)``
    plus the total byte span (offsets are :data:`ALIGNMENT`-aligned)."""
    manifest = []
    offset = 0
    for arr in leaves:
        offset = _align(offset)
        manifest.append((arr.dtype.str, tuple(arr.shape), offset))
        offset += arr.nbytes
    return tuple(manifest), offset


def write_tree(buffer, base: int, manifest: Sequence,
               leaves: Sequence[np.ndarray]) -> None:
    """Copy the leaves into ``buffer`` at ``base`` per the manifest."""
    for (dt, shape, off), arr in zip(manifest, leaves):
        if arr.nbytes:
            dst = np.frombuffer(buffer, dtype=arr.dtype, count=arr.size,
                                offset=base + off)
            dst[:] = arr.reshape(-1)


def read_tree(buffer, base: int, spec: Any, manifest: Sequence) -> Any:
    """Rebuild an array tree as read-only views over ``buffer``."""
    return build_tree(spec, [view_array(buffer, dt, shape, base + off)
                             for dt, shape, off in manifest])


def _spec_from_json(node):
    """Invert JSON's tuple->list coercion on a :func:`flatten_tree` spec."""
    if isinstance(node, list):
        return tuple(_spec_from_json(child) for child in node)
    return int(node)


def tree_to_bytes(tree: Any) -> bytes:
    """Encode an array tree as one self-contained byte string.

    Layout: ``u32 desc_len | descriptor JSON (spec + manifest) | pad to
    ALIGNMENT | raw leaf blobs`` — the leaves are laid out exactly as
    the layout rule lays a store's arrays into its container, so this
    is the array-tree codec with the descriptor glued on.
    """
    spec, leaves = flatten_tree(tree)
    manifest, total = plan_tree(leaves)
    head = json.dumps({"spec": spec, "manifest": manifest},
                      separators=(",", ":")).encode("ascii")
    base = _align(4 + len(head))
    buf = bytearray(base + total)
    struct.pack_into("<I", buf, 0, len(head))
    buf[4:4 + len(head)] = head
    write_tree(memoryview(buf), base, manifest, leaves)
    return bytes(buf)


def tree_from_bytes(data) -> Any:
    """Decode :func:`tree_to_bytes` output back into an array tree.

    The leaves are read-only ndarray views over ``data`` — no blob
    copy; callers that need to outlive the buffer copy explicitly.
    """
    view = memoryview(data)
    if len(view) < 4:
        raise ConfigError("truncated array-tree message")
    (desc_len,) = struct.unpack_from("<I", view, 0)
    if 4 + desc_len > len(view):
        raise ConfigError("truncated array-tree message")
    try:
        head = json.loads(bytes(view[4:4 + desc_len]).decode("ascii"))
        spec = _spec_from_json(head["spec"])
        manifest = tuple((str(dt), tuple(int(d) for d in shape), int(off))
                         for dt, shape, off in head["manifest"])
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        raise ConfigError("corrupt array-tree message header") from None
    base = _align(4 + desc_len)
    return read_tree(view, base, spec, manifest)
