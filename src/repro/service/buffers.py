"""Zero-copy buffer packs: the serving data plane's memory layer.

Every pre-built :class:`~repro.service.index.IndexStore` is, physically,
a handful of contiguous numpy arrays plus a little scalar metadata.  This
module separates that physical layout from the query logic:

* :class:`BufferPack` — a named dict of contiguous arrays laid out in
  **one** buffer, backed by ordinary heap memory or a memory-mapped
  file.  The arrays a pack hands out are read-only views — attaching
  never copies, and no reader can corrupt another's answers.
* :class:`PackHandle` — a tiny picklable token (file path or raw bytes
  + the array manifest) that :meth:`BufferPack.attach` turns back into
  a pack, zero-copy for a mapped file — how a binary index container
  is loaded.
* :class:`PackedIndex` — a pack plus the index type tag and scalar
  metadata; the unit :func:`repro.service.index.index_from_pack`
  rebuilds a store from.
* the **array-tree codec** (:func:`flatten_tree` / :func:`plan_tree` /
  :func:`write_tree` / :func:`read_tree`) — encodes the nested tuples
  of ndarrays that flow through ``plan``/``answer``/``finish``
  into a raw buffer region and back — the body of the TCP transport's
  query/result frames (:func:`tree_to_bytes` / :func:`tree_from_bytes`)
  and the layout rule of a pack.

Determinism contract: a pack stores exact bytes, so a store rebuilt from
any backing answers **bit-identically** to the heap-built original — the
backing-equivalence test suite asserts this for every scheme.
"""

from __future__ import annotations

import json
import mmap as _mmaplib
import os
import struct
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigError

#: the physical backings a pack supports
BACKINGS = ("heap", "mmap")

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
# layout planning
# ----------------------------------------------------------------------
def plan_layout(arrays: Mapping[str, np.ndarray],
                ) -> tuple[tuple[tuple[str, str, tuple, int], ...], int]:
    """Lay named arrays out in one buffer.

    Returns ``(manifest, total_bytes)`` where each manifest row is
    ``(name, dtype_str, shape, offset)`` and offsets are
    :data:`ALIGNMENT`-aligned.  Iteration order (= dict insertion order)
    is the layout order, so the layout is deterministic.  The geometry
    is exactly :func:`plan_tree`'s (the message codec) with names glued
    on — one layout rule for packs and messages alike.
    """
    names = [str(name) for name in arrays]
    rows, total = plan_tree([np.ascontiguousarray(a)
                             for a in arrays.values()])
    return tuple((name, dt, shape, off)
                 for name, (dt, shape, off) in zip(names, rows)), total


def _view_array(buffer, dtype: str, shape: tuple, offset: int) -> np.ndarray:
    """A read-only ndarray view over ``buffer`` at a manifest row (the
    one materialization rule shared by packs and message decoding)."""
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


@dataclass(frozen=True)
class PackHandle:
    """Picklable attach token for a :class:`BufferPack`.

    ``mmap`` packs travel as a file path plus the blob base offset, and
    ``heap`` packs carry the raw bytes (a copy).
    """

    backing: str
    manifest: tuple
    nbytes: int
    path: Optional[str] = None
    base: int = 0
    data: Optional[bytes] = None


class BufferPack:
    """A named dict of contiguous, read-only numpy arrays over one buffer.

    Build one with :meth:`from_arrays` (copies the inputs into the chosen
    backing once) or :meth:`attach` (zero-copy, from a
    :class:`PackHandle`).  Index by name: ``pack["pivot_ids"]``.

    :param manifest: ``(name, dtype_str, shape, offset)`` rows.
    :param nbytes: total laid-out payload size.
    :param backing: one of :data:`BACKINGS`.
    """

    def __init__(self, manifest: Sequence, nbytes: int, backing: str, *,
                 buffer, mm=None, path: Optional[str] = None,
                 base: int = 0, owner: bool = False,
                 delete_file: bool = False):
        self.manifest = tuple((str(n), str(d), tuple(s), int(o))
                              for n, d, s, o in manifest)
        self.nbytes = int(nbytes)
        self.backing = backing
        self.base = int(base)
        self.path = path
        self._buffer = buffer
        self._mm = mm
        self._owner = bool(owner)
        self._delete_file = bool(delete_file)
        self._closed = False
        self._index = {n: (d, s, o) for n, d, s, o in self.manifest}
        self._views: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray],
                    backing: str = "heap", *, path: Optional[str] = None,
                    delete_file: bool = False) -> "BufferPack":
        """Copy named arrays into one freshly allocated buffer.

        :param backing: ``"heap"`` (ordinary memory) or ``"mmap"`` (a
            file at ``path``, created/truncated and memory-mapped).
        :param path: required for ``"mmap"``.
        :param delete_file: with ``"mmap"``, delete the file on
            :meth:`close` (scratch-file semantics).
        :raises ConfigError: on an unknown backing or a missing path.
        """
        if backing not in BACKINGS:
            raise ConfigError(
                f"unknown pack backing {backing!r}; choose from {BACKINGS}")
        manifest, total = plan_layout(arrays)
        size = max(total, 1)
        if backing == "heap":
            pack = cls(manifest, total, backing,
                       buffer=memoryview(bytearray(size)), owner=True)
        else:
            if path is None:
                raise ConfigError("mmap backing needs a file path")
            fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o600)
            try:
                os.ftruncate(fd, size)
                mm = _mmaplib.mmap(fd, size)
            finally:
                os.close(fd)
            pack = cls(manifest, total, backing, buffer=memoryview(mm),
                       mm=mm, path=path, owner=True, delete_file=delete_file)
        write_tree(pack._buffer, 0,
                   [(dt, shape, off) for _, dt, shape, off in manifest],
                   [np.ascontiguousarray(a) for a in arrays.values()])
        return pack

    @classmethod
    def attach(cls, handle: PackHandle) -> "BufferPack":
        """Open an existing pack from its handle, zero-copy.

        Mapped files are opened read-only (no reader can scribble on
        the index); a ``heap`` handle simply wraps the bytes it carries.
        """
        if handle.backing == "mmap":
            fd = os.open(handle.path, os.O_RDONLY)
            try:
                size = os.fstat(fd).st_size
                mm = _mmaplib.mmap(fd, size, access=_mmaplib.ACCESS_READ)
            finally:
                os.close(fd)
            return cls(handle.manifest, handle.nbytes, "mmap",
                       buffer=memoryview(mm), mm=mm, path=handle.path,
                       base=handle.base)
        if handle.backing == "heap":
            return cls(handle.manifest, handle.nbytes, "heap",
                       buffer=memoryview(handle.data), base=handle.base)
        raise ConfigError(f"unknown pack backing {handle.backing!r}")

    def handle(self) -> PackHandle:
        """The picklable attach token for this pack (heap packs copy
        their payload into the handle)."""
        if self.backing == "mmap":
            return PackHandle("mmap", self.manifest, self.nbytes,
                              path=self.path, base=self.base)
        lo = self.base
        return PackHandle("heap", self.manifest, self.nbytes,
                          data=bytes(self._buffer[lo:lo + self.nbytes]))

    # ------------------------------------------------------------------
    # the dict-of-arrays face
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        view = self._views.get(name)
        if view is None:
            dt, shape, off = self._index[name]
            view = _view_array(self._buffer, dt, shape, self.base + off)
            self._views[name] = view
        return view

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def names(self) -> list[str]:
        return [row[0] for row in self.manifest]

    def as_dict(self) -> dict[str, np.ndarray]:
        """All arrays as a plain ``{name: view}`` dict (views, no copies)."""
        return {name: self[name] for name in self.names()}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the backing (idempotent).

        The creator of a scratch mapped file (``delete_file``) also
        unlinks it.  If some store still holds live views the OS mapping
        stays alive until those views are garbage-collected.
        """
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                pass
            if self._owner and self._delete_file and self.path:
                try:
                    os.unlink(self.path)
                except OSError:  # pragma: no cover - already gone
                    pass

    def __enter__(self) -> "BufferPack":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BufferPack({len(self.manifest)} arrays, "
                f"{self.nbytes} bytes, {self.backing})")


@dataclass
class PackedIndex:
    """A :class:`BufferPack` plus what a store needs besides raw arrays:
    the index type tag (``"tz_index"`` …) and the scalar metadata."""

    tag: str
    meta: dict
    pack: BufferPack

    def handle(self) -> tuple[str, dict, PackHandle]:
        """Picklable form: ``(tag, meta, pack handle)``."""
        return (self.tag, self.meta, self.pack.handle())

    def close(self) -> None:
        self.pack.close()

    def __enter__(self) -> "PackedIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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
    return build_tree(spec, [_view_array(buffer, dt, shape, base + off)
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
    :func:`plan_tree`/:func:`write_tree` lay them into a pack, so this
    is the array-tree codec with the descriptor glued on.  The body
    of the tcp ``probe`` / ``probe_result`` frames
    (:mod:`repro.service.protocol`).
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
