"""The tcp frame protocol, version 3 — kinds, head struct, frame codec,
the one reassembler, error mapping, caps.  A frame is one fixed 24-byte
little-endian head and a body::

    u32 frame_len | u8 kind | 3 pad | u64 rid | i64 epoch | body

``frame_len`` counts the whole frame.  ``rid`` is the client-assigned
request id a reply echoes (:data:`PUSH_RID` on frames the server pushes
unasked); ``epoch`` names the epoch that served a ``result`` /
``index_blob`` (the new epoch on a pushed ``epoch`` frame) and is 0 on
requests.  A kind has exactly one body format: raw ``<i8`` ``(Q, 2)``
pairs for ``query``, raw ``<f8`` ``(Q,)`` answers for ``result``, the
RPIX bytes for ``index_blob``, one JSON object for the control kinds
(:data:`CONTROL_KINDS`), nothing for the rest — so a ``query`` →
``result`` round trip never touches :mod:`json`.  Kinds 4 and 5 (the
retired ``probe`` / ``probe_result``) are unassigned, so every other
kind keeps its number and a server answers them as it answers any
unknown kind.  ``docs/serving.md`` §5b has the full table.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Optional

import numpy as np

from repro.errors import ConfigError, QueryError, ReproError

#: carried by the hello frame; anything else is refused at connect
PROTOCOL_VERSION = 3

#: frames larger than this are rejected before allocation (a corrupt
#: length prefix must not look like a 4 GB read); the server advertises
#: its value as ``max_frame`` in hello and the client refuses to send a
#: larger request
MAX_FRAME_BYTES = 1 << 31

HEAD = struct.Struct("<IB3xQq")
HEAD_SIZE = HEAD.size  # 24

#: the ``rid`` of a frame nobody asked for (hello, epoch bumps)
PUSH_RID = (1 << 64) - 1

#: the array dtypes of a ``query`` and a ``result`` body
PAIRS = np.dtype("<i8")
ANSWERS = np.dtype("<f8")

#: a lone pair's ``query`` body, its ``result`` body and whole ``result``
#: frame, byte for byte the arrays' without numpy
ONE_PAIR = struct.Struct("<qq")
ONE_ANSWER = struct.Struct("<d")
ONE_RESULT = struct.Struct(HEAD.format + "d")

#: a ``recv`` asks for this much — a larger buffer costs more to
#: allocate than a small frame costs to serve — unless a longer frame is
#: known to be on its way (:meth:`FrameReader.want`)
RECV_BYTES = 1 << 16
RECV_MAX = 1 << 20

HELLO, QUERY, RESULT = 1, 2, 3
(APPLY, REPORT, STATS, STATS_REPLY, FETCH_INDEX, INDEX_BLOB, EPOCH, ERROR,
 CLOSE) = range(6, 15)

KIND_NAMES = {
    HELLO: "hello", QUERY: "query", RESULT: "result",
    APPLY: "apply", REPORT: "report",
    STATS: "stats", STATS_REPLY: "stats_reply",
    FETCH_INDEX: "fetch_index", INDEX_BLOB: "index_blob", EPOCH: "epoch",
    ERROR: "error", CLOSE: "close"}

#: kinds whose body is one JSON object — a ``dict`` on both sides of
#: :func:`encode_frame` / :class:`FrameReader`
CONTROL_KINDS = frozenset((HELLO, APPLY, REPORT, STATS_REPLY, ERROR))

#: kind -> the unit its body length must be a multiple of (0: empty)
_BODY_UNIT = {QUERY: 16, RESULT: 8, EPOCH: 0, STATS: 0, FETCH_INDEX: 0,
              CLOSE: 0}

_JSON = json.JSONEncoder(separators=(",", ":"))


class FrameError(ConnectionError):
    """The byte stream is not a protocol-v3 frame stream.  It cannot be
    resynchronized: the server drops the connection, the client marks
    its session dead."""


def kind_name(kind: int) -> str:
    return KIND_NAMES.get(kind, f"kind {kind}")


def encode_frame(kind: int, rid: int, epoch: int = 0, body: Any = b"",
                 ) -> bytes:
    """One wire frame; ``body`` is bytes-like, or the ``dict`` of a
    control kind."""
    if kind in CONTROL_KINDS:
        body = _JSON.encode(body).encode("utf-8")
    return HEAD.pack(HEAD_SIZE + len(body), kind, rid, epoch) + body


class FrameReader:
    """The one place a byte stream is cut into frames and a frame is
    checked — the server's event loop and the client's receive path both
    :meth:`feed` it what ``recv`` returned and take ``(kind, rid, epoch,
    body)`` tuples from :meth:`next_frame` until it returns ``None``.
    Bodies own their bytes (``bytes``, or the decoded ``dict`` of a
    control kind).  A chunk that arrives with nothing buffered is adopted
    without a copy, so a small frame that comes in one ``recv`` costs
    one slice."""

    __slots__ = ("_buf", "_pos", "max_frame")

    def __init__(self, max_frame: int):
        self._buf: Any = b""
        self._pos = 0
        self.max_frame = max_frame

    def want(self) -> int:
        """What to ask the next ``recv`` for: :data:`RECV_BYTES`, or as
        much as is still to come (up to :data:`RECV_MAX`) of a frame
        whose head has already arrived."""
        have = len(self._buf) - self._pos
        if have < HEAD_SIZE:
            return RECV_BYTES
        missing = HEAD.unpack_from(self._buf, self._pos)[0] - have
        return min(max(missing, RECV_BYTES), RECV_MAX)

    def feed(self, data: bytes) -> None:
        if self._pos == len(self._buf):
            self._buf, self._pos = data, 0
            return
        if self._pos or not isinstance(self._buf, bytearray):
            with memoryview(self._buf) as view:
                self._buf = bytearray(view[self._pos:])
            self._pos = 0
        self._buf += data

    def next_frame(self) -> Optional[tuple[int, int, int, Any]]:
        """The next complete frame, or ``None`` when more bytes are
        needed.

        :raises FrameError: on a length outside ``[HEAD_SIZE,
            max_frame]``, a body that is not a whole number of its
            kind's units, or a control body that is not UTF-8 → JSON →
            ``dict``.
        """
        buf, pos = self._buf, self._pos
        have = len(buf) - pos
        if have < HEAD_SIZE:
            return None
        frame_len, kind, rid, epoch = HEAD.unpack_from(buf, pos)
        if not (HEAD_SIZE <= frame_len <= self.max_frame):
            raise FrameError(f"corrupt frame length ({frame_len} bytes)")
        if have < frame_len:
            return None
        if type(buf) is bytes:
            body = buf[pos + HEAD_SIZE:pos + frame_len]
        else:
            with memoryview(buf) as view:
                body = bytes(view[pos + HEAD_SIZE:pos + frame_len])
        self._pos = pos + frame_len
        unit = _BODY_UNIT.get(kind)
        if unit is not None:
            if len(body) % unit if unit else body:
                raise FrameError(f"corrupt {kind_name(kind)} frame body "
                                 f"({len(body)} bytes)")
        elif kind in CONTROL_KINDS:
            try:
                body = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                body = None
            if not isinstance(body, dict):
                # "[1,2]" or "null" is valid JSON but no use to .get()
                raise FrameError(f"corrupt {kind_name(kind)} frame body "
                                 f"(want one JSON object)")
        return kind, rid, epoch, body


#: error classes that cross the wire as themselves; anything else
#: arrives as the base ReproError
_WIRE_ERRORS = {cls.__name__: cls for cls in (QueryError, ConfigError)}


def encode_error(rid: int, exc: BaseException) -> bytes:
    return encode_frame(ERROR, rid, 0, {"etype": type(exc).__name__,
                                        "message": str(exc)})


def error_from_body(body: dict) -> ReproError:
    cls = _WIRE_ERRORS.get(body.get("etype"), ReproError)
    return cls(str(body.get("message", "remote error")))
