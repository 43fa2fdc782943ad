"""Protocol-v3 frame fuzzing: hostile bytes must never wedge either end.

One :class:`OracleServer` IO loop multiplexes every connection — and
since v3 answers small requests itself — so a single malformed frame
that escapes as an exception kills serving for *everyone*: the failure
mode this suite exists to prevent (it caught exactly that once: a
valid-JSON-but-non-dict head used to ``AttributeError`` the loop).
Hypothesis drives raw sockets with

* arbitrary garbage bytes,
* corrupt ``frame_len`` fields (below the 24-byte head, past
  ``MAX_FRAME_BYTES``, or just wrong),
* truncated prefixes of well-formed frames,
* unknown kind bytes, and kinds only a server may send,
* ``query`` bodies whose length is not a multiple of 16, bodies on the
  kinds that must be empty,
* control kinds whose body is invalid UTF-8 / invalid JSON / valid JSON
  but not an object,
* the retired kinds 4 and 5 (``probe`` / ``probe_result``) with junk
  bodies, and junk ``apply`` objects,

and after every exchange asserts the contract: the fuzzed connection
yields only well-formed v3 reply frames (typed ``error`` frames
included) or a clean disconnect — and a **control client on a fresh
connection still gets answers**, proving the IO loop and handler pool
survived.

The other direction: a **hostile server** (a raw-socket impostor that
greets with a valid hello) answers a query with a corrupt head, a
``result`` nobody asked for, a ``result`` that is not whole float64s,
or half a frame and EOF — the client raises ``ConnectionError``, marks
itself dead, never hangs and never returns an array.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import build_sketches
from repro.graphs import assign_uniform_weights, erdos_renyi
from repro.service import OracleServer, connect, sample_query_pairs
from repro.service.protocol import (APPLY, CONTROL_KINDS, EPOCH, ERROR, HELLO,
                                    KIND_NAMES, MAX_FRAME_BYTES,
                                    PROTOCOL_VERSION, PUSH_RID, QUERY, RESULT,
                                    STATS)

#: the v3 head, spelled out here so that a layout change fails a test:
#: u32 frame_len | u8 kind | 3 pad | u64 rid | i64 epoch
_HEAD = struct.Struct("<IB3xQq")
assert _HEAD.size == 24

#: the kinds of the retired fleet frames (``probe``, ``probe_result``),
#: unassigned since: a server answers them as any unknown kind
RETIRED_KINDS = (4, 5)


@pytest.fixture(scope="module")
def fuzz_server():
    g = assign_uniform_weights(erdos_renyi(16, seed=21), seed=22)
    built = build_sketches(g, scheme="stretch3", seed=5, eps=0.5)
    server = OracleServer(built, cache_size=0)
    host, port = server.serve("127.0.0.1:0", block=False)
    yield server, (host, port), g
    server.close()


def _frame(kind: int, body: bytes = b"", rid: int = 7, epoch: int = 0,
           frame_len: int | None = None) -> bytes:
    if frame_len is None:
        frame_len = _HEAD.size + len(body)
    return _HEAD.pack(frame_len, kind, rid, epoch) + body


# -- payload strategies ------------------------------------------------
_rid = st.integers(0, 2**64 - 1)
_known = st.sampled_from(sorted(KIND_NAMES))

garbage = st.binary(min_size=0, max_size=256)

corrupt_len = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(0, 255), _rid,
    st.binary(max_size=64),
).map(lambda t: _frame(t[1], t[3], rid=t[2], frame_len=t[0]))

undersized = st.tuples(st.integers(0, _HEAD.size - 1), _known).map(
    lambda t: _frame(t[1], frame_len=t[0]))

oversized = st.tuples(_known, st.binary(max_size=32)).map(
    lambda t: _frame(t[0], t[1], frame_len=MAX_FRAME_BYTES + 7))

any_kind = st.tuples(st.integers(0, 255), _rid, st.binary(max_size=64)).map(
    lambda t: _frame(t[0], t[2], rid=t[1]))

ragged_query = st.binary(min_size=1, max_size=95).filter(
    lambda body: len(body) % 16).map(lambda body: _frame(QUERY, body))

body_on_empty_kind = st.tuples(
    st.sampled_from([STATS, EPOCH]), st.binary(min_size=1, max_size=16),
).map(lambda t: _frame(*t))

_control = st.sampled_from(sorted(CONTROL_KINDS))

non_json_body = st.tuples(_control, st.binary(min_size=1, max_size=64)).map(
    lambda t: _frame(*t))

non_dict_body = st.tuples(
    _control, st.sampled_from([b"[1,2]", b"null", b'"query"', b"3", b"true"]),
).map(lambda t: _frame(*t))

retired_kind = st.tuples(st.sampled_from(RETIRED_KINDS),
                         st.binary(max_size=96)).map(lambda t: _frame(*t))

junk_apply = st.sampled_from(
    [{}, {"changes": 3}, {"changes": [1]}, {"changes": [{"op": "?"}]}],
).map(lambda obj: _frame(APPLY, json.dumps(obj).encode("utf-8")))

well_formed = st.one_of(any_kind, ragged_query, non_json_body,
                        non_dict_body, retired_kind, junk_apply)

truncated = st.tuples(well_formed, st.integers(1, 32)).map(
    lambda t: t[0][:max(1, len(t[0]) - t[1])])

payloads = st.lists(
    st.one_of(garbage, corrupt_len, undersized, oversized, any_kind,
              ragged_query, body_on_empty_kind, non_json_body,
              non_dict_body, retired_kind, junk_apply, truncated),
    min_size=1, max_size=3)


def _parse_replies(buf: bytes) -> list[tuple[int, int, int, object]]:
    """Every complete frame of ``buf`` as ``(kind, rid, epoch, body)``;
    each must be a well-formed v3 frame of a known kind (a control
    kind's body one JSON object)."""
    frames = []
    while len(buf) >= _HEAD.size:
        frame_len, kind, rid, epoch = _HEAD.unpack_from(buf)
        assert _HEAD.size <= frame_len <= MAX_FRAME_BYTES
        if len(buf) < frame_len:
            break  # server was cut off mid-frame by our close: fine
        assert kind in KIND_NAMES
        body: object = buf[_HEAD.size:frame_len]
        if kind in CONTROL_KINDS:
            body = json.loads(body.decode("utf-8"))
            assert isinstance(body, dict)
        frames.append((kind, rid, epoch, body))
        buf = buf[frame_len:]
    return frames


def _exchange(addr, payload: bytes) -> list:
    """Send one hostile payload and drain the connection to EOF (or a
    short timeout); every complete reply frame must parse.  Returns the
    replies after the hello."""
    with socket.create_connection(addr, timeout=5.0) as sock:
        sock.sendall(payload)
        try:
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        buf = b""
        while True:
            try:
                chunk = sock.recv(1 << 16)
            except socket.timeout:
                pytest.fail("fuzzed connection hung: no reply, no "
                            f"disconnect for {payload[:40]!r}...")
            except OSError:
                break
            if not chunk:
                break
            buf += chunk
    # whatever came back must be a clean frame stream prefix: hello
    # first, then results / typed error frames
    frames = _parse_replies(buf)
    if frames:
        assert frames[0][0] == HELLO
        assert frames[0][3]["v"] == PROTOCOL_VERSION
    return frames[1:]


def _control_client_answers(addr, g, seed: int) -> None:
    pairs = sample_query_pairs(g.n, 8, seed=seed)
    with connect(f"tcp://{addr[0]}:{addr[1]}") as control:
        assert len(control.dist_many(pairs)) == len(pairs)


@given(batch=payloads)
@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_hostile_frames_never_wedge_the_server(fuzz_server, batch):
    server, addr, g = fuzz_server
    for payload in batch:
        _exchange(addr, payload)
    # the liveness contract: a fresh client still gets answers after
    # every hostile exchange (IO loop alive, handler pool not leaked)
    _control_client_answers(addr, g, seed=1)


def _read_frame(sock: socket.socket) -> tuple[int, int, int, object]:
    data = b""
    while len(data) < _HEAD.size or len(data) < _HEAD.unpack_from(data)[0]:
        chunk = sock.recv(1 << 16)
        assert chunk, "server hung up instead of replying"
        data += chunk
    (frame,) = _parse_replies(data)
    return frame


def test_bogus_request_id_comes_back_typed(fuzz_server):
    """A request with an unknown kind byte — or a kind only a server may
    send — yields a typed error frame echoing its request id: not a
    disconnect, not silence, not a handler traceback.  (A v2 request id
    was any JSON value and this test also sent junk-typed ones; a v3 id
    is eight head bytes by construction, so that half has nothing left
    to check.)"""
    server, addr, _ = fuzz_server
    with socket.create_connection(addr, timeout=5.0) as sock:
        assert _read_frame(sock)[0] == HELLO
        for kind, body in ((200, b"x"), (0, b""), (RESULT, b"\0" * 8),
                           (EPOCH, b""), (HELLO, b'{"v":3}')):
            rid = 0xDEADBEEF00 + kind
            sock.sendall(_frame(kind, body, rid=rid))
            got, echoed, _, reply = _read_frame(sock)
            assert (got, echoed) == (ERROR, rid)
            assert reply["etype"] == "ConfigError"
            assert reply["message"]


def test_retired_kinds_are_typed_errors_and_the_session_goes_on(
        fuzz_server):
    """Kinds 4 and 5 — the retired fleet ``probe`` / ``probe_result`` —
    are unassigned: each is answered by a typed ``ConfigError`` frame
    echoing its request id, and the same connection then answers a
    ``query`` bit-identically to an in-process session."""
    server, addr, g = fuzz_server
    pairs = sample_query_pairs(g.n, 8, seed=3)
    want = server.client().dist_many(pairs)
    with socket.create_connection(addr, timeout=5.0) as sock:
        assert _read_frame(sock)[0] == HELLO
        for kind in RETIRED_KINDS:
            rid = 0xFEED00 + kind
            sock.sendall(_frame(kind, b"\0" * 16, rid=rid))
            got, echoed, _, reply = _read_frame(sock)
            assert (got, echoed) == (ERROR, rid)
            assert reply["etype"] == "ConfigError"
            assert reply["message"] == f"unknown frame kind {kind}"
        sock.sendall(_frame(QUERY, pairs.astype("<i8").tobytes(), rid=9))
        got, echoed, _, body = _read_frame(sock)
    assert (got, echoed) == (RESULT, 9)
    assert body == want.astype("<f8").tobytes()


def test_non_dict_json_head_disconnects_cleanly(fuzz_server):
    """The regression this suite caught, where v3 keeps it: ``[1,2]`` as
    the JSON of a control frame (the v2 head, the v3 body) must drop the
    one connection, not crash the shared IO loop."""
    server, addr, g = fuzz_server
    for body in (b"[1,2]", b"null", b'"hi"'):
        assert _exchange(addr, _frame(APPLY, body)) == []
    _control_client_answers(addr, g, seed=2)


# ----------------------------------------------------------------------
# the other direction: a hostile server
# ----------------------------------------------------------------------
_HELLO = {"v": PROTOCOL_VERSION, "n": 16, "scheme": "tz", "epoch": 0,
          "shards": 1, "updateable": False,
          "max_frame": MAX_FRAME_BYTES}

_EIGHT = struct.pack("<d", 1.5)

#: what the impostor sends back for the client's first request (rid 0)
_HOSTILE_REPLIES = {
    "frame_len below the head": _frame(RESULT, _EIGHT, rid=0, frame_len=9),
    "frame_len past the cap":
        _frame(RESULT, _EIGHT, rid=0, frame_len=MAX_FRAME_BYTES + 1),
    "garbage": b"\xff" * 64,
    "result for an unknown rid": _frame(RESULT, _EIGHT, rid=12345),
    "result that is not whole float64s": _frame(RESULT, b"\0" * 12, rid=0),
    "error body that is not an object": _frame(ERROR, b"[1]", rid=0),
    "truncated frame then EOF": _frame(RESULT, _EIGHT * 4, rid=0)[:40],
    "EOF": b"",
}


@pytest.mark.parametrize("reply", list(_HOSTILE_REPLIES.values()),
                         ids=[k.replace(" ", "-") for k in _HOSTILE_REPLIES])
def test_hostile_server_kills_the_session_not_the_client(reply):
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]

    def impostor():
        sock, _ = listener.accept()
        with sock:
            sock.sendall(_frame(HELLO, json.dumps(_HELLO).encode("utf-8"),
                                rid=PUSH_RID))
            sock.settimeout(5.0)
            sock.recv(1 << 16)  # the client's query frame
            sock.sendall(reply)

    thread = threading.Thread(target=impostor, daemon=True)
    thread.start()
    try:
        client = connect(f"tcp://{host}:{port}", timeout=5.0)
        try:
            # connect() clears its timeout; the bound this test adds is
            # what turns a would-be hang into a failure
            client._transport._sock.settimeout(5.0)
            with pytest.raises(ConnectionError):
                client.dist_many([(0, 1)])
            with pytest.raises(ConnectionError, match="dead"):
                client.dist(0, 1)
            with pytest.raises(ConnectionError, match="dead"):
                client.stats()
        finally:
            client.close()
    finally:
        listener.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
