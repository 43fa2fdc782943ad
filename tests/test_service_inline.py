"""The inline/pool seam of the tcp server, and the v3 wire around it.

A ``query`` / ``stats`` frame of at most
``INLINE_FRAME_BYTES`` is answered on the IO-loop thread, anything
larger (and every ``apply`` / ``fetch_index``) on the handler pool.
That is a scheduling decision only, so:

* answers and ``QueryError`` texts are identical on both sides of the
  threshold, and equal to the in-process ones;
* the engine call really runs where the rule says;
* an ``apply`` never runs on the loop thread — readers keep being
  answered while one is in progress;
* the ``query`` → ``result`` path touches neither ``json`` nor the
  array-tree codec;
* the wire layout is pinned by a golden, so changing it is a deliberate
  edit;
* a request over the server's advertised frame cap is a typed error
  that leaves the session usable.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

import numpy as np
import pytest

from repro import build_sketches
from repro.errors import ConfigError, QueryError
from repro.graphs import assign_uniform_weights, erdos_renyi
from repro.service import (OracleServer, UpdateableIndex, build_index,
                           connect, sample_query_pairs,
                           sample_weight_changes)
from repro.service.protocol import (ERROR, HEAD_SIZE, PUSH_RID, QUERY,
                                    RECV_BYTES, RESULT, FrameReader,
                                    encode_error, encode_frame)

SCHEME_PARAMS = {
    "tz": {"k": 2},
    "stretch3": {"eps": 0.4},
    "cdg": {"eps": 0.4, "k": 2},
    "graceful": {},
}

#: the threshold the seam tests run with: 32 pairs
SMALL_INLINE = 32 * 16


@pytest.fixture(scope="module")
def graph():
    return assign_uniform_weights(erdos_renyi(24, seed=11), seed=12)


@pytest.fixture()
def small_inline(monkeypatch):
    monkeypatch.setattr("repro.service.server.INLINE_FRAME_BYTES",
                        SMALL_INLINE)
    return SMALL_INLINE // 16


def _serve(source, **kw):
    server = OracleServer(source, cache_size=0, **kw)
    host, port = server.serve("127.0.0.1:0", block=False)
    return server, f"tcp://{host}:{port}"


def _record_engine_threads(server, method: str) -> list[str]:
    """Wrap one engine method so that every call notes its thread."""
    names: list[str] = []
    inner = getattr(server._engine, method)

    def recording(*args, **kwargs):
        names.append(threading.current_thread().name)
        return inner(*args, **kwargs)

    setattr(server._engine, method, recording)
    return names


# ----------------------------------------------------------------------
# (a) identical on both sides of the threshold
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", sorted(SCHEME_PARAMS))
def test_answers_identical_on_both_sides_of_the_threshold(
        graph, scheme, small_inline):
    built = build_sketches(graph, scheme=scheme, seed=7,
                           **SCHEME_PARAMS[scheme])
    store = build_index(built.sketches, num_shards=2)
    server, addr = _serve(store)
    threads = _record_engine_threads(server, "dist_many_pinned")
    try:
        with connect(addr) as tcp, connect("inproc://cache=0",
                                           store) as local:
            for q in (small_inline, small_inline + 1):
                pairs = sample_query_pairs(graph.n, q, seed=q)
                want = store.estimate_many(pairs[:, 0], pairs[:, 1])
                got = tcp.dist_many(pairs)
                assert np.array_equal(got, want), q
                assert got.dtype == np.float64 and got.flags.writeable
                assert got.flags.owndata
                # the same bad id, at the same row, on each side
                bad = pairs.copy()
                bad[q // 2, 1] = graph.n + 3
                with pytest.raises(QueryError) as here:
                    local.dist_many(bad)
                with pytest.raises(QueryError) as there:
                    tcp.dist_many(bad)
                assert str(there.value) == str(here.value)
                # the session survives the error
                assert np.array_equal(tcp.dist_many(pairs), want)
            # a stream straddling the seam keeps order and positions
            sizes = [small_inline + 1, 1, small_inline, small_inline + 5]
            chunks = [sample_query_pairs(graph.n, q, seed=50 + i)
                      for i, q in enumerate(sizes)]
            for got, chunk in zip(tcp.dist_stream(chunks), chunks):
                assert np.array_equal(
                    got, store.estimate_many(chunk[:, 0], chunk[:, 1]))
    finally:
        server.close()
    assert {"oracle-io"} < set(threads)  # both sides really ran


# ----------------------------------------------------------------------
# (b) where the engine call runs
# ----------------------------------------------------------------------
def test_small_requests_run_on_the_loop_thread(graph, small_inline):
    built = build_sketches(graph, scheme="tz", seed=7, k=2)
    server, addr = _serve(built)
    # a lone pair reaches the engine's one-pair entry, a batch
    # dist_many_pinned
    lone = _record_engine_threads(server, "dist_one_pinned")
    threads = _record_engine_threads(server, "dist_many_pinned")
    try:
        with connect(addr) as client:
            client.dist(0, 1)
            assert lone == ["oracle-io"] and threads == []
            client.dist_many(sample_query_pairs(graph.n, small_inline,
                                                seed=1))
            assert threads == ["oracle-io"]
            client.dist_many(sample_query_pairs(graph.n, small_inline + 1,
                                                seed=2))
            assert threads[1].startswith("oracle-handler")
            assert lone == ["oracle-io"]
            # stats is answered inline too, and says nothing new
            assert client.stats()["handlers"] == 2
    finally:
        server.close()
    assert [t.name for t in threading.enumerate()
            if t.name.startswith(("oracle-io", "oracle-handler"))] == []


# ----------------------------------------------------------------------
# (c) a repair never stalls the readers
# ----------------------------------------------------------------------
def test_readers_are_answered_while_an_apply_is_in_progress(graph):
    pairs = sample_query_pairs(graph.n, 64, seed=9)
    changes = sample_weight_changes(graph, 3, seed=44, low=0.2, high=0.6)
    twin = UpdateableIndex(graph.copy(), scheme="tz", seed=5, k=2)
    known = [dict(zip(map(tuple, pairs.tolist()),
                      twin.index.estimate_many(pairs[:, 0], pairs[:, 1])))]
    twin.apply(changes)
    known.append(dict(zip(map(tuple, pairs.tolist()),
                          twin.index.estimate_many(pairs[:, 0],
                                                   pairs[:, 1]))))

    server, addr = _serve(UpdateableIndex(graph.copy(), scheme="tz",
                                          seed=5, k=2))
    entered, release = threading.Event(), threading.Event()
    apply_threads: list[str] = []
    inner_apply = server._engine.apply_updates

    def slow_apply(batch):
        apply_threads.append(threading.current_thread().name)
        entered.set()
        assert release.wait(30.0)
        return inner_apply(batch)

    server._engine.apply_updates = slow_apply
    failures: list[BaseException] = []
    during: list[int] = [0, 0]

    def reader(slot: int) -> None:
        try:
            with connect(addr) as session:
                session._transport._sock.settimeout(10.0)
                assert entered.wait(10.0)
                i = 0
                # answered while the writer's apply holds a handler
                while not (release.is_set() and i >= 40):
                    u, v = pairs[i % len(pairs)].tolist()
                    got = session.dist(u, v)
                    epoch = session.last_result_epoch
                    assert got == known[epoch][(u, v)], (u, v, epoch)
                    i += 1
                    if not release.is_set():
                        during[slot] += 1
                        if min(during) >= 40:
                            release.set()
        except BaseException as exc:
            failures.append(exc)
            release.set()

    readers = [threading.Thread(target=reader, args=(i,), daemon=True)
               for i in range(2)]
    try:
        for t in readers:
            t.start()
        with connect(addr) as writer:
            report = writer.apply_updates(changes)
        assert report.epoch == 1
        for t in readers:
            t.join(timeout=30.0)
            assert not t.is_alive()
        assert not failures, failures[0]
        assert min(during) >= 40
        assert len(apply_threads) == 1
        assert apply_threads[0].startswith("oracle-handler")
    finally:
        release.set()
        server.close()


# ----------------------------------------------------------------------
# (d) the wire golden
# ----------------------------------------------------------------------
GOLDEN_QUERY = ("28000000" "02" "000000" "0500000000000000"
                "0000000000000000"
                "0100000000000000" "0200000000000000")
GOLDEN_RESULT = ("20000000" "03" "000000" "0500000000000000"
                 "0300000000000000" "000000000000f83f")
GOLDEN_ERROR = ("57000000" "0d" "000000" "0500000000000000"
                "0000000000000000"
                + b'{"etype":"QueryError","message":"node id out of '
                  b'range [0, 16)"}'.hex())


def test_wire_golden():
    pairs = np.array([[1, 2]], dtype=np.int64)
    assert encode_frame(QUERY, 5, 0, pairs.tobytes()).hex() == GOLDEN_QUERY
    assert encode_frame(RESULT, 5, 3,
                        np.array([1.5]).tobytes()).hex() == GOLDEN_RESULT
    assert encode_error(5, QueryError("node id out of range [0, 16)")
                        ).hex() == GOLDEN_ERROR
    # and back, through the one reassembler, split at an awkward place
    stream = bytes.fromhex(GOLDEN_QUERY + GOLDEN_RESULT + GOLDEN_ERROR)
    reader, frames = FrameReader(1 << 20), []
    for chunk in (stream[:30], stream[30:31], stream[31:]):
        reader.feed(chunk)
        while (frame := reader.next_frame()) is not None:
            frames.append(frame)
    assert reader.want() == RECV_BYTES  # nothing half-read
    assert frames == [
        (QUERY, 5, 0, pairs.tobytes()),
        (RESULT, 5, 3, struct.pack("<d", 1.5)),
        (ERROR, 5, 0, {"etype": "QueryError",
                       "message": "node id out of range [0, 16)"})]
    assert PUSH_RID == 2**64 - 1 and HEAD_SIZE == 24


def test_server_speaks_the_golden_layout(graph):
    built = build_sketches(graph, scheme="tz", seed=7, k=2)
    server, _ = _serve(built)
    try:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(bytes.fromhex(GOLDEN_QUERY))
            want = encode_frame(RESULT, 5, 0,
                                struct.pack("<d", built.query(1, 2)))
            data = b""
            while len(data) < 4 or not data.endswith(want):
                chunk = sock.recv(4096)
                assert chunk, data
                data += chunk
    finally:
        server.close()


# ----------------------------------------------------------------------
# (e) no json and no array-tree codec on the query path
# ----------------------------------------------------------------------
def test_query_path_uses_neither_json_nor_the_tree_codec(graph,
                                                         monkeypatch):
    built = build_sketches(graph, scheme="tz", seed=7, k=2)
    pairs = sample_query_pairs(graph.n, 90, seed=4)
    want = np.asarray([built.query(int(u), int(v)) for u, v in pairs])
    server, addr = _serve(built)
    try:
        with connect(addr) as client:
            def forbidden(*args, **kwargs):
                raise AssertionError("codec call on the query path")

            for target in ("json.dumps", "json.loads",
                           "json.JSONEncoder.encode",
                           "json.JSONDecoder.decode",
                           "repro.service.buffers.tree_to_bytes",
                           "repro.service.buffers.tree_from_bytes"):
                monkeypatch.setattr(target, forbidden)
            with pytest.raises(AssertionError):
                json.dumps({})
            u, v = pairs[0].tolist()
            assert client.dist(u, v) == want[0]
            assert client.dist_many(pairs).tolist() == want.tolist()
            got = list(client.dist_stream([pairs[:30], pairs[30:60],
                                           pairs[60:]]))
            assert np.concatenate(got).tolist() == want.tolist()
            monkeypatch.undo()
            assert client.stats()["phases"]["batches"] == 5
    finally:
        server.close()


# ----------------------------------------------------------------------
# the advertised frame cap
# ----------------------------------------------------------------------
def test_oversized_request_is_a_typed_error_not_a_dead_session(
        graph, monkeypatch):
    cap = 4096
    monkeypatch.setattr("repro.service.server.MAX_FRAME_BYTES", cap)
    built = build_sketches(graph, scheme="tz", seed=7, k=2)
    server, addr = _serve(built)
    try:
        with connect(addr) as client:
            fits = sample_query_pairs(graph.n, (cap - HEAD_SIZE) // 16,
                                      seed=1)
            want = client.dist_many(fits)
            before = client.stats()["phases"]["batches"]
            too_big = np.concatenate([fits, fits[:1]])
            with pytest.raises(ConfigError, match="frame cap"):
                client.dist_many(too_big)
            with pytest.raises(ConfigError, match="frame cap"):
                list(client.dist_stream([fits, too_big]))
            # nothing was sent for the refused batches, and the session
            # is as usable as before
            assert client.dist_many(fits).tolist() == want.tolist()
            assert client.stats()["phases"]["batches"] == before + 2
        # the server holds the line itself: a raw frame past the cap
        # drops that connection only
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(struct.pack("<IB3xQq", cap + 16, QUERY, 1, 0)
                         + b"\0" * (cap - 8))
            data = b""
            while chunk := sock.recv(4096):
                data += chunk
            assert len(data) == struct.unpack_from("<I", data)[0]  # hello
        with connect(addr) as again:
            assert again.dist_many(fits).tolist() == want.tolist()
    finally:
        server.close()
