"""The lone pair — the paper's own query — on its scalar path.

``dist(u, v)`` builds no array anywhere: the tcp client packs the
one-pair ``query`` body with :mod:`struct`, the server answers a 16-byte
body through the engine's one-pair entry (``dist_one_pinned``) and packs
the whole ``result`` frame in one go, and the engine probes and fills
its result cache one slot at a time.  None of that may change a byte or
an answer, so this file checks that

* the frames are the array codec's, byte for byte, both ways, and an
  array-encoded one-pair frame is still answered;
* the client takes its reply however the stream cuts it — split across
  segments, glued behind a pushed ``epoch`` frame — re-raises an
  ``error`` reply and keeps serving, and dies on a reply nobody asked
  for;
* ``dist(u, v)`` is ``dist_many([(u, v)])[0]`` bit for bit on every
  transport, cache on and off, ``QueryError`` class and message
  included;
* ids are parsed by one rule whichever path takes them: a non-integer
  is a ``ConfigError``, an integer outside ``[0, n)`` (int64 or not) the
  usual ``QueryError``;
* the scalar cache slot and accounting are the array ones, so ``dist``
  and ``dist_many`` share entries;
* a lone pair books one batch of answer seconds, and no numpy call runs
  between the caller and the store.
"""

from __future__ import annotations

import socket
import struct
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro import build_sketches
from repro.errors import ConfigError, QueryError
from repro.graphs import Graph, assign_uniform_weights, erdos_renyi
from repro.service import (OracleServer, QueryEngine, UpdateableIndex,
                           build_index, connect, sample_query_pairs,
                           sample_weight_changes)
from repro.service.engine import _ResultCache
from repro.service.protocol import (CLOSE, EPOCH, HEAD, HELLO,
                                    PROTOCOL_VERSION, PUSH_RID, QUERY,
                                    RESULT, FrameReader, encode_error,
                                    encode_frame)

SCHEME_PARAMS = {
    "tz": {"k": 2},
    "stretch3": {"eps": 0.4},
    "cdg": {"eps": 0.4, "k": 2},
    "graceful": {},
}

#: where a session can be opened: in process and over tcp, each with the
#: result cache off and on
SESSIONS = ("inproc-cache0", "inproc-cache", "tcp-cache0", "tcp-cache")


@pytest.fixture(scope="module")
def graph():
    return assign_uniform_weights(erdos_renyi(24, seed=11), seed=12)


@pytest.fixture(scope="module")
def stores(graph):
    return {scheme: build_index(build_sketches(
        graph, scheme=scheme, seed=7, **params).sketches)
        for scheme, params in SCHEME_PARAMS.items()}


def _disconnected_store():
    """Components {0, 1} and {2, …, 5}: a cross pair is unresolved."""
    from repro.tz import build_tz_sketches_centralized

    g = Graph(6, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 4, 2.0),
                  (4, 5, 1.0)])
    sketches, _ = build_tz_sketches_centralized(g, k=2, seed=1)
    return build_index(sketches)


class _Session:
    """One session of a :data:`SESSIONS` kind over ``source``, with the
    tcp server it talks to (closed together)."""

    def __init__(self, kind: str, source, cache_size: int = 64):
        where, cache = kind.split("-")
        size = 0 if cache == "cache0" else cache_size
        self.server = None
        if where == "inproc":
            self.client = connect(f"inproc://cache={size}", source)
        else:
            self.server = OracleServer(source, cache_size=size)
            host, port = self.server.serve("127.0.0.1:0", block=False)
            self.client = connect(f"tcp://{host}:{port}")

    def __enter__(self):
        return self.client

    def __exit__(self, *exc):
        self.client.close()
        if self.server is not None:
            self.server.close()


def _outcome(call):
    """A call's float bits, or its error's class and message."""
    try:
        return struct.pack("<d", float(call()))
    except (ConfigError, QueryError) as exc:
        return type(exc), str(exc)


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    data = b""
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        assert chunk, data
        data += chunk
    return data


def _read_hello(sock: socket.socket) -> dict:
    (length,) = struct.unpack("<I", _recv_exact(sock, 4))
    reader = FrameReader(1 << 20)
    reader.feed(struct.pack("<I", length) + _recv_exact(sock, length - 4))
    kind, rid, _, body = reader.next_frame()
    assert (kind, rid) == (HELLO, PUSH_RID)
    return body


# ----------------------------------------------------------------------
# the wire: the array codec's bytes, both ways
# ----------------------------------------------------------------------
def test_a_tcp_dist_sends_the_array_codec_frame():
    """A stand-in server records what ``dist`` puts on the wire and
    answers with array-encoded results; the client reads them back with
    their epoch."""
    n, pairs = 50, [(0, 1), (7, 3), (49, 0), (12, 12)]
    listener = socket.create_server(("127.0.0.1", 0))
    sent: list[bytes] = []

    def stand_in():
        conn, _ = listener.accept()
        with conn:
            conn.sendall(encode_frame(HELLO, PUSH_RID, 0, {
                "v": PROTOCOL_VERSION, "n": n, "scheme": "tz", "epoch": 0,
                "shards": 1, "updateable": False, "max_frame": 1 << 20}))
            for i in range(len(pairs)):
                frame = _recv_exact(conn, HEAD.size + 16)
                sent.append(frame)
                rid = HEAD.unpack_from(frame)[2]
                conn.sendall(encode_frame(
                    RESULT, rid, 3 + i,
                    np.array([0.5 + i], "<f8").tobytes()))
            _recv_exact(conn, HEAD.size)  # the session's close frame

    thread = threading.Thread(target=stand_in)
    thread.start()
    try:
        with connect("tcp://%s:%d" % listener.getsockname()[:2]) as client:
            for i, (u, v) in enumerate(pairs):
                assert client.dist(np.int64(u), v) == 0.5 + i
                assert client.last_result_epoch == 3 + i
    finally:
        thread.join(timeout=10.0)
        listener.close()
    assert not thread.is_alive()
    assert sent == [encode_frame(QUERY, rid, 0,
                                 np.array([pair], "<i8").tobytes())
                    for rid, pair in enumerate(pairs)]


@pytest.mark.parametrize("cache_size", [0, 64])
def test_the_server_answers_a_lone_pair_with_the_array_codec_reply(
        graph, stores, cache_size):
    """Raw frames in, raw frames out: a one-pair ``query`` frame built by
    the array codec is answered with exactly the ``result`` frame the
    array codec would build (twice, so a cached answer too), an
    out-of-range pair with the array path's error frame, and a two-pair
    frame still takes the array path."""
    store = stores["tz"]
    server = OracleServer(store, cache_size=cache_size)
    server.serve("127.0.0.1:0", block=False)
    pairs = sample_query_pairs(graph.n, 12, seed=3).tolist()
    try:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            assert _read_hello(sock)["n"] == graph.n
            rid = 40
            for u, v in pairs + pairs:
                sock.sendall(encode_frame(QUERY, rid, 0, np.array(
                    [[u, v]], "<i8").tobytes()))
                want = encode_frame(RESULT, rid, 0, np.array(
                    [store.estimate(u, v)], "<f8").tobytes())
                assert _recv_exact(sock, len(want)) == want
                rid += 1
            sock.sendall(encode_frame(QUERY, rid, 0, np.array(
                [[0, graph.n]], "<i8").tobytes()))
            want = encode_error(rid, QueryError(
                f"node id out of range [0, {graph.n})"))
            assert _recv_exact(sock, len(want)) == want
            two = np.array(pairs[:2], "<i8")
            sock.sendall(encode_frame(QUERY, rid + 1, 0, two.tobytes()))
            want = encode_frame(RESULT, rid + 1, 0, store.estimate_many(
                two[:, 0], two[:, 1]).astype("<f8").tobytes())
            assert _recv_exact(sock, len(want)) == want
    finally:
        server.close()


# ----------------------------------------------------------------------
# the lone reply, however the stream cuts it
# ----------------------------------------------------------------------
def _result(rid: int, epoch: int, answer: float) -> bytes:
    return encode_frame(RESULT, rid, epoch, np.array([answer],
                                                     "<f8").tobytes())


@contextmanager
def _scripted(*steps):
    """A tcp session to a stand-in server that greets (n = 50, epoch
    0), then answers its k-th request with the k-th step's segments —
    ``step(rid)`` returns them — each written by its own ``send`` with
    a pause between, until the session sends ``close`` or goes away."""
    listener = socket.create_server(("127.0.0.1", 0))
    script = list(steps)

    def stand_in():
        conn, _ = listener.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with conn:
            conn.sendall(encode_frame(HELLO, PUSH_RID, 0, {
                "v": PROTOCOL_VERSION, "n": 50, "scheme": "tz", "epoch": 0,
                "shards": 1, "updateable": False, "max_frame": 1 << 20}))
            while True:
                head = conn.recv(HEAD.size, socket.MSG_WAITALL)
                if len(head) < HEAD.size:
                    return  # the session went away
                length, kind, rid, _ = HEAD.unpack(head)
                _recv_exact(conn, length - HEAD.size)
                if kind == CLOSE:
                    return
                for i, segment in enumerate(script.pop(0)(rid)):
                    if i:
                        time.sleep(0.05)  # a segment of its own
                    conn.sendall(segment)

    thread = threading.Thread(target=stand_in)
    thread.start()
    try:
        with connect("tcp://%s:%d" % listener.getsockname()[:2]) as client:
            yield client
    finally:
        thread.join(timeout=10.0)
        listener.close()
    assert not thread.is_alive()
    assert not script, f"{len(script)} steps left unused"


def test_a_result_split_across_two_sends_is_reassembled():
    def split(rid):
        frame = _result(rid, 2, 0.75)
        return [frame[:HEAD.size + 3], frame[HEAD.size + 3:]]

    def heads_apart(rid):
        frame = _result(rid, 2, 1.25)
        return [frame[:10], frame[10:]]

    with _scripted(split, heads_apart) as client:
        assert client.dist(0, 1) == 0.75
        assert client.dist(1, 0) == 1.25
        assert client.last_result_epoch == client.epoch == 2


def test_a_result_glued_behind_a_pushed_epoch_frame():
    """The push and the reply arrive in one segment: the answer is the
    reply's, its pin the epoch it names, and the session clock folds
    the pushed one."""
    def glued(rid):
        return [encode_frame(EPOCH, PUSH_RID, 7) + _result(rid, 6, 0.5)]

    with _scripted(glued, lambda rid: [_result(rid, 7, 0.125)]) as client:
        assert client.dist(3, 4) == 0.5
        assert client.last_result_epoch == 6
        assert client.epoch == 7
        assert client.dist(4, 3) == 0.125
        assert client.last_result_epoch == client.epoch == 7


def test_an_error_reply_raises_and_the_session_keeps_serving():
    def refused(rid):
        return [encode_error(rid, QueryError("no path between 2 and 9"))]

    with _scripted(refused, lambda rid: [_result(rid, 0, 4.0)]) as client:
        with pytest.raises(QueryError, match="no path between 2 and 9"):
            client.dist(2, 9)
        assert client.dist(2, 8) == 4.0


def test_a_result_for_a_request_not_in_flight_kills_the_session():
    with _scripted(lambda rid: [_result(rid + 100, 0, 1.0)]) as client:
        with pytest.raises(ConnectionError, match="not in flight"):
            client.dist(0, 1)
        for call in (lambda: client.dist(0, 1),
                     lambda: client.dist_many([(0, 1), (1, 0)])):
            with pytest.raises(ConnectionError, match="session is dead"):
                call()


# ----------------------------------------------------------------------
# dist is the batch of one, on every session
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", sorted(SCHEME_PARAMS))
@pytest.mark.parametrize("kind", SESSIONS)
def test_dist_is_dist_many_of_one_pair(graph, stores, scheme, kind):
    """Every ordered pair, ``dist`` first on even rows and ``dist_many``
    first on odd ones (so with a cache each side is hit after the other
    filled it): the same bits, and the store's own."""
    store = stores[scheme]
    with _Session(kind, store, cache_size=4 * graph.n) as client:
        for u in range(graph.n):
            for v in range(graph.n):
                calls = [lambda: client.dist(u, v),
                         lambda: client.dist_many([(u, v)])[0]]
                if (u + v) % 2:
                    calls.reverse()
                got = [_outcome(call) for call in calls]
                want = _outcome(lambda: store.estimate_many(
                    np.array([u]), np.array([v]))[0])
                assert got == [want, want], (u, v)


@pytest.mark.parametrize("kind", SESSIONS)
def test_unresolved_pairs_raise_alike(kind):
    store = _disconnected_store()
    errors = 0
    with _Session(kind, store) as client:
        for u in range(store.n):
            for v in range(store.n):
                one = _outcome(lambda: client.dist(u, v))
                assert one == _outcome(
                    lambda: client.dist_many([(u, v)])[0]), (u, v)
                assert one == _outcome(lambda: store.estimate(u, v))
                errors += isinstance(one, tuple)
        # the session survives its errors
        assert client.dist(0, 1) == store.estimate(0, 1)
    assert errors


#: (u, v) → the error class both dist and dist_many raise
BAD_IDS = [(-1, 0, QueryError), (0, 24, QueryError),
           (2**63, 0, QueryError), (0, 2**64, QueryError),
           (-2**63 - 1, 0, QueryError), (np.int64(24), 1, QueryError),
           (np.uint64(2**63), 1, QueryError),
           (1.5, 2, ConfigError), (0, np.float64(3.0), ConfigError),
           ("1", 2, ConfigError)]


@pytest.mark.parametrize("kind", SESSIONS)
def test_bad_ids_raise_alike(graph, stores, kind):
    store = stores["tz"]
    with _Session(kind, store) as client:
        seen = set()
        for u, v, cls in BAD_IDS:
            one = _outcome(lambda: client.dist(u, v))
            assert one[0] is cls, (u, v, one)
            assert _outcome(lambda: client.dist_many([(u, v)])[0]) == one
            assert _outcome(lambda: store.estimate(u, v)) == one
            seen.add(one)
        assert (QueryError, f"node id out of range [0, {graph.n})") in seen
        assert (ConfigError, "node ids must be integers, got 1.5") in seen
        assert client.dist(3, 4) == store.estimate(3, 4)


@pytest.mark.parametrize("kind", SESSIONS)
def test_a_batch_is_never_truncated_to_integers(graph, stores, kind):
    """A float id used to be cast to its integer part and answered."""
    store = stores["tz"]
    with _Session(kind, store) as client:
        for pairs in ([(1.7, 2)], [(1, 2), (3, 4.0)],
                      np.array([[1.7, 2.0]]), np.array([[1.0, 2.0]])):
            with pytest.raises(ConfigError, match="node ids must be "
                                                  "integers"):
                client.dist_many(pairs)
        for pairs in ([(2**63, 0)], [(0, 1), (2**64, 2)],
                      np.array([[2**63, 0]], dtype=np.uint64)):
            with pytest.raises(QueryError,
                               match=r"out of range \[0, 24\)"):
                client.dist_many(pairs)
        # an int dtype of any width, and Python ints of an object array
        want = store.estimate_many(np.array([1, 5]), np.array([2, 6]))
        for pairs in (np.array([[1, 2], [5, 6]], dtype=np.uint8),
                      np.array([[1, 2], [5, 6]], dtype=np.int32),
                      np.array([[1, 2], [5, 6]], dtype=object),
                      [(np.int16(1), 2), (5, np.uint64(6))]):
            assert client.dist_many(pairs).tolist() == want.tolist()
        for empty in ([], [[]], np.empty((0, 2)), np.empty(0, dtype=object)):
            assert client.dist_many(empty).shape == (0,)


def test_query_many_refuses_float_ids(graph):
    built = build_sketches(graph, scheme="tz", seed=7, k=2)
    with pytest.raises(ConfigError, match="integers"):
        built.query_many([(1.7, 2)])
    with pytest.raises(QueryError, match="out of range"):
        built.query_many([(2**63, 2)])


# ----------------------------------------------------------------------
# the scalar cache is the array cache
# ----------------------------------------------------------------------
@pytest.mark.parametrize("capacity", [1, 3, 1000, 65536, 100003])
def test_the_scalar_slot_is_the_array_slot(capacity):
    rng = np.random.default_rng(capacity)
    keys = np.concatenate([rng.integers(0, 2**62, size=500),
                           np.arange(50), [2**62, 2**63 - 1]])
    cache = _ResultCache(capacity)
    assert [cache.slot_one(k) for k in keys.tolist()] == \
        cache.slot_of(keys).tolist()


def test_the_scalar_insert_is_the_array_insert():
    """One key at a time, through either form, from the same state: the
    same evictions, entries and table, step by step."""
    rng = np.random.default_rng(5)
    scalar, array = _ResultCache(11), _ResultCache(11)
    for key in rng.integers(0, 40, size=400).tolist():
        val = float(key) / 7.0
        hit = scalar.keys.item(scalar.slot_one(key)) == key
        slots = array.slot_of(np.array([key]))
        _, miss = array.probe(np.array([key]), slots)
        assert hit == (miss.size == 0)
        assert scalar.insert_one(key, scalar.slot_one(key), val) == \
            array.insert(np.array([key]), slots, np.array([val]))
        assert scalar.entries == array.entries
        assert scalar.keys.tolist() == array.keys.tolist()
        assert scalar.vals.tolist() == array.vals.tolist()


def test_dist_and_dist_many_share_the_cache(graph, stores):
    """Interleaved lone pairs and batches on one engine account exactly
    like a twin fed every pair as an array, and leave the same table."""
    store = stores["tz"]
    rng = np.random.default_rng(9)
    universe = sample_query_pairs(graph.n, 40, seed=2)
    with QueryEngine(store, cache_size=17) as mixed, \
            QueryEngine(store, cache_size=17) as arrays:
        for step in range(300):
            if step % 3:
                u, v = universe[rng.integers(len(universe))].tolist()
                got = mixed.dist(u, v)
                assert got == arrays.dist_many(np.array([[u, v]]))[0]
            else:
                batch = universe[rng.integers(len(universe), size=5)]
                assert mixed.dist_many(batch).tolist() == \
                    arrays.dist_many(batch.copy()).tolist()
            assert mixed.cache_counters() == arrays.cache_counters()
        counters = mixed.cache_counters()
        assert counters["hits"] and counters["evictions"]
        assert mixed._cache.keys.tolist() == arrays._cache.keys.tolist()


def test_threads_sharing_one_cache_lose_no_update(graph, stores):
    """More threads than cores, lone pairs and batches mixed, on a cache
    smaller than the pairs: every answer right, every probe counted, and
    ``entries`` still the number of occupied slots."""
    store = stores["tz"]
    universe = sample_query_pairs(graph.n, 64, seed=6)
    want = store.estimate_many(universe[:, 0], universe[:, 1])
    failures: list = []

    def hammer(seed: int, engine: QueryEngine) -> None:
        rng = np.random.default_rng(seed)
        try:
            for _ in range(400):
                rows = rng.integers(len(universe), size=3)
                for row in rows.tolist():
                    u, v = universe[row].tolist()
                    assert engine.dist(u, v) == want[row]
                assert engine.dist_many(universe[rows]).tolist() == \
                    want[rows].tolist()
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with QueryEngine(store, cache_size=3) as engine:
            threads = [threading.Thread(target=hammer, args=(i, engine))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
            counters = engine.cache_counters()
            assert counters["hits"] + counters["misses"] == 6 * 400 * 6
            assert counters["entries"] == int(
                np.count_nonzero(engine._cache.keys >= 0))
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[0]


@pytest.mark.parametrize("kind", ["inproc-cache", "tcp-cache"])
def test_a_cached_lone_pair_never_outlives_its_epoch(graph, kind):
    """After a hot swap a lone pair is the new epoch's answer, and says
    so."""
    changes = sample_weight_changes(graph, 3, seed=44, low=0.2, high=0.6)
    live = UpdateableIndex(graph.copy(), scheme="tz", seed=5, k=2)
    every = [(u, v) for u in range(graph.n) for v in range(graph.n)]
    with _Session(kind, live, cache_size=65536) as client:
        old = [client.dist(u, v) for u, v in every]
        assert client.stats()["cache"]["entries"] > len(every) // 2
        assert client.apply_updates(changes).epoch == 1
        new = [client.dist(u, v) for u, v in every]
        assert client.last_result_epoch == 1
        assert new == [live.index.estimate(u, v) for u, v in every]
        assert new != old


# ----------------------------------------------------------------------
# telemetry, and no numpy on the way
# ----------------------------------------------------------------------
def test_a_lone_pair_books_one_batch_of_answer_seconds(graph, stores):
    with QueryEngine(stores["tz"], cache_size=8) as engine:
        engine.dist(0, 1)
        phases = engine.phase_timings()
        assert phases["batches"] == 1
        assert phases["plan_seconds"] == phases["finish_seconds"] == 0.0
        assert phases["shard_answer_seconds"] == phases["kernel_seconds"] > 0
        engine.dist(0, 1)  # a hit runs no query
        engine.dist_many([(0, 1)])
        assert engine.phase_timings()["batches"] == 1
        assert engine.cache_counters()["hits"] == 2
    with QueryEngine(_disconnected_store(), cache_size=0) as engine:
        with pytest.raises(QueryError):
            engine.dist(0, 5)
        assert engine.phase_timings()["batches"] == 1


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} on the lone-pair path")


@pytest.mark.parametrize("cache_size", [0, 64])
def test_a_lone_pair_never_calls_numpy(graph, stores, monkeypatch,
                                       cache_size):
    """With ``np`` unusable in every serving module, a tcp ``dist`` to an
    in-process server still answers, hit or miss."""
    store = stores["tz"]
    server = OracleServer(store, cache_size=cache_size)
    host, port = server.serve("127.0.0.1:0", block=False)
    pairs = sample_query_pairs(graph.n, 20, seed=8).tolist()
    want = [store.estimate(u, v) for u, v in pairs]
    try:
        with connect(f"tcp://{host}:{port}") as client, \
                connect(f"inproc://cache={cache_size}", store) as local:
            for module in ("client", "server", "engine", "index",
                           "protocol", "session"):
                monkeypatch.setattr(f"repro.service.{module}.np",
                                    _NoNumpy())
            for _ in range(2):
                assert [client.dist(u, v) for u, v in pairs] == want
                assert [local.dist(u, v) for u, v in pairs] == want
            with pytest.raises(QueryError):
                client.dist(0, graph.n)
            monkeypatch.undo()
            assert client.dist_many(pairs).tolist() == want
    finally:
        server.close()
