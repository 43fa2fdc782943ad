"""Where a lone pair's tcp round trip goes: the client's Python, the
server's Python, and the bare socket floor under both.

    PYTHONPATH=src python benchmarks/tcp_lone_pair.py INDEX.rpix

prints four numbers, µs per lone pair, each the minimum over
``--repeats`` runs of ``--pairs`` calls:

* ``client`` — ``OracleClient.dist(u, v)`` over a tcp session whose
  socket is replaced, after the handshake, by a stand-in that takes
  every ``send`` whole and answers every ``recv`` with the 32-byte
  ``result`` frame of the request id just sent: encode, post, receive,
  decode and the session clock, no kernel;
* ``server`` — one ``query`` frame through an ``OracleServer``'s
  loop-thread path (``recv`` → reassembly → dispatch → the engine's
  one-pair entry → reply → ``send``) on a stand-in socket, the result
  cache off: everything the loop does per request but ``select``;
* ``store`` — the served store's scalar query, ``_estimate_checked``,
  the part of ``server`` that is the paper's;
* ``floor`` — a bare 40-byte / 32-byte ``send`` / ``recv`` ping-pong
  over loopback tcp between two processes through :mod:`selectors` on
  one core, what no Python of ours is in.

The process pins itself (and the ping-pong child) to one CPU, as
``bench/run.py --workload tcp-single`` pins client and server.
"""

from __future__ import annotations

import argparse
import os
import selectors
import socket
import threading
import time

from repro.oracle.serialization import load_index_binary
from repro.service import OracleServer, connect, sample_query_pairs
from repro.service.protocol import (HEAD, HELLO, ONE_PAIR, ONE_RESULT,
                                    PROTOCOL_VERSION, PUSH_RID, QUERY,
                                    RESULT, encode_frame)
from repro.service.server import _Connection


def _best(repeats: int, count: int, run) -> float:
    """µs per call: the fastest of ``repeats`` timed runs of ``run()``,
    which makes ``count`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best / count * 1e6


class _EchoResult:
    """A client socket: every ``send`` is taken whole, every ``recv``
    is the ``result`` frame answering the last request id sent."""

    def __init__(self):
        self.rid = 0

    def send(self, data, flags=0) -> int:
        self.rid = HEAD.unpack_from(data)[2]
        return len(data)

    def recv(self, size: int) -> bytes:
        return ONE_RESULT.pack(ONE_RESULT.size, RESULT, self.rid, 0, 1.5)

    def close(self) -> None:
        pass


def client_us(n: int, pairs: list, repeats: int) -> float:
    listener = socket.create_server(("127.0.0.1", 0))

    def greet():
        conn, _ = listener.accept()
        with conn:
            conn.sendall(encode_frame(HELLO, PUSH_RID, 0, {
                "v": PROTOCOL_VERSION, "n": n, "scheme": "tz", "epoch": 0,
                "shards": 1, "updateable": False, "max_frame": 1 << 20}))
            conn.recv(1 << 16)  # until the session goes

    thread = threading.Thread(target=greet)
    thread.start()
    session = connect("tcp://%s:%d" % listener.getsockname()[:2])
    transport, real = session._transport, session._transport._sock
    transport._sock = _EchoResult()

    def run():
        dist = session.dist
        for u, v in pairs:
            dist(u, v)

    try:
        return _best(repeats, len(pairs), run)
    finally:
        transport._sock = real
        session.close()
        thread.join()
        listener.close()


class _Requests:
    """A server-side socket: every ``recv`` is the next ``query``
    frame of a fixed list, every ``send`` is taken whole."""

    def __init__(self, frames: list):
        self.frames, self.i = frames, 0

    def recv(self, size: int) -> bytes:
        frame = self.frames[self.i]
        self.i += 1
        return frame

    def send(self, data) -> int:
        return len(data)


def server_us(store, pairs: list, repeats: int) -> float:
    frames = [encode_frame(QUERY, rid, 0, ONE_PAIR.pack(u, v))
              for rid, (u, v) in enumerate(pairs)]
    with OracleServer(store, cache_size=0) as server:
        conn = _Connection(_Requests(frames))
        conn.events = selectors.EVENT_READ  # as the loop registered it

        def run():
            conn.sock.i = 0
            for _ in frames:
                server._read_ready(conn)

        return _best(repeats, len(frames), run)


def store_us(store, pairs: list, repeats: int) -> float:
    def run():
        scan = store._estimate_checked
        for u, v in pairs:
            scan(u, v)

    return _best(repeats, len(pairs), run)


def floor_us(count: int, repeats: int) -> float:
    """A bare request / reply ping-pong over loopback tcp through
    selectors: 40 bytes out, 32 back, the peer a forked child on the
    same CPU."""
    listener = socket.create_server(("127.0.0.1", 0))
    parent = socket.create_connection(listener.getsockname()[:2])
    child, _ = listener.accept()
    listener.close()
    for sock in (parent, child):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    pid = os.fork()
    if pid == 0:  # the echo side
        parent.close()
        sel = selectors.DefaultSelector()
        sel.register(child, selectors.EVENT_READ)
        reply = bytes(ONE_RESULT.size)
        while True:
            sel.select()
            if not child.recv(1 << 16):
                os._exit(0)
            child.send(reply)
    child.close()
    sel = selectors.DefaultSelector()
    sel.register(parent, selectors.EVENT_READ)
    request = bytes(HEAD.size + ONE_PAIR.size)

    def run():
        for _ in range(count):
            parent.send(request)
            sel.select()
            parent.recv(1 << 16)

    try:
        return _best(repeats, count, run)
    finally:
        parent.close()
        os.waitpid(pid, 0)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("index", help="an RPIX file (repro build -o)")
    ap.add_argument("--pairs", type=int, default=20000)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    store = load_index_binary(args.index)
    pairs = sample_query_pairs(store.n, args.pairs, seed=args.seed).tolist()
    for name, us in (("client", client_us(store.n, pairs, args.repeats)),
                     ("server", server_us(store, pairs, args.repeats)),
                     ("store", store_us(store, pairs, args.repeats)),
                     ("floor", floor_us(args.pairs, args.repeats))):
        print(f"{name:6s} {us:6.2f} us per lone pair")


if __name__ == "__main__":
    main()
