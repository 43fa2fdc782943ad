""":class:`OracleServer` — one index epoch (optionally a live
:class:`~repro.service.updates.UpdateableIndex`) hosted behind every
transport: :meth:`OracleServer.client` hands out in-process sessions,
:meth:`OracleServer.serve` listens on TCP and speaks
:mod:`repro.service.protocol`.

The listener is one :mod:`selectors` event loop on one IO thread plus a
handler thread pool, and *where a request runs* is read off its frame
head: a ``query`` / ``stats`` frame of at most
:data:`INLINE_FRAME_BYTES` is answered on the loop thread and its reply
written in the same loop turn — below that size the request is cheaper
than a thread hop, and handlers queueing for the GIL only made the loop
wait for it too.  Larger frames (whose kernels release the GIL long
enough to overlap the loop's reads) and every ``apply`` /
``fetch_index`` (a repair must never stall the readers) go to the pool.
A lone pair's 16-byte ``query`` (the paper's query) is answered by the
loop itself, from the engine's one-pair entry; :meth:`OracleServer.
_run_handler` computes every other reply.  Replies carry the request
id, so they may leave out of order.
"""

from __future__ import annotations

import selectors
import socket
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.errors import ConfigError
from repro.service.engine import QueryEngine
from repro.service.index import IndexStore, build_index, scheme_name_of_index
from repro.service.protocol import (ANSWERS, APPLY, CLOSE, EPOCH, FETCH_INDEX,
                                    HELLO, INDEX_BLOB, KIND_NAMES,
                                    MAX_FRAME_BYTES, ONE_PAIR, ONE_RESULT,
                                    PAIRS, PROTOCOL_VERSION, PUSH_RID, QUERY,
                                    REPORT, RESULT, STATS, STATS_REPLY,
                                    FrameError, FrameReader, encode_error,
                                    encode_frame, kind_name)
from repro.service.session import UpdateReport
from repro.tz.sketch import ColumnLabels

if TYPE_CHECKING:
    from repro.service.client import OracleClient

#: a ``query`` / ``stats`` frame whose body is at most this long
#: (16 384 pairs) is answered on the IO-loop thread; anything longer
#: goes to the handler pool.  Measured, not tunable: the crossover
#: table is in ``docs/serving.md`` §5b.
INLINE_FRAME_BYTES = 1 << 18

_INLINE_KINDS = frozenset((QUERY, STATS))

#: per-connection write-buffer high-water mark: above this the event
#: loop stops reading (and dispatching) the connection until it drains
_OUTBUF_HIGH = 1 << 20


def _close_quietly(resource) -> None:
    if resource is not None:
        try:
            resource.close()
        except OSError:  # pragma: no cover - already closed
            pass


class _Connection:
    """One accepted TCP connection and its event-loop state.

    ``outbuf`` / ``inflight`` / ``closed`` are shared between the IO
    loop and the handler threads and guarded by ``lock``; ``reader`` and
    ``events`` (the selector interest currently registered, 0 for none)
    are touched only by the IO loop, which is also the only thread that
    sends."""

    __slots__ = ("sock", "lock", "reader", "outbuf", "inflight", "closed",
                 "events")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.lock = threading.Lock()
        self.reader = FrameReader(MAX_FRAME_BYTES)
        self.outbuf = bytearray()
        self.inflight = 0       # requests in the pool, reply not yet queued
        self.closed = False
        self.events = 0


class OracleServer:
    """Host one index epoch behind a transport.

    :param source: what to serve —

        * a per-node sketch list, a scheme's columns (a
          :class:`~repro.tz.sketch.ColumnLabels`) or a
          :class:`~repro.oracle.api.BuiltSketches`: the index is built
          here with ``num_shards`` shards;
        * a pre-built :class:`~repro.service.index.IndexStore` (e.g.
          loaded from a binary container): served as-is, shard layout
          baked in;
        * an :class:`~repro.service.updates.UpdateableIndex`: serves the
          live epoch and enables :meth:`apply_updates` hot swaps.

    :param num_shards: landmark shard count when building from
        sketches (default 1: a layout parameter of the RPIX container,
        never a unit of work); must match (or be omitted for) a
        pre-built source.
    :param cache_size: result-cache capacity (answers) of the hosted
        engine; ``0`` disables it, ``None`` takes the store's
        ``cache_slots``.

    The same server object backs every transport: :meth:`client` hands
    out in-process sessions (what ``inproc://`` binds to),
    :meth:`serve` adds a TCP listener speaking the frame protocol on a
    :mod:`selectors` event loop.  Use as a context manager or
    :meth:`close` to release the engine's pool, listener,
    connections, and serving threads (close joins them with a bounded
    deadline — no thread outlives the server).
    """

    def __init__(self, source: Any, *,
                 num_shards: Optional[int] = None,
                 cache_size: Optional[int] = None):
        self._listener: Optional[socket.socket] = None
        self._io_thread: Optional[threading.Thread] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._handlers: Optional[ThreadPoolExecutor] = None
        self._handler_count = 0
        self._max_pending = 4   # per-connection in-flight request cap
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._conns: set[_Connection] = set()
        self._conn_lock = threading.Lock()
        #: connections with output queued off the loop thread (handler
        #: replies, epoch pushes); the IO loop picks them up after each
        #: select (deque: append / popleft need no lock)
        self._dirty: deque[_Connection] = deque()
        # UpdateableIndex.apply is not re-entrant: concurrent apply
        # frames (or an apply racing a local one) serialize here
        self._apply_lock = threading.Lock()
        # hot-swap telemetry (guarded by _apply_lock): how many
        # effective applies this server performed and what they cost
        self._swap_count = 0
        self._swap_seconds_total = 0.0
        self._swap_seconds_last = 0.0
        self._closed = False
        self.address: Optional[tuple[str, int]] = None

        # everything that can be wrong with the source is found here,
        # before an engine exists
        index, updateable = self._normalize_source(source, num_shards)
        self.scheme = (updateable.scheme if updateable is not None
                       else scheme_name_of_index(index))
        self.updateable = updateable is not None
        self._engine = QueryEngine(index, updateable=updateable,
                                   cache_size=cache_size)

    @staticmethod
    def _normalize_source(source: Any, num_shards: Optional[int],
                          ) -> tuple[IndexStore, Any]:
        """``(index, updateable-or-None)`` for anything servable.  A
        sketch set is indexed here (``num_shards`` shards, default
        one); a pre-built source keeps its baked layout, which an
        explicit ``num_shards`` must match."""
        # a BuiltSketches or an UpdateableIndex exists only once its
        # module is loaded, so the classes are looked up there: a
        # process serving a container never imports the construction
        # stack just to learn its source is neither
        api = sys.modules.get("repro.oracle.api")
        updates = sys.modules.get("repro.service.updates")
        if num_shards is not None and num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        if api is not None and isinstance(source, api.BuiltSketches):
            source = source.sketches
        if isinstance(source, (list, tuple, ColumnLabels)):
            return build_index(source, num_shards=num_shards or 1), None
        if updates is not None and isinstance(source,
                                              updates.UpdateableIndex):
            index, updateable = source.index, source
        elif hasattr(source, "plan") and hasattr(source, "estimate_many"):
            index, updateable = source, None
        else:
            raise ConfigError(
                f"cannot serve a {type(source).__name__}: want a sketch "
                f"list, BuiltSketches, IndexStore, or UpdateableIndex")
        if num_shards is not None and num_shards != index.num_shards:
            raise ConfigError(
                f"this source bakes its shard layout in "
                f"({index.num_shards} shards); drop num_shards or pass "
                f"{index.num_shards}")
        return index, updateable

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._engine.n

    @property
    def epoch(self) -> int:
        return self._engine.epoch

    @property
    def num_shards(self) -> int:
        return self._engine.index.num_shards

    def client(self, endpoint: str = "inproc://",
               owns_server: bool = False) -> "OracleClient":
        """An in-process :class:`~repro.service.client.OracleClient`
        over this server (no serialization, no socket — the ``inproc``
        data path)."""
        from repro.service.client import OracleClient, _LocalTransport

        return OracleClient(_LocalTransport(self, owns_server=owns_server),
                            endpoint=endpoint)

    def apply_updates(self, changes) -> UpdateReport:
        """Apply an edge-change batch to the hosted
        :class:`~repro.service.updates.UpdateableIndex`, hot-swap the
        epoch (in-flight batches finish on the epoch they started on),
        and push an epoch-bump frame to every connected TCP client.

        :raises ConfigError: when the server hosts a static source.
        """
        with self._apply_lock:
            t0 = time.perf_counter()
            report = self._engine.apply_updates(changes)
            if report.mode != "noop":
                self._swap_count += 1
                self._swap_seconds_last = time.perf_counter() - t0
                self._swap_seconds_total += self._swap_seconds_last
        if report.mode != "noop":
            push = encode_frame(EPOCH, PUSH_RID, report.epoch)
            with self._conn_lock:
                conns = list(self._conns)
            for conn in conns:
                self._enqueue(conn, push)
        return report

    def stats(self) -> dict:
        """A JSON-ready snapshot: size, scheme, epoch, shard count,
        cache counters, cumulative phase timings, and the
        number of live TCP connections."""
        engine = self._engine
        with self._conn_lock:
            connections = len(self._conns)
        return {
            "n": engine.n,
            "scheme": self.scheme,
            "epoch": engine.epoch,
            "updateable": self.updateable,
            "shards": self.num_shards,
            "cache_size": engine.cache_size,
            "cache": engine.cache_counters(),
            "phases": engine.phase_timings(),
            "handlers": self._handler_count,
            "connections": connections,
            "swaps": {"count": self._swap_count,
                      "seconds_total": self._swap_seconds_total,
                      "seconds_last": self._swap_seconds_last},
        }

    # ------------------------------------------------------------------
    # the TCP listener (selectors event loop + handler pool)
    # ------------------------------------------------------------------
    def serve(self, addr: str = "127.0.0.1:0", *, block: bool = True,
              backlog: int = 128,
              handlers: int = 2) -> tuple[str, int]:
        """Listen for frame-protocol clients on ``addr`` (``host:port``;
        port ``0`` picks a free one).

        One :mod:`selectors` event loop owns every socket — accepts,
        frame reassembly, small requests, reply flushing — and the
        requests it does not answer itself (see the module docstring)
        fan out across a pool of ``handlers`` threads, so many
        concurrent sessions multiplex over a fixed thread count instead
        of a thread per connection.

        Returns the bound ``(host, port)``.  With ``block=True`` (the
        daemon mode ``python -m repro serve`` runs) the calling thread
        runs the event loop until :meth:`close`; ``block=False`` runs it
        on a background thread and returns immediately — the in-test
        topology.
        """
        from repro.service.client import parse_listen_addr

        if self._closed:
            raise ConfigError("server is closed")
        if self._listener is not None:
            raise ConfigError(
                f"server is already listening on "
                f"{self.address[0]}:{self.address[1]}")
        host, port = parse_listen_addr(addr)
        if handlers < 1:
            raise ConfigError(f"handlers must be >= 1, got {handlers}")
        listener = socket.create_server((host, port), backlog=backlog)
        listener.setblocking(False)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._handler_count = int(handlers)
        self._max_pending = max(4, 2 * self._handler_count)
        self._handlers = ThreadPoolExecutor(
            max_workers=self._handler_count,
            thread_name_prefix="oracle-handler")
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._selector.register(listener, selectors.EVENT_READ, "accept")
        if block:
            try:
                self._event_loop()
            finally:
                self.close()
        else:
            self._io_thread = threading.Thread(
                target=self._event_loop, daemon=True, name="oracle-io")
            self._io_thread.start()
        return self.address

    def wait(self) -> None:
        """Block until the background event loop exits (daemon use)."""
        if self._io_thread is not None:
            self._io_thread.join()

    def _event_loop(self) -> None:
        """The IO loop: one thread multiplexing the listener, the wake
        pipe, and every connection through the selector."""
        try:
            while not self._closed:
                try:
                    events = self._selector.select(timeout=0.5)
                except OSError:  # selector torn down under us
                    return
                for key, mask in events:
                    tag = key.data
                    if isinstance(tag, _Connection):
                        if mask & selectors.EVENT_WRITE:
                            self._flush(tag)
                        if (mask & selectors.EVENT_READ) and not tag.closed:
                            self._read_ready(tag)
                    elif tag == "wake":
                        self._drain_wake()
                    else:
                        self._accept_ready()
                while self._dirty:  # flagged before the wake we woke to
                    self._flush(self._dirty.popleft())
        finally:
            self._teardown_io()

    def _wake(self) -> None:
        """Nudge the event loop from another thread (handler reply,
        epoch push, close).  A full pipe means a wake is already
        pending — that is exactly the desired state."""
        sock = self._wake_w
        if sock is not None:
            try:
                sock.send(b"\0")
            except OSError:  # full pipe, or the loop is already torn down
                pass

    def _drain_wake(self) -> None:
        sock = self._wake_r
        try:
            while sock is not None and sock.recv(4096):
                pass
        except OSError:  # drained (or torn down)
            pass

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # nobody waiting, or listener closed
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            # hello is written before the connection becomes visible to
            # epoch pushes, so it is always the first frame on the wire
            # (and already carries the current epoch)
            self._send(conn, encode_frame(HELLO, PUSH_RID, 0, {
                "v": PROTOCOL_VERSION, "n": self.n,
                "scheme": self.scheme, "epoch": self.epoch,
                "shards": self.num_shards, "updateable": self.updateable,
                "max_frame": conn.reader.max_frame}))
            if not conn.closed:  # the peer may be gone already
                with self._conn_lock:
                    self._conns.add(conn)
                self._update_interest(conn)

    def _read_ready(self, conn: _Connection) -> None:
        reader = conn.reader
        try:
            while True:
                want = reader.want()
                chunk = conn.sock.recv(want)
                if not chunk:  # EOF: client went away
                    self._drop(conn)
                    return
                reader.feed(chunk)
                if len(chunk) < want:
                    break  # the socket is drained: no probing recv
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._drop(conn)
            return
        self._dispatch(conn)

    def _dispatch(self, conn: _Connection) -> None:
        """Answer or hand off every complete frame buffered on ``conn``
        — here, on the loop thread, for a lone pair and any small
        ``query`` / ``stats``, else on the handler pool — then settle
        the selector interest.  Stops (bytes stay buffered) while the
        connection is backpressured."""
        reader = conn.reader
        try:
            while not (conn.closed or self._paused(conn)):
                frame = reader.next_frame()
                if frame is None:
                    break
                kind, rid, _, body = frame
                if kind == QUERY and len(body) == ONE_PAIR.size:
                    # a lone pair: one struct each way, no numpy call
                    try:
                        answer, epoch = self._engine.dist_one_pinned(
                            *ONE_PAIR.unpack(body))
                        reply = ONE_RESULT.pack(ONE_RESULT.size, RESULT,
                                                rid, epoch, answer)
                    except Exception as exc:
                        reply = encode_error(rid, exc)
                    self._send(conn, reply)
                elif kind == CLOSE:
                    self._drop(conn)
                elif kind in _INLINE_KINDS and len(body) <= INLINE_FRAME_BYTES:
                    self._send(conn, self._run_handler(kind, rid, body))
                else:
                    with conn.lock:
                        conn.inflight += 1
                    self._handlers.submit(self._run_pooled, conn, kind, rid,
                                          body)
        except FrameError:
            self._drop(conn)
        self._update_interest(conn)

    def _run_handler(self, kind: int, rid: int, body: Any) -> bytes:
        """The reply frame for one request other than a lone pair — a
        typed ``error`` frame when handling it raised — echoing ``rid``,
        the client's matching key."""
        try:
            return self._handle(kind, rid, body)
        except Exception as exc:
            return encode_error(rid, exc)

    def _run_pooled(self, conn: _Connection, kind: int, rid: int,
                    body: Any) -> None:
        """Handler-pool entry: compute one reply and queue it for the
        loop thread to send."""
        self._enqueue(conn, self._run_handler(kind, rid, body), finished=1)

    def _paused(self, conn: _Connection) -> bool:
        # no lock: two atomic reads, and a handler that changes either
        # after they were read re-flags the connection
        return (len(conn.outbuf) >= _OUTBUF_HIGH
                or conn.inflight >= self._max_pending)

    def _send(self, conn: _Connection, frame: bytes = b"") -> None:
        """Loop thread only: offer the socket whatever is queued on
        ``conn`` plus ``frame`` right now; what it does not take waits
        in ``outbuf`` for write readiness."""
        with conn.lock:
            out = conn.outbuf
            if conn.closed or not (out or frame):
                return
            try:
                if out:
                    out += frame
                    del out[:conn.sock.send(out)]
                else:  # nothing queued: the frame goes out as it is
                    out += frame[conn.sock.send(frame):]
                return
            except (BlockingIOError, InterruptedError):
                if not out:  # the frame is not queued yet
                    out += frame
                return
            except OSError:
                pass
        self._drop(conn)

    def _flush(self, conn: _Connection) -> None:
        """Write readiness, or output queued off the loop thread."""
        self._send(conn)
        # a drained outbuf can lift backpressure, and the client may be
        # blocked waiting on answers with its whole window already sent
        # — so frames parked in the reader while the connection was
        # paused must resume from here, not only from handler completions
        self._dispatch(conn)

    def _update_interest(self, conn: _Connection) -> None:
        """Recompute the selector interest set from the connection's
        state (IO-loop thread only): read unless backpressured, write
        while output is queued, nothing while fully stalled (a handler
        completion re-flags the connection through the dirty queue)."""
        if conn.closed:
            return
        events = 0 if self._paused(conn) else selectors.EVENT_READ
        if conn.outbuf:
            events |= selectors.EVENT_WRITE
        if events == conn.events:
            return
        try:
            if events and conn.events:
                self._selector.modify(conn.sock, events, conn)
            elif events:
                self._selector.register(conn.sock, events, conn)
            else:
                self._selector.unregister(conn.sock)
            conn.events = events
        except (KeyError, ValueError, OSError):
            self._drop(conn)

    def _enqueue(self, conn: _Connection, frame: bytes,
                 finished: int = 0) -> None:
        """Thread-safe reply/push entry point: queue the frame (the
        reply of ``finished`` pooled requests) and nudge the event loop
        to flush it."""
        with conn.lock:
            conn.inflight -= finished
            if conn.closed:
                return  # reply to a vanished client: drop silently
            conn.outbuf += frame
        self._dirty.append(conn)
        self._wake()

    def _drop(self, conn: _Connection) -> None:
        """Tear one connection down (IO-loop thread only)."""
        with conn.lock:
            conn.closed = True
            conn.outbuf.clear()
        if conn.events:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):  # pragma: no cover
                pass
            conn.events = 0
        _close_quietly(conn.sock)
        with self._conn_lock:
            self._conns.discard(conn)

    def _teardown_io(self) -> None:
        """Release every IO-loop resource (idempotent; runs in the loop
        thread's ``finally`` and again from :meth:`close` as a backstop
        for a loop that never ran)."""
        with self._conn_lock:
            conns, self._conns = list(self._conns), set()
        for conn in conns:
            with conn.lock:
                conn.closed = True
            _close_quietly(conn.sock)
        for name in ("_listener", "_selector", "_wake_r", "_wake_w"):
            _close_quietly(getattr(self, name))
            setattr(self, name, None)

    def _handle(self, kind: int, rid: int, body: Any) -> bytes:
        if kind == QUERY:  # a lone pair never gets here (see _dispatch)
            answers, epoch = self._engine.dist_many_pinned(
                np.frombuffer(body, dtype=PAIRS).reshape(-1, 2))
            return encode_frame(
                RESULT, rid, epoch,
                answers.astype(ANSWERS, copy=False).tobytes())
        if kind == APPLY:
            from repro.oracle.serialization import change_from_dict

            changes = [change_from_dict(item)
                       for item in body.get("changes", ())]
            return encode_frame(REPORT, rid, 0,
                                self.apply_updates(changes).as_dict())
        if kind == STATS:
            return encode_frame(STATS_REPLY, rid, 0, self.stats())
        if kind == FETCH_INDEX:
            from repro.oracle.serialization import index_binary_bytes

            # snapshot (store, epoch) atomically — a concurrent hot
            # swap must not label the old epoch's bytes with the new
            # epoch number; the old store is immutable, so serializing
            # it outside any lock is safe
            index, epoch = self._engine.index_snapshot()
            return encode_frame(INDEX_BLOB, rid, epoch,
                                index_binary_bytes(index))
        if kind in KIND_NAMES:
            raise ConfigError(
                f"a {kind_name(kind)} frame is not a request")
        raise ConfigError(f"unknown frame kind {kind}")

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop listening, drop every connection, join the serving
        threads (event loop and handler pool, bounded deadline), and
        shut the hosted engine down (idempotent)."""
        self._closed = True
        self._wake()
        thread, self._io_thread = self._io_thread, None
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._teardown_io()
        handlers, self._handlers = self._handlers, None
        if handlers is not None:
            handlers.shutdown(wait=True, cancel_futures=True)
        self._engine.close()

    def __enter__(self) -> "OracleServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = (f"tcp://{self.address[0]}:{self.address[1]}"
                 if self.address else "local")
        return (f"OracleServer({self.scheme or '?'}, n={self.n}, "
                f"epoch={self.epoch}, {where})")
