"""One session-oriented serving API over pluggable transports.

The SarmaDP12 oracle is a distributed system: preprocess once, then
answer ``dist(u, v)`` under heavy traffic.  This module re-centers the
serving surface on two objects and one factory:

* :class:`OracleServer` — hosts one :class:`~repro.service.index.IndexStore`
  epoch (optionally a live :class:`~repro.service.updates.UpdateableIndex`)
  behind a transport listener.  :meth:`OracleServer.client` hands out
  in-process sessions over its :class:`~repro.service.workers.ShardServer`;
  :meth:`OracleServer.serve` listens on TCP with a length-prefixed
  binary frame protocol that reuses the
  :mod:`~repro.service.buffers` array-tree codec for query/result
  payloads.
* :class:`OracleClient` — the session handle every caller holds:
  ``dist`` / ``dist_many`` / ``dist_stream`` / ``apply_updates`` /
  ``stats`` / ``close``, identical across transports.
* :func:`connect` — the single entry point, taking a URL-style endpoint
  spec::

      connect("inproc://", source)          # this process, jobs=1
      connect("inproc://jobs=4", source)    # 4 threads behind the shards
      connect("tcp://host:port")            # a remote OracleServer

  ``source`` is whatever the local transports should serve (a sketch
  list, a :class:`~repro.oracle.api.BuiltSketches`, a pre-built store,
  or an :class:`~repro.service.updates.UpdateableIndex`); a ``tcp://``
  session carries no data — the server owns the index.

One dataflow contract, many executors: the plan / answer / finish
decomposition (and the engine's epoch pinning, caching, and hot-swap
mechanics) is the same code for every transport, so answers are
**bit-identical** across ``inproc`` / ``tcp`` / ``cluster`` — including
:class:`~repro.errors.QueryError` parity on disconnected graphs — and
an :meth:`OracleClient.apply_updates` hot swap propagates to every
connected TCP client without a reconnect (the server pushes an
epoch-bump frame; in-flight batches stay pinned to the epoch that
served them, which every result frame names).

One session core (:mod:`repro.service.session`): a transport supplies
only a ``submit(batch) -> ticket`` / ``collect(ticket) -> (answers,
epoch)`` pair.  ``dist_many`` is ``collect(submit(pairs))``,
``dist_stream`` the shared bounded window over the same pair, and a
:class:`~repro.service.session.SessionClock` keeps the session's epochs
and telemetry.  So on every transport each batch is answered wholly by
the epoch current when it was submitted, and an error surfaces at its
own batch's position in a stream.

Wire protocol (version 2).  A frame is ``u32 frame_len | u32 head_len |
head JSON | body``; the body is :func:`~repro.service.buffers.tree_to_bytes`
output for query/result frames, the raw ``RPIX`` binary index container
for the index-fetch frame, and empty otherwise.  The server greets each
connection with a ``hello`` frame (n, scheme, epoch, shards); ``epoch``
frames are pushed to every connection after a hot swap; errors travel
as typed frames and re-raise client-side as the same
:mod:`repro.errors` class.

Version 2 made the wire **multiplexed**: every request frame carries a
client-assigned ``id`` and every reply echoes it, so a connection may
keep many requests in flight and consume replies out of order.  The
client exploits that in :meth:`OracleClient.dist_stream` — a window of
``pipeline_depth`` batches (≥ 2) stays submitted per connection, so
batch *k+1*'s encode and the wire round-trip overlap batch *k*'s
server-side probes (the local double-buffering, extended over TCP).
The server exploits it too: :meth:`OracleServer.serve` runs
one :mod:`selectors` event loop that multiplexes every connection
(accept, frame reassembly, write flushing) on a single IO thread and
fans decoded requests across a handler thread pool sized to the
engine.  Per-connection **backpressure**: while a connection's write
buffer or in-flight handler count is over its cap, the loop stops
reading (and dispatching) that connection until it drains, so one slow
consumer cannot balloon server memory.  Shard dispatch is re-entrant,
so handlers run their batches concurrently.
"""

from __future__ import annotations

import json
import os
import select
import selectors
import socket
import struct
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

import numpy as np

from repro.errors import ConfigError, QueryError, ReproError
from repro.service.buffers import tree_from_bytes, tree_to_bytes
from repro.service.engine import QueryEngine
from repro.service.index import (IndexStore, build_index, parse_pair_array,
                                 restrict_index_shards, scheme_name_of_index)
from repro.service.session import SessionClock, stream_window
from repro.service.updates import UpdateReport

#: transports :func:`connect` understands
TRANSPORTS = ("inproc", "tcp", "cluster")

#: frame protocol version (carried by the hello frame).  Version 2
#: added request-id multiplexing: request frames carry ``id``, replies
#: echo it, and replies may arrive out of order.
PROTOCOL_VERSION = 2

#: how many batches a tcp ``dist_stream`` keeps in flight per
#: connection (the pipelining window; ≥ 2 hides the wire round-trip)
DEFAULT_PIPELINE_DEPTH = 4

#: options an ``inproc://`` endpoint spec accepts (all integers)
_INPROC_OPTIONS = ("jobs", "shards", "cache")

_FRAME_PREFIX = struct.Struct("<II")

#: frames larger than this are rejected before allocation (a corrupt
#: length prefix must not look like a 4 GB read)
MAX_FRAME_BYTES = 1 << 31

#: per-connection write-buffer high-water mark: above this the event
#: loop stops reading (and dispatching) the connection until it drains
_OUTBUF_HIGH = 1 << 20


# ----------------------------------------------------------------------
# endpoint specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Endpoint:
    """A parsed endpoint spec (see :func:`parse_endpoint`)."""

    transport: str
    host: Optional[str] = None
    port: Optional[int] = None
    options: dict = field(default_factory=dict)

    def describe(self) -> str:
        if self.transport == "tcp":
            return f"tcp://{self.host}:{self.port}"
        if self.transport == "cluster":
            hosts = ",".join(f"{h}:{p}" for h, p in self.options["hosts"])
            return f"cluster://{hosts}"
        opts = ";".join(f"{k}={v}" for k, v in sorted(self.options.items()))
        return f"{self.transport}://{opts}"


def parse_endpoint(spec: str) -> Endpoint:
    """Parse a URL-style endpoint spec.

    Grammar::

        spec    := transport "://" rest
        rest    := host ":" port          (tcp)
                 | addr ("," addr)*       (cluster; addr := host ":" port)
                 | [option (";" option)*] (inproc)
        option  := key "=" integer

    ``inproc`` accepts ``jobs`` (threads behind the shards, default 1) /
    ``shards`` / ``cache``.  Options are validated here, so a typo fails
    at :func:`connect` time, not mid-serve.

    :raises ConfigError: on an unknown transport, malformed address, or
        unknown/malformed option.
    """
    if not isinstance(spec, str) or "://" not in spec:
        raise ConfigError(
            f"endpoint spec must look like 'transport://...', got {spec!r}")
    transport, _, rest = spec.partition("://")
    if transport not in TRANSPORTS:
        raise ConfigError(f"unknown transport {transport!r}; "
                          f"choose from {TRANSPORTS}")
    if transport == "tcp":
        host, sep, port = rest.rpartition(":")
        if not sep or not host or not port.lstrip("-").isdigit():
            raise ConfigError(
                f"tcp endpoint wants tcp://host:port, got {spec!r}")
        port_num = int(port)
        if not (0 <= port_num <= 65535):
            raise ConfigError(f"tcp port out of range in {spec!r}")
        return Endpoint("tcp", host=host, port=port_num)
    if transport == "cluster":
        hosts = []
        for item in rest.rstrip(";").split(","):
            item = item.strip()
            if not item:
                raise ConfigError(
                    f"cluster endpoint wants "
                    f"cluster://host:port,host:port..., got {spec!r}")
            member = parse_endpoint(f"tcp://{item}")
            hosts.append((member.host, member.port))
        if not hosts:
            raise ConfigError(
                f"cluster endpoint names no hosts: {spec!r}")
        return Endpoint("cluster", options={"hosts": tuple(hosts)})
    options: dict = {}
    for item in rest.split(";") if rest else ():
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise ConfigError(
                f"bad endpoint option {item!r} in {spec!r} "
                f"(want key=value)")
        if key not in _INPROC_OPTIONS:
            raise ConfigError(
                f"{transport}:// does not take option {key!r}; "
                f"allowed: {', '.join(_INPROC_OPTIONS)}")
        try:
            options[key] = int(value)
        except ValueError:
            raise ConfigError(
                f"endpoint option {key}={value!r} is not an "
                f"integer") from None
    return Endpoint(transport, options=options)


def _parse_addr(addr: str) -> tuple[str, int]:
    """A listen address is a tcp endpoint without the scheme — same
    validation (including the port range), same failure class."""
    try:
        endpoint = parse_endpoint(f"tcp://{addr}")
    except ConfigError:
        raise ConfigError(
            f"listen address wants 'host:port', got {addr!r}") from None
    return endpoint.host, endpoint.port


# ----------------------------------------------------------------------
# frame plumbing
# ----------------------------------------------------------------------
def _frame_bytes(head: dict, body: bytes = b"") -> bytes:
    head_json = json.dumps(head, separators=(",", ":")).encode("utf-8")
    return (_FRAME_PREFIX.pack(4 + len(head_json) + len(body),
                               len(head_json)) + head_json + body)


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    chunks = []
    remaining = nbytes
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("oracle connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> tuple[dict, bytes]:
    frame_len, head_len = _FRAME_PREFIX.unpack(_recv_exact(sock, 8))
    if not (4 + head_len <= frame_len <= MAX_FRAME_BYTES):
        raise ConnectionError(f"corrupt frame header "
                              f"({frame_len}/{head_len} bytes)")
    data = _recv_exact(sock, frame_len - 4)
    try:
        head = json.loads(data[:head_len].decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        raise ConnectionError("corrupt frame head") from None
    return head, data[head_len:]


#: error classes that cross the wire as themselves; anything else
#: arrives as the base ReproError
_WIRE_ERRORS = {cls.__name__: cls for cls in (QueryError, ConfigError)}


def _error_to_frame(exc: BaseException) -> dict:
    return {"kind": "error", "etype": type(exc).__name__,
            "message": str(exc)}


def _error_from_frame(head: dict) -> ReproError:
    cls = _WIRE_ERRORS.get(head.get("etype"), ReproError)
    return cls(str(head.get("message", "remote error")))


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
class _Connection:
    """One accepted TCP connection and its event-loop state.

    ``outbuf`` / ``inflight`` / ``closed`` are shared between the IO
    loop and the handler threads and guarded by ``lock``; ``inbuf`` and
    ``registered`` are touched only by the IO loop."""

    __slots__ = ("sock", "lock", "inbuf", "outbuf", "inflight", "closed",
                 "registered")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.lock = threading.Lock()
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.inflight = 0       # requests dispatched, reply not yet queued
        self.closed = False
        self.registered = False


class OracleServer:
    """Host one index epoch behind a transport.

    :param source: what to serve —

        * a per-node sketch list (or a
          :class:`~repro.oracle.api.BuiltSketches`): the index is built
          here with ``num_shards`` shards;
        * a pre-built :class:`~repro.service.index.IndexStore` (e.g.
          loaded from a binary container): served as-is, shard layout
          baked in;
        * an :class:`~repro.service.updates.UpdateableIndex`: serves the
          live epoch and enables :meth:`apply_updates` hot swaps.

    :param jobs: threads behind the landmark shards (``1`` = probe in
        the calling thread) — exactly
        :class:`~repro.service.workers.ShardServer`'s knob.
    :param num_shards: landmark shard count when building from
        sketches; must match (or be omitted for) a pre-built source.
    :param cache_size: result-cache capacity (answers) of the hosted
        engine; ``0`` disables it.
    :param shard_range: ``(lo, hi)`` — serve only landmark shards
        ``[lo, hi)`` (the fleet-host topology behind ``repro serve
        --shard-range``).  Static sources are physically restricted
        (:func:`~repro.service.index.restrict_index_shards`); an
        updateable source keeps the full store (repair is global) and
        the range only gates what this host advertises and answers.  A
        proper-subset host answers ``probe`` frames for its shards and
        rejects whole-batch ``query`` frames — combining partials is
        the :class:`~repro.service.cluster.ClusterClient`'s job.

    The same server object backs every transport: :meth:`client` hands
    out in-process sessions (what ``inproc://`` binds to),
    :meth:`serve` adds a TCP listener speaking the frame protocol on a
    :mod:`selectors` event loop.  Use as a context manager or
    :meth:`close` to release the shard threads, listener,
    connections, and serving threads (close joins them with a bounded
    deadline — no thread outlives the server).
    """

    def __init__(self, source: Any, *, jobs: int = 1,
                 num_shards: Optional[int] = None,
                 cache_size: int = 65536,
                 shard_range: Optional[tuple[int, int]] = None):
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
        #: connections with freshly queued output (handler threads flag
        #: them here; the IO loop picks them up after each select)
        self._dirty: set[_Connection] = set()
        self._dirty_lock = threading.Lock()
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
        # before the engine starts any shard thread
        index, updateable = self._normalize_source(
            source, jobs=jobs, num_shards=num_shards)
        self.shard_range: Optional[tuple[int, int]] = None
        if shard_range is not None:
            lo, hi = int(shard_range[0]), int(shard_range[1])
            total = index.num_shards
            if updateable is None:
                # validates the range; [0, S) returns the store unchanged
                index = restrict_index_shards(index, lo, hi)
            elif not (0 <= lo < hi <= total):
                # repair is global: the full store stays, the range only
                # gates what this host advertises and answers
                raise ConfigError(
                    f"shard range [{lo}, {hi}) invalid for "
                    f"{total} shards")
            if (lo, hi) != (0, total):
                self.shard_range = (lo, hi)
        self.scheme = (updateable.scheme if updateable is not None
                       else scheme_name_of_index(index))
        self.updateable = updateable is not None
        self._engine = QueryEngine(index, updateable=updateable,
                                   cache_size=cache_size, jobs=jobs)

    @staticmethod
    def _normalize_source(source: Any, *, jobs: int,
                          num_shards: Optional[int],
                          ) -> tuple[IndexStore, Any]:
        """``(index, updateable-or-None)`` for anything servable.  A
        sketch set is indexed here (``num_shards`` shards, default one
        per thread); a pre-built source keeps its baked layout, which
        an explicit ``num_shards`` must match."""
        from repro.oracle.api import BuiltSketches
        from repro.service.updates import UpdateableIndex

        if num_shards is not None and num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        if isinstance(source, BuiltSketches):
            source = source.sketches
        if isinstance(source, (list, tuple)):
            return build_index(
                source, num_shards=num_shards or max(int(jobs), 1)), None
        if isinstance(source, UpdateableIndex):
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

    @property
    def jobs(self) -> int:
        """Effective shard-thread count (clamped to the shard count)."""
        return self._engine.jobs

    def client(self, endpoint: str = "inproc://",
               owns_server: bool = False) -> "OracleClient":
        """An in-process session over this server (no serialization, no
        socket — the ``inproc`` data path)."""
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
            self._broadcast({"kind": "epoch", "epoch": report.epoch})
        return report

    def stats(self) -> dict:
        """A JSON-ready snapshot: size, scheme, epoch, shard/thread
        configuration, cache counters, cumulative phase timings, and the
        number of live TCP connections."""
        engine = self._engine
        cache = engine.stats
        with self._conn_lock:
            connections = len(self._conns)
        return {
            "n": engine.n,
            "scheme": self.scheme,
            "epoch": engine.epoch,
            "updateable": self.updateable,
            "shards": self.num_shards,
            "jobs": engine.jobs,
            "cache_size": engine.cache_size,
            "cache": {"hits": cache.hits, "misses": cache.misses,
                      "evictions": cache.evictions,
                      "entries": engine.cache_entries},
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
              handlers: Optional[int] = None) -> tuple[str, int]:
        """Listen for frame-protocol clients on ``addr`` (``host:port``;
        port ``0`` picks a free one).

        One :mod:`selectors` event loop owns every socket — accepts,
        frame reassembly, reply flushing — and decoded requests fan out
        across a pool of ``handlers`` threads (default: sized to the
        engine, ``max(2, jobs)``), so many concurrent sessions multiplex
        over a fixed thread count instead of a thread per connection.

        Returns the bound ``(host, port)``.  With ``block=True`` (the
        daemon mode ``python -m repro serve`` runs) the calling thread
        runs the event loop until :meth:`close`; ``block=False`` runs it
        on a background thread and returns immediately — the in-test
        topology.
        """
        if self._closed:
            raise ConfigError("server is closed")
        if self._listener is not None:
            raise ConfigError(
                f"server is already listening on "
                f"{self.address[0]}:{self.address[1]}")
        host, port = _parse_addr(addr)
        if handlers is None:
            handlers = max(2, self.jobs)
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
                    if tag == "wake":
                        self._drain_wake()
                    elif tag == "accept":
                        self._accept_ready()
                    else:
                        if mask & selectors.EVENT_WRITE:
                            self._flush(tag)
                        if (mask & selectors.EVENT_READ) and not tag.closed:
                            self._read_ready(tag)
                self._apply_dirty()
        finally:
            self._teardown_io()

    def _wake(self) -> None:
        """Nudge the event loop from another thread (handler reply,
        broadcast, close).  A full pipe means a wake is already
        pending — that is exactly the desired state."""
        sock = self._wake_w
        if sock is None:
            return
        try:
            sock.send(b"\0")
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            pass  # loop already torn down

    def _drain_wake(self) -> None:
        sock = self._wake_r
        while sock is not None:
            try:
                if not sock.recv(4096):
                    return
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # listener closed — clean shutdown
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - exotic stacks
                pass
            conn = _Connection(sock)
            # hello is queued before the connection becomes visible to
            # broadcasts, so it is always the first frame on the wire
            # (and already carries the current epoch)
            self._queue_frame(conn, {
                "kind": "hello", "v": PROTOCOL_VERSION, "n": self.n,
                "scheme": self.scheme, "epoch": self.epoch,
                "shards": self.num_shards, "updateable": self.updateable,
                "shard_range": (list(self.shard_range)
                                if self.shard_range else None)})
            with self._conn_lock:
                self._conns.add(conn)
            self._update_interest(conn)

    def _read_ready(self, conn: _Connection) -> None:
        try:
            while True:
                try:
                    chunk = conn.sock.recv(1 << 16)
                except (BlockingIOError, InterruptedError):
                    break
                if not chunk:  # EOF: client went away
                    self._drop(conn)
                    return
                conn.inbuf += chunk
        except OSError:
            self._drop(conn)
            return
        if self._parse_frames(conn):
            self._update_interest(conn)

    def _parse_frames(self, conn: _Connection) -> bool:
        """Dispatch every complete frame in ``conn.inbuf`` to the
        handler pool; returns False when the connection was dropped.
        Stops dispatching (bytes stay buffered) while the connection is
        backpressured."""
        buf = conn.inbuf
        while True:
            if self._paused(conn) or len(buf) < 8:
                return True
            frame_len, head_len = _FRAME_PREFIX.unpack_from(buf)
            if not (4 + head_len <= frame_len <= MAX_FRAME_BYTES):
                self._drop(conn)
                return False
            end = 4 + frame_len
            if len(buf) < end:
                return True
            try:
                head = json.loads(bytes(buf[8:8 + head_len]).decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self._drop(conn)
                return False
            if not isinstance(head, dict):
                # valid JSON but not an object ("[1,2]", "null", ...):
                # treat as corrupt rather than let head.get() blow up
                # the shared IO loop
                self._drop(conn)
                return False
            body = bytes(buf[8 + head_len:end])
            del buf[:end]
            if head.get("kind") == "close":
                self._drop(conn)
                return False
            with conn.lock:
                conn.inflight += 1
            self._handlers.submit(self._run_handler, conn, head, body)

    def _run_handler(self, conn: _Connection, head: dict,
                     body: bytes) -> None:
        """Handler-pool entry: compute one reply and queue it.  Replies
        may be queued out of request order — the echoed ``id`` is the
        client's matching key."""
        rid = head.get("id")
        try:
            reply_head, reply_body = self._handle(head, body)
        except Exception as exc:
            reply_head, reply_body = _error_to_frame(exc), b""
        if rid is not None:
            reply_head["id"] = rid
        with conn.lock:
            conn.inflight -= 1
        self._enqueue(conn, reply_head, reply_body)

    def _paused(self, conn: _Connection) -> bool:
        with conn.lock:
            return (len(conn.outbuf) >= _OUTBUF_HIGH
                    or conn.inflight >= self._max_pending)

    def _flush(self, conn: _Connection) -> None:
        err = False
        with conn.lock:
            if conn.outbuf:
                try:
                    sent = conn.sock.send(conn.outbuf)
                    del conn.outbuf[:sent]
                except (BlockingIOError, InterruptedError):
                    pass
                except OSError:
                    err = True
        if err:
            self._drop(conn)
            return
        # a drained outbuf can lift backpressure, and the client may be
        # blocked waiting on answers with its whole window already sent
        # — so frames parked in inbuf while the connection was paused
        # must resume from here, not only from handler completions
        if conn.inbuf and not conn.closed and not self._paused(conn):
            if not self._parse_frames(conn):
                return  # dropped while dispatching
        self._update_interest(conn)

    def _update_interest(self, conn: _Connection) -> None:
        """Recompute the selector interest set from the connection's
        state (IO-loop thread only): read unless backpressured, write
        while output is queued, nothing while fully stalled (a handler
        completion re-flags the connection through the dirty set)."""
        if conn.closed:
            return
        with conn.lock:
            has_out = bool(conn.outbuf)
            paused = (len(conn.outbuf) >= _OUTBUF_HIGH
                      or conn.inflight >= self._max_pending)
        events = 0
        if not paused:
            events |= selectors.EVENT_READ
        if has_out:
            events |= selectors.EVENT_WRITE
        try:
            if events and conn.registered:
                self._selector.modify(conn.sock, events, conn)
            elif events:
                self._selector.register(conn.sock, events, conn)
                conn.registered = True
            elif conn.registered:
                self._selector.unregister(conn.sock)
                conn.registered = False
        except (KeyError, ValueError, OSError):
            self._drop(conn)

    def _apply_dirty(self) -> None:
        """Pick up connections flagged by handler threads: flush their
        fresh output (:meth:`_flush` also resumes dispatching any frames
        that were parked in ``inbuf`` while the connection was
        backpressured)."""
        with self._dirty_lock:
            dirty, self._dirty = self._dirty, set()
        for conn in dirty:
            if not conn.closed:
                self._flush(conn)

    def _queue_frame(self, conn: _Connection, head: dict,
                     body: bytes = b"") -> None:
        frame = _frame_bytes(head, body)
        with conn.lock:
            if conn.closed:
                return  # reply to a vanished client: drop silently
            conn.outbuf += frame

    def _enqueue(self, conn: _Connection, head: dict,
                 body: bytes = b"") -> None:
        """Thread-safe reply/push entry point: queue the frame and nudge
        the event loop to flush it."""
        self._queue_frame(conn, head, body)
        with self._dirty_lock:
            self._dirty.add(conn)
        self._wake()

    def _drop(self, conn: _Connection) -> None:
        """Tear one connection down (IO-loop thread only)."""
        with conn.lock:
            conn.closed = True
            conn.outbuf.clear()
        if conn.registered:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):  # pragma: no cover
                pass
            conn.registered = False
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass
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
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
        selector, self._selector = self._selector, None
        if selector is not None:
            try:
                selector.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for name in ("_wake_r", "_wake_w"):
            sock = getattr(self, name)
            setattr(self, name, None)
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - already closed
                    pass

    def _handle(self, head: dict, body: bytes) -> tuple[dict, bytes]:
        kind = head.get("kind")
        if kind == "query":
            if self.shard_range is not None:
                lo, hi = self.shard_range
                raise ConfigError(
                    f"this host serves landmark shards [{lo}, {hi}) of "
                    f"{self.num_shards} — whole-batch queries need a "
                    f"cluster:// session combining the fleet's partials")
            pairs = np.asarray(tree_from_bytes(body))
            answers, epoch = self._engine.dist_many_pinned(pairs)
            return ({"kind": "result", "epoch": int(epoch)},
                    tree_to_bytes(answers))
        if kind == "probe":
            shards = [int(s) for s in head.get("shards", ())]
            lo, hi = self.shard_range or (0, self.num_shards)
            for s in shards:
                if not (lo <= s < hi):
                    raise ConfigError(
                        f"shard {s} is not served here (this host owns "
                        f"[{lo}, {hi}) of {self.num_shards})")
            requests = tree_from_bytes(body)
            if len(requests) != len(shards):
                raise ConfigError(
                    f"probe names {len(shards)} shards but carries "
                    f"{len(requests)} requests")
            responses, epoch = self._engine.shard_answers_pinned(
                shards, requests)
            return ({"kind": "probe_result", "epoch": int(epoch)},
                    tree_to_bytes(responses))
        if kind == "apply":
            from repro.oracle.serialization import change_from_dict

            changes = [change_from_dict(item)
                       for item in head.get("changes", ())]
            report = self.apply_updates(changes)
            return {"kind": "report", "report": report.as_dict()}, b""
        if kind == "stats":
            return {"kind": "stats_reply", "stats": self.stats()}, b""
        if kind == "fetch_index":
            from repro.oracle.serialization import index_binary_bytes

            # snapshot (store, epoch) atomically — a concurrent hot
            # swap must not label the old epoch's bytes with the new
            # epoch number; the old store is immutable, so serializing
            # it outside any lock is safe
            index, epoch = self._engine.index_snapshot()
            return ({"kind": "index_blob", "epoch": int(epoch)},
                    index_binary_bytes(index))
        raise ConfigError(f"unknown frame kind {kind!r}")

    def _broadcast(self, head: dict) -> None:
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            self._enqueue(conn, head)

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


# ----------------------------------------------------------------------
# transports (the client side)
# ----------------------------------------------------------------------
class _LocalTransport:
    """In-process binding to an :class:`OracleServer` — the ``inproc``
    data path (no serialization at all).  ``dist_many`` goes through
    the engine's result cache; ``dist_stream`` is the engine's own
    submit/collect window, which bypasses it."""

    name = "local"

    def __init__(self, server: OracleServer, owns_server: bool):
        self._server = server
        self._owns_server = owns_server
        # an inproc session reads its server's clock directly
        self.clock = SessionClock(live=lambda: server.epoch)
        self.clock.start(server.epoch)

    @property
    def n(self) -> int:
        return self._server.n

    @property
    def scheme(self) -> Optional[str]:
        return self._server.scheme

    def dist_many(self, pairs) -> np.ndarray:
        return self.clock.answer(
            self._server._engine.dist_many_pinned(pairs))

    def dist_stream(self, batches) -> Iterator[np.ndarray]:
        return self.clock.consume(
            self._server._engine.dist_stream_pinned(batches))

    def apply_updates(self, changes) -> UpdateReport:
        report = self._server.apply_updates(changes)
        self.clock.now()
        return report

    def stats(self) -> dict:
        return self._server.stats()

    def fetch_index(self, path: Optional[str]):
        index = self._server._engine.index
        if path is not None:
            from repro.oracle.serialization import save_index_binary

            save_index_binary(index, path)
        return index

    def close(self) -> None:
        if self._owns_server:
            self._server.close()


class _TcpTransport:
    """Frame-protocol client: one socket, multiplexed request/reply
    matched by request id, pushed ``epoch`` frames folded into the
    session clock whenever they arrive.

    Its submit/collect pair is :meth:`_post` a ``query`` frame /
    :meth:`_await` the ``result`` frame that echoes the id; the result
    head names the epoch that served the batch.

    A mid-frame failure (peer gone, corrupt frame) leaves the byte
    stream unrecoverable, so the transport marks itself **dead**: the
    failing call raises :class:`ConnectionError`, and every later
    request fails fast with the original cause instead of reading
    garbage from a desynchronized stream."""

    name = "tcp"

    def __init__(self, endpoint: Endpoint, timeout: Optional[float] = None,
                 pipeline_depth: int = DEFAULT_PIPELINE_DEPTH):
        self.clock = SessionClock(pipeline_depth)
        try:
            self._sock = socket.create_connection(
                (endpoint.host, endpoint.port), timeout=timeout)
        except OSError as exc:
            raise ConfigError(
                f"cannot connect to {endpoint.describe()}: {exc}") from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._closed = False
        self._dead: Optional[str] = None
        self._next_id = 0
        self._replies: dict[int, tuple[dict, bytes]] = {}
        try:
            head, _ = _recv_frame(self._sock)
        except OSError as exc:  # includes socket.timeout on a mute peer
            self._sock.close()
            raise ConfigError(
                f"no hello from {endpoint.describe()}: {exc}") from exc
        if head.get("kind") != "hello":
            self._sock.close()
            raise ConfigError(f"{endpoint.describe()} is not an oracle "
                              f"server (no hello frame)")
        if head.get("v") != PROTOCOL_VERSION:
            self._sock.close()
            raise ConfigError(
                f"protocol version mismatch: server speaks "
                f"{head.get('v')}, client {PROTOCOL_VERSION}")
        self.n = int(head["n"])
        self.scheme = head.get("scheme")
        self.clock.start(int(head["epoch"]))
        self.num_shards = int(head["shards"])
        self.updateable = bool(head["updateable"])
        #: ``(lo, hi)`` when the host serves only a landmark-shard
        #: subset (a fleet member), else None (a full host)
        raw_range = head.get("shard_range")
        self.shard_range = (None if raw_range is None
                            else (int(raw_range[0]), int(raw_range[1])))
        # the connect timeout must not linger on the session socket: a
        # slow large-batch reply would raise socket.timeout mid-frame
        # and leave the stream misaligned forever
        self._sock.settimeout(None)

    # -- liveness ------------------------------------------------------
    def _check_alive(self) -> None:
        if self._dead is not None:
            raise ConnectionError(
                f"oracle session is dead ({self._dead}); open a new "
                f"connection to continue")

    def _mark_dead(self, why: str) -> None:
        if self._dead is None:
            self._dead = why
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    # -- the multiplexed request/reply core ----------------------------
    def _post(self, head: dict, body: bytes = b"") -> int:
        """Send one request frame; returns its id (collect the reply
        with :meth:`_await`).  The one send path: while the frame is
        only partially written, consume any replies the server has
        already queued.  A plain ``sendall`` here can deadlock — with
        large frames the server may be write-backpressured (its read
        paused) while this side blocks mid-send, both directions'
        kernel buffers full; draining the receive side breaks the
        cycle."""
        with self._send_lock:
            self._check_alive()
            rid = self._next_id
            self._next_id += 1
            data = memoryview(_frame_bytes(dict(head, id=rid), body))
            try:
                while data:
                    rlist, wlist, _ = select.select(
                        [self._sock], [self._sock], [])
                    drained = self._drain_ready() if rlist else False
                    if wlist:
                        data = data[self._sock.send(data):]
                    elif not drained:
                        # another thread owns the receive side and is
                        # already reading; just wait for writability
                        select.select([], [self._sock], [], 0.05)
            except (OSError, ValueError) as exc:
                self._mark_dead(f"send failed: {exc}")
                raise ConnectionError(
                    f"oracle connection lost: {exc}") from None
            return rid

    def _read_frame(self) -> Optional[tuple[dict, bytes]]:
        """Read one frame (receive lock held).  A reply is returned for
        its awaiter; a pushed frame is taken in here — an epoch bump
        folds into the session clock — and yields ``None``."""
        head, payload = _recv_frame(self._sock)
        if "id" in head:
            return head, payload
        if head.get("kind") == "epoch":
            self.clock.fold(int(head["epoch"]))
        return None

    def _drain_ready(self) -> bool:
        """Stash every reply frame the kernel has already delivered
        (non-blocking readiness check, so a quiet socket costs
        nothing).  Returns False without reading when another thread
        holds the receive side — that thread is draining already."""
        if not self._recv_lock.acquire(blocking=False):
            return False
        try:
            while self._dead is None:
                ready, _, _ = select.select([self._sock], [], [], 0.0)
                if not ready:
                    return True
                frame = self._read_frame()
                if frame is not None:
                    self._replies[frame[0]["id"]] = frame
            return True
        except (ConnectionError, OSError, ValueError) as exc:
            self._mark_dead(f"receive failed: {exc}")
            return True
        finally:
            self._recv_lock.release()

    def _await(self, rid: int, kind: str) -> tuple[dict, bytes]:
        """Collect the ``kind`` reply for ``rid``, stashing
        out-of-order replies for their own awaiters; a typed error
        frame re-raises as its :mod:`repro.errors` class."""
        hit = None
        while hit is None:
            with self._recv_lock:
                hit = self._replies.pop(rid, None)
                if hit is None:
                    self._check_alive()
                    try:
                        frame = self._read_frame()
                    except (ConnectionError, OSError) as exc:
                        self._mark_dead(f"receive failed: {exc}")
                        raise ConnectionError(
                            f"oracle connection lost: {exc}") from None
                    if frame is not None and frame[0]["id"] == rid:
                        hit = frame
                    elif frame is not None:
                        self._replies[frame[0]["id"]] = frame
        head, payload = hit
        if head.get("kind") == "error":
            raise _error_from_frame(head)
        if head.get("kind") != kind:
            raise ReproError(f"unexpected reply frame {head.get('kind')!r}")
        return head, payload

    def _request(self, head: dict, kind: str) -> tuple[dict, bytes]:
        return self._await(self._post(head), kind)

    # -- fleet probes (the cluster client's fan-out primitive) ---------
    def post_probe(self, shards: Iterable[int], body: bytes) -> int:
        """Send one ``probe`` frame (a pre-encoded tuple of per-shard
        requests for the named shards); returns its request id."""
        return self._post({"kind": "probe", "shards": list(shards)}, body)

    def await_probe(self, rid: int) -> tuple[Any, int]:
        """Collect one probe reply — ``(responses, epoch)``, the
        responses a tuple aligned with the posted shard list."""
        head, payload = self._await(rid, "probe_result")
        return tree_from_bytes(payload), int(head["epoch"])

    # -- the session surface: a submit/collect pair --------------------
    def _submit(self, pairs) -> Optional[int]:
        arr = parse_pair_array(pairs)
        if arr.size == 0:
            return None
        return self._post({"kind": "query"}, tree_to_bytes(arr))

    def _collect(self, rid: Optional[int]) -> tuple[np.ndarray, int]:
        if rid is None:
            return np.empty(0, dtype=np.float64), self.clock.epoch
        head, body = self._await(rid, "result")
        # the batch stays pinned to the epoch that served it: an
        # old-epoch reply consumed after a pushed bump names the old one
        return (np.array(tree_from_bytes(body), dtype=np.float64),
                int(head["epoch"]))

    def dist_many(self, pairs) -> np.ndarray:
        return self.clock.answer(self._collect(self._submit(pairs)))

    def dist_stream(self, batches) -> Iterator[np.ndarray]:
        """Pipelined streaming: :func:`~repro.service.session.
        stream_window` keeps up to ``pipeline_depth`` query frames
        posted and yields answers in submit order (replies may arrive
        out of order; the id stash reorders them).  Batch *k+1*'s
        encode and round-trip overlap batch *k*'s server-side work —
        the local double-buffering, extended over the wire."""
        return self.clock.consume(stream_window(
            batches, self._submit, self._collect, self.clock.depth,
            self.clock.pipeline))

    def apply_updates(self, changes) -> UpdateReport:
        from repro.oracle.serialization import change_to_dict

        head, _ = self._request({
            "kind": "apply",
            "changes": [change_to_dict(c) for c in changes]}, "report")
        # tolerant construction: a newer server may report fields this
        # client does not know (version skew must not crash the session)
        report = UpdateReport.from_wire(head["report"])
        self.clock.fold(report.epoch)
        return report

    def stats(self) -> dict:
        stats = self._request({"kind": "stats"}, "stats_reply")[0]["stats"]
        stats["pipeline"] = self.clock.pipeline_summary()
        return stats

    def fetch_index(self, path: Optional[str]):
        return self.fetch_index_pinned(path)[0]

    def fetch_index_pinned(self, path: Optional[str]):
        """:meth:`fetch_index` plus the epoch that produced the blob —
        ``(store, epoch)`` (the pair the server snapshotted atomically).
        The cluster client uses the epoch to keep its routing store in
        lockstep with the fleet."""
        from repro.oracle.serialization import load_index_binary

        head, blob = self._request({"kind": "fetch_index"}, "index_blob")
        epoch = int(head["epoch"])
        if path is None:
            # no attach target: materialize in memory via a scratch file
            fd, tmp = tempfile.mkstemp(prefix="repro-fetch-", suffix=".rpix")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                return load_index_binary(tmp, backing="heap"), epoch
            finally:
                os.unlink(tmp)
        with open(path, "wb") as fh:
            fh.write(blob)
        return load_index_binary(path, backing="mmap"), epoch

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._dead is None:
            try:
                self._post({"kind": "close"})
            except ConnectionError:
                pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass


# ----------------------------------------------------------------------
# the session handle
# ----------------------------------------------------------------------
class OracleClient:
    """A serving session — the one handle callers hold, whatever the
    transport behind it.

    Obtained from :func:`connect` (or :meth:`OracleServer.client`).
    ``dist`` / ``dist_many`` / ``dist_stream`` answers are bit-identical
    across transports, including :class:`~repro.errors.QueryError`
    parity on disconnected graphs; :meth:`apply_updates` hot-swaps the
    served epoch with zero downtime wherever the session's server hosts
    an :class:`~repro.service.updates.UpdateableIndex`.  Sessions are
    context managers; :meth:`close` releases whatever the transport
    holds (an owned local server, or the socket).
    """

    def __init__(self, transport, endpoint: str):
        self._transport = transport
        self.endpoint = endpoint

    # -- identity ------------------------------------------------------
    @property
    def transport(self) -> str:
        """``"local"`` (inproc) or ``"tcp"``."""
        return self._transport.name

    @property
    def n(self) -> int:
        """Node count of the served index."""
        return self._transport.n

    @property
    def scheme(self) -> Optional[str]:
        """Registry name of the served scheme (``"tz"`` …)."""
        return self._transport.scheme

    @property
    def epoch(self) -> int:
        """The newest epoch this session has observed — advanced (never
        rolled back) by result frames and server-pushed epoch bumps."""
        return self._transport.clock.now()

    @property
    def last_result_epoch(self) -> int:
        """The epoch that served the most recently consumed
        ``dist`` / ``dist_many`` / ``dist_stream`` answer — the
        per-batch pin.  Unlike :attr:`epoch`, this can name an older
        epoch when a reply that was in flight across a hot swap is
        consumed after the pushed bump."""
        return self._transport.clock.last_result_epoch

    # -- queries -------------------------------------------------------
    def dist(self, u: int, v: int) -> float:
        """One distance estimate."""
        return float(self.dist_many([(u, v)])[0])

    def dist_many(self, pairs: Iterable[tuple[int, int]] | np.ndarray,
                  ) -> np.ndarray:
        """Estimates for a batch of ``(u, v)`` pairs, in input order —
        one epoch answers the whole batch."""
        return self._transport.dist_many(pairs)

    def dist_stream(self, batches: Iterable) -> Iterator[np.ndarray]:
        """Pipelined serving over an iterable of pair batches: one
        bounded in-order window (:func:`~repro.service.session.
        stream_window`) over the transport's submit/collect pair — two
        deep on ``inproc://``, ``pipeline_depth`` deep over tcp and
        across a fleet.  Yields one answer array per batch, in order,
        bit-identical to per-batch :meth:`dist_many` on a cold cache.

        On every transport: batches are pulled only as window slots
        free up; **each batch** is answered wholly by the epoch current
        when it was submitted, named by :attr:`last_result_epoch` as it
        is consumed; an error (a :class:`~repro.errors.QueryError` for
        a bad id or an unresolved pair) is raised at its own batch's
        turn, after every earlier batch was yielded; closing the
        generator early drains what is in flight."""
        return self._transport.dist_stream(batches)

    def pipeline_stats(self, reset: bool = False) -> Optional[dict]:
        """Client-side pipelining telemetry of a tcp or fleet session —
        ``requests`` / ``max_inflight`` / ``overlap_seconds`` /
        ``depth`` / per-batch ``latencies`` of the :meth:`dist_stream`
        window (``None`` for local transports, whose overlap shows up
        in the server's phase timings instead).  ``latencies`` stops
        recording past 65536 entries until ``reset=True`` starts a
        fresh window; ``requests`` keeps counting."""
        return self._transport.clock.pipeline_stats(reset)

    def staleness_stats(self, reset: bool = False) -> dict:
        """Per-session epoch-staleness telemetry (every transport):
        how many consumed results were pinned to an epoch older than
        the newest one the session had observed (legal under the
        monotonic-epoch rule), the worst epoch lag, and per stale
        result the seconds the newer epoch had already been visible
        (the *staleness window*)."""
        return self._transport.clock.staleness_stats(reset)

    # -- control plane -------------------------------------------------
    def apply_updates(self, changes) -> UpdateReport:
        """Apply an edge-change batch to the session's server and
        hot-swap its epoch (propagated to every other connected client
        without a reconnect).  Needs an updateable server."""
        return self._transport.apply_updates(changes)

    def stats(self) -> dict:
        """Server-side statistics plus this session's transport and
        endpoint."""
        return {"transport": self.transport, "endpoint": self.endpoint,
                **self._transport.stats()}

    def fetch_index(self, path: Optional[str] = None):
        """The served epoch's pre-built store.

        Local sessions return the live store.  TCP sessions download
        the ``RPIX`` binary container through the session's own channel:
        with ``path`` the blob is written there and attached
        ``backing="mmap"`` — byte-identical to a ``repro build --format
        binary`` artifact, zero blob parsing — which is how a remote
        worker box warms up; without ``path`` it is materialized in
        memory.
        """
        return self._transport.fetch_index(path)

    def close(self) -> None:
        """End the session (idempotent via the transport)."""
        self._transport.close()

    def __enter__(self) -> "OracleClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"OracleClient({self.endpoint!r}, n={self.n}, "
                f"scheme={self.scheme}, epoch={self.epoch})")


# ----------------------------------------------------------------------
# the factory
# ----------------------------------------------------------------------
def connect(spec: str, source: Any = None, *,
            cache_size: Optional[int] = None,
            timeout: Optional[float] = None,
            pipeline_depth: Optional[int] = None) -> OracleClient:
    """Open a serving session on an endpoint spec — the one front door
    of the serving layer.

    * ``connect("inproc://", source)`` — everything in this process
      (options: ``jobs`` / ``shards`` / ``cache``);
      ``inproc://jobs=4`` puts four GIL-releasing threads behind the
      landmark shards (``jobs`` defaults to 1, ``shards`` to ``jobs``);
    * ``connect("tcp://host:port")`` — a remote
      :class:`OracleServer`; no ``source`` (the server owns the index);
    * ``connect("cluster://h1:p1,h2:p2")`` — a fleet of
      :class:`OracleServer` hosts each owning a landmark-shard range
      (``repro serve --shard-range``): batches are planned client-side,
      probes fan out per host, and the partials are combined by the
      store's ``finish`` — answers bit-identical to one full host.

    ``source`` for local transports: a sketch list,
    :class:`~repro.oracle.api.BuiltSketches`, pre-built store, or
    :class:`~repro.service.updates.UpdateableIndex` (which enables
    :meth:`OracleClient.apply_updates`).  ``cache_size`` overrides the
    spec's ``cache`` option; ``timeout`` bounds the TCP connect +
    handshake (it is cleared once the session is up, so a slow
    large-batch reply can never desync the stream); ``pipeline_depth``
    sets how many ``dist_stream`` batches a tcp or fleet session keeps
    in flight (default 4, minimum 1).

    :raises ConfigError: on a bad spec, a missing/forbidden ``source``,
        or an unreachable server.
    """
    endpoint = parse_endpoint(spec)
    if endpoint.transport != "inproc":
        kind = endpoint.transport
        owner = "fleet" if kind == "cluster" else "server"
        if source is not None:
            raise ConfigError(
                f"a {kind}:// session carries no data — the {owner} owns "
                f"the index (drop source=)")
        if cache_size is not None:
            raise ConfigError(
                f"cache_size is a server-side knob for {kind}:// sessions")
        depth = (DEFAULT_PIPELINE_DEPTH if pipeline_depth is None
                 else pipeline_depth)
        if kind == "cluster":
            from repro.service.cluster import ClusterClient

            transport = ClusterClient(endpoint.options["hosts"],
                                      timeout=timeout, pipeline_depth=depth)
        else:
            transport = _TcpTransport(endpoint, timeout=timeout,
                                      pipeline_depth=depth)
        return OracleClient(transport, endpoint=endpoint.describe())
    if pipeline_depth is not None:
        raise ConfigError(
            "pipeline_depth is a tcp:// session knob (local transports "
            "pipeline in the engine's double-buffered dispatch)")
    if source is None:
        raise ConfigError(
            f"{endpoint.transport}:// serves in this process and needs "
            f"source= (a sketch list, BuiltSketches, IndexStore, or "
            f"UpdateableIndex)")
    options = dict(endpoint.options)
    # an explicit shards= option is enforced; otherwise OracleServer
    # defaults sketch sources to one shard per thread and leaves
    # pre-built sources on their baked layout
    shards = options.get("shards")
    jobs = options.get("jobs", 1)
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    cache = cache_size if cache_size is not None \
        else options.get("cache", 65536)
    server = OracleServer(source, jobs=jobs, num_shards=shards,
                          cache_size=cache)
    return server.client(endpoint=endpoint.describe(), owns_server=True)
