"""The client side of the serving API: the endpoint grammar, the
``inproc`` and ``tcp`` transports, the :class:`OracleClient` session
handle and the :func:`connect` factory::

    connect("inproc://", source)          # this process
    connect("inproc://cache=0", source)   # ... without a result cache
    connect("tcp://host:port")            # a remote OracleServer

One session core (:mod:`repro.service.session`): a transport supplies
only a ``submit(batch) -> ticket`` / ``collect(ticket) -> (answers,
epoch)`` pair; ``dist_many`` is ``collect(submit(pairs))`` and
``dist_stream`` the shared bounded window over the same pair.  So on
every transport a batch is answered wholly by the epoch current at its
submit, an error surfaces at its own batch's turn, and answers are
**bit-identical** — :class:`~repro.errors.QueryError` parity included.
The tcp transport multiplexes :mod:`repro.service.protocol` frames by
request id over one socket; a pushed ``epoch`` frame (another session's
hot swap) folds into the session clock without a reconnect.
"""

from __future__ import annotations

import select
import socket
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

import numpy as np

from repro.errors import ConfigError, ReproError
from repro.service.index import checked_pair, parse_pair_array
from repro.service.protocol import (ANSWERS, APPLY, CLOSE, EPOCH, ERROR,
                                    FETCH_INDEX, HELLO, INDEX_BLOB,
                                    MAX_FRAME_BYTES, ONE_ANSWER, ONE_PAIR,
                                    PAIRS, PROTOCOL_VERSION, PUSH_RID, QUERY,
                                    REPORT, RESULT, STATS, STATS_REPLY,
                                    FrameError, FrameReader, encode_frame,
                                    error_from_body, kind_name)
from repro.service.server import OracleServer
from repro.service.session import SessionClock, UpdateReport, stream_window

#: transports :func:`connect` understands
TRANSPORTS = ("inproc", "tcp")

#: how many batches a tcp ``dist_stream`` keeps in flight per
#: connection (the pipelining window; ≥ 2 hides the wire round-trip)
PIPELINE_DEPTH = 4

#: options an ``inproc://`` endpoint spec accepts (all integers)
_INPROC_OPTIONS = ("cache",)

#: makes one ``send`` on the (blocking) session socket non-blocking;
#: where the platform lacks it the first ``send`` of a frame may block
_DONTWAIT = getattr(socket, "MSG_DONTWAIT", 0)


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
        opts = ";".join(f"{k}={v}" for k, v in sorted(self.options.items()))
        return f"{self.transport}://{opts}"


def parse_endpoint(spec: str) -> Endpoint:
    """Parse a URL-style endpoint spec.

    Grammar::

        spec    := transport "://" rest
        rest    := host ":" port          (tcp)
                 | [option (";" option)*] (inproc)
        option  := key "=" integer

    ``inproc`` accepts ``cache`` (result-cache slots; absent, the
    store's ``cache_slots``).  Options are validated here, so a typo
    fails at :func:`connect` time, not mid-serve.

    :raises ConfigError: on an unknown transport, malformed address, or
        unknown, malformed or repeated option.
    """
    if not isinstance(spec, str) or "://" not in spec:
        raise ConfigError(
            f"endpoint spec must look like 'transport://...', got {spec!r}")
    transport, _, rest = spec.partition("://")
    if transport not in TRANSPORTS:
        raise ConfigError(f"unknown transport {transport!r}; "
                          f"choose from {TRANSPORTS}")
    if transport == "tcp":
        address = _host_port(rest, f"tcp endpoint {spec!r}")
        if address is None:
            raise ConfigError(
                f"tcp endpoint wants tcp://host:port, got {spec!r}")
        return Endpoint("tcp", host=address[0], port=address[1])
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
        if key in options:
            raise ConfigError(
                f"endpoint option {key!r} is given twice in {spec!r}")
        try:
            options[key] = int(value)
        except ValueError:
            raise ConfigError(
                f"endpoint option {key}={value!r} is not an "
                f"integer") from None
    return Endpoint(transport, options=options)


def _host_port(text: str, what: str) -> Optional[tuple[str, int]]:
    """``host:port`` as ``(host, port)``, ``None`` for any other form;
    a port outside [0, 65535] is a ``ConfigError`` naming ``what``."""
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.lstrip("-").isdigit():
        return None
    if not 0 <= int(port) <= 65535:
        raise ConfigError(f"{what}: port {port} is outside [0, 65535]")
    return host, int(port)


def parse_listen_addr(addr: str) -> tuple[str, int]:
    """A listen address is a tcp endpoint without the scheme — same
    validation (including the port range), same failure class."""
    address = _host_port(addr, f"listen address {addr!r}")
    if address is None:
        raise ConfigError(
            f"listen address wants 'host:port', got {addr!r}")
    return address


# ----------------------------------------------------------------------
# transports
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

    def dist(self, u, v) -> float:
        return self.clock.answer(self._server._engine.dist_one_pinned(u, v))

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

    A mid-frame failure (peer gone, corrupt frame, a reply nobody asked
    for) leaves the byte stream unrecoverable, so the transport marks
    itself **dead**: the failing call raises :class:`ConnectionError`,
    and every later request fails fast with the original cause instead
    of reading garbage from a desynchronized stream."""

    name = "tcp"

    def __init__(self, endpoint: Endpoint, timeout: Optional[float] = None):
        self.clock = SessionClock(PIPELINE_DEPTH)
        try:
            self._sock = socket.create_connection(
                (endpoint.host, endpoint.port), timeout=timeout)
        except OSError as exc:
            raise ConfigError(
                f"cannot connect to {endpoint.describe()}: {exc}") from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._reader = FrameReader(MAX_FRAME_BYTES)
        self._closed = False
        self._dead: Optional[str] = None
        self._next_id = 0
        #: request id -> its reply frame, ``None`` while in flight
        self._replies: dict[int, Optional[tuple]] = {}
        self._hello: Optional[dict] = None
        where = endpoint.describe()
        try:
            while self._hello is None:
                self._fill()
            spoken = self._hello.get("v")
        except FrameError as exc:  # e.g. a v2 ``u32 | u32 | JSON`` hello
            spoken = f"another framing ({exc})"
        except OSError as exc:  # includes socket.timeout on a mute peer
            self._sock.close()
            raise ConfigError(f"no hello from {where}: {exc}") from exc
        if spoken != PROTOCOL_VERSION:
            self._sock.close()
            raise ConfigError(
                f"protocol version mismatch: {where} speaks {spoken}, "
                f"this client version {PROTOCOL_VERSION}")
        hello = self._hello
        self.n = int(hello["n"])
        self.scheme = hello.get("scheme")
        self.clock.start(int(hello["epoch"]))
        self.num_shards = int(hello["shards"])
        self.updateable = bool(hello["updateable"])
        #: the largest frame the server reads; :meth:`_post` refuses a
        #: larger one before a byte is sent
        self._max_frame = int(hello["max_frame"])
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
    def _post(self, kind: int, body: Any = b"") -> int:
        """Send one request frame; returns its id (collect the reply
        with :meth:`_await`).  The one send path: a single non-blocking
        ``send`` takes a small frame whole, and only a short write
        enters :meth:`_send_rest`.

        :raises ConfigError: when the frame is over the server's
            advertised cap — nothing is sent and the session stays
            usable.
        """
        with self._send_lock:
            self._check_alive()
            rid = self._next_id
            data = encode_frame(kind, rid, 0, body)
            if len(data) > self._max_frame:
                raise ConfigError(
                    f"a {kind_name(kind)} frame of {len(data)} bytes is "
                    f"over the server's {self._max_frame}-byte frame cap "
                    f"— split the batch")
            self._next_id += 1
            self._replies[rid] = None
            try:
                try:
                    sent = self._sock.send(data, _DONTWAIT)
                except BlockingIOError:
                    sent = 0
                if sent < len(data):
                    self._send_rest(memoryview(data)[sent:])
            except (OSError, ValueError) as exc:
                self._mark_dead(f"send failed: {exc}")
                raise ConnectionError(
                    f"oracle connection lost: {exc}") from None
            return rid

    def _send_rest(self, data: memoryview) -> None:
        """Finish a partially written frame, taking in whatever replies
        the server has already sent while waiting for writability.  A
        plain ``sendall`` here can deadlock — with large frames the
        server may be write-backpressured (its read paused) while this
        side blocks mid-send, both directions' kernel buffers full;
        draining the receive side breaks the cycle."""
        while data:
            rlist, wlist, _ = select.select([self._sock], [self._sock], [])
            if wlist:
                try:
                    data = data[self._sock.send(data, _DONTWAIT):]
                except BlockingIOError:
                    pass
            if rlist and self._recv_lock.acquire(blocking=False):
                try:
                    self._fill()  # readable, so this recv cannot block
                finally:
                    self._recv_lock.release()
            elif not wlist:
                # another thread owns the receive side and is already
                # reading; just wait for writability
                select.select([], [self._sock], [], 0.05)

    def _fill(self, wanted: Optional[int] = None) -> Optional[tuple]:
        """One ``recv`` (receive lock held) and every frame it
        completes: the reply to ``wanted`` is returned (and no longer
        in flight), any other reply lands in ``_replies`` under its id
        for its awaiter, a pushed epoch bump folds into the session
        clock (and the greeting into ``_hello``).

        :raises ConnectionError: on EOF, a corrupt frame, or a reply to
            a request that is not in flight.
        """
        reader = self._reader
        chunk = self._sock.recv(reader.want())
        if not chunk:
            raise ConnectionError("closed by the server")
        reader.feed(chunk)
        hit = None
        while (frame := reader.next_frame()) is not None:
            rid = frame[1]
            if rid == PUSH_RID:
                if frame[0] == EPOCH:
                    self.clock.fold(frame[2])
                elif frame[0] == HELLO:
                    self._hello = frame[3]
            elif self._replies.get(rid, frame) is not None:
                raise FrameError(
                    f"reply to request id {rid}, which is not in flight")
            elif rid == wanted:
                del self._replies[rid]
                hit = frame
            else:
                self._replies[rid] = frame
        return hit

    def _await(self, rid: int, kind: int) -> tuple[int, Any]:
        """Collect the ``kind`` reply for ``rid`` — ``(epoch, body)`` —
        from the ``recv`` that completes it, or from ``_replies`` when
        another awaiter's ``recv`` stashed it; a typed error frame
        re-raises as its :mod:`repro.errors` class."""
        hit = None
        while hit is None:
            with self._recv_lock:
                hit = self._replies[rid]
                if hit is not None:  # stashed by another awaiter's recv
                    del self._replies[rid]
                    break
                self._check_alive()
                try:
                    hit = self._fill(rid)
                except OSError as exc:
                    self._mark_dead(f"receive failed: {exc}")
                    raise ConnectionError(
                        f"oracle connection lost: {exc}") from None
        got, _, epoch, body = hit
        if got == ERROR:
            raise error_from_body(body)
        if got != kind:
            raise ReproError(f"unexpected reply frame {kind_name(got)!r}")
        return epoch, body

    def _request(self, kind: int, reply: int, body: Any = b"") -> Any:
        return self._await(self._post(kind, body), reply)[1]

    # -- the session surface: a submit/collect pair --------------------
    def _submit(self, pairs) -> Optional[int]:
        arr = parse_pair_array(pairs, self.n)
        if arr.size == 0:
            return None
        return self._post(QUERY, arr.astype(PAIRS, copy=False).tobytes())

    def _collect(self, rid: Optional[int]) -> tuple[np.ndarray, int]:
        if rid is None:
            return np.empty(0, dtype=np.float64), self.clock.epoch
        # the batch stays pinned to the epoch that served it: an
        # old-epoch reply consumed after a pushed bump names the old one
        epoch, body = self._await(rid, RESULT)
        return np.frombuffer(body, dtype=ANSWERS).astype(np.float64), epoch

    def dist(self, u, v) -> float:
        """A lone pair, its bodies packed with :mod:`struct`: the bytes
        :meth:`_submit` / :meth:`_collect` would carry."""
        body = ONE_PAIR.pack(*checked_pair(u, v, self.n))
        epoch, body = self._await(self._post(QUERY, body), RESULT)
        if len(body) != ONE_ANSWER.size:
            raise ReproError(f"a {len(body)}-byte result for one pair")
        self.clock.note_result(epoch)
        return ONE_ANSWER.unpack(body)[0]

    def dist_many(self, pairs) -> np.ndarray:
        return self.clock.answer(self._collect(self._submit(pairs)))

    def dist_stream(self, batches) -> Iterator[np.ndarray]:
        """Pipelined streaming: :func:`~repro.service.session.
        stream_window` keeps up to :data:`PIPELINE_DEPTH` query frames
        posted and yields answers in submit order (replies may arrive
        out of order; the id stash reorders them).  Batch *k+1*'s
        encode and round-trip overlap batch *k*'s server-side work —
        the local double-buffering, extended over the wire."""
        return self.clock.consume(stream_window(
            batches, self._submit, self._collect, self.clock.depth,
            self.clock.pipeline))

    def apply_updates(self, changes) -> UpdateReport:
        from repro.oracle.serialization import change_to_dict

        # tolerant construction: a newer server may report fields this
        # client does not know (version skew must not crash the session)
        report = UpdateReport.from_wire(self._request(
            APPLY, REPORT,
            {"changes": [change_to_dict(c) for c in changes]}))
        self.clock.fold(report.epoch)
        return report

    def stats(self) -> dict:
        stats = self._request(STATS, STATS_REPLY)
        stats["pipeline"] = self.clock.pipeline_summary()
        return stats

    def fetch_index(self, path: Optional[str]):
        from repro.oracle.serialization import (load_index_binary,
                                                load_index_bytes)

        blob = self._request(FETCH_INDEX, INDEX_BLOB)
        if path is None:  # no attach target: views over the blob itself
            return load_index_bytes(blob)
        with open(path, "wb") as fh:
            fh.write(blob)
        return load_index_binary(path, backing="mmap")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._dead is None:
            try:
                self._post(CLOSE)
            except ConnectionError:
                pass
        self._mark_dead("closed")


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
        """One distance estimate — the paper's query, sent and answered
        as one pair (bit-identical to ``dist_many([(u, v)])[0]``)."""
        return self._transport.dist(u, v)

    def dist_many(self, pairs: Iterable[tuple[int, int]] | np.ndarray,
                  ) -> np.ndarray:
        """Estimates for a batch of ``(u, v)`` pairs, in input order —
        one epoch answers the whole batch."""
        return self._transport.dist_many(pairs)

    def dist_stream(self, batches: Iterable) -> Iterator[np.ndarray]:
        """Pipelined serving over an iterable of pair batches: one
        bounded in-order window (:func:`~repro.service.session.
        stream_window`) over the transport's submit/collect pair — two
        deep on ``inproc://``, :data:`PIPELINE_DEPTH` deep over tcp.
        Yields one answer array per batch, in order,
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
        """Client-side pipelining telemetry of a tcp session —
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
        ``backing="mmap"`` — byte-identical to a ``repro build``
        artifact, zero blob parsing — which is how a remote
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
            timeout: Optional[float] = None) -> OracleClient:
    """Open a serving session on an endpoint spec — the one front door
    of the serving layer.

    * ``connect("inproc://", source)`` — everything in this process
      (option: ``cache``); the engine cuts a bulk batch across its
      GIL-releasing threads by itself (the shard count is an index
      layout parameter, no session option);
    * ``connect("tcp://host:port")`` — a remote
      :class:`OracleServer`; no ``source`` (the server owns the index).

    ``source`` for local transports: a sketch list,
    :class:`~repro.oracle.api.BuiltSketches`, pre-built store, or
    :class:`~repro.service.updates.UpdateableIndex` (which enables
    :meth:`OracleClient.apply_updates`).  ``cache_size`` overrides the
    spec's ``cache`` option; with neither, the session gets the store's
    ``cache_slots`` (no cache on TZ and CDG).  ``timeout`` bounds the
    TCP connect + handshake (it is cleared once the session is up, so a
    slow large-batch reply can never desync the stream).

    :raises ConfigError: on a bad spec, a missing/forbidden ``source``,
        or an unreachable server.
    """
    endpoint = parse_endpoint(spec)
    if endpoint.transport == "tcp":
        if source is not None:
            raise ConfigError(
                "a tcp:// session carries no data — the server owns "
                "the index (drop source=)")
        if cache_size is not None:
            raise ConfigError(
                "cache_size is a server-side knob for tcp:// sessions")
        transport = _TcpTransport(endpoint, timeout=timeout)
        return OracleClient(transport, endpoint=endpoint.describe())
    if source is None:
        raise ConfigError(
            f"{endpoint.transport}:// serves in this process and needs "
            f"source= (a sketch list, BuiltSketches, IndexStore, or "
            f"UpdateableIndex)")
    cache = cache_size if cache_size is not None \
        else endpoint.options.get("cache")
    server = OracleServer(source, cache_size=cache)
    return server.client(endpoint=endpoint.describe(), owns_server=True)
