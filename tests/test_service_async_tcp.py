"""The multiplexed TCP plane (protocol v3) and its bug-sweep fixes.

Five claim families:

* **pipelining** — a tcp ``dist_stream`` keeps ≥ 2 requests in flight
  (``max_inflight``) and hides submit time behind the wire
  (``overlap_seconds > 0``, a timing claim gated by the shared
  ``timing_gate`` fixture) while staying bit-identical to per-batch
  ``dist_many`` — the regression guard for the v1 bug where streaming
  silently degraded to sequential round-trips;
* **session robustness** — the connect timeout is cleared after the
  hello handshake (a slow large-batch reply must never desync the
  stream), a mid-frame failure marks the transport dead and every later
  request fails fast with :class:`ConnectionError`, and a protocol
  version mismatch is rejected at connect time;
* **version skew** — :meth:`UpdateReport.from_wire` tolerates unknown
  and missing report keys (a newer server must not crash an older
  client's ``apply_updates``);
* **clean shutdown** — :meth:`OracleServer.close` joins the IO loop and
  handler pool; no ``oracle-io`` / ``oracle-handler`` thread survives;
* **concurrency** — N client threads mixing ``dist_many`` /
  ``dist_stream`` / ``apply_updates`` against one server get
  bit-identical answers for the epoch that served each batch (computed
  from an inline twin), with distinct per-thread workloads so any
  cross-request reply mixup under multiplexing shows up as a wrong
  answer.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import build_sketches
from repro.errors import ConfigError
from repro.graphs import Graph, assign_uniform_weights, erdos_renyi
from repro.service import (OracleServer, UpdateableIndex, UpdateReport,
                           connect, sample_query_pairs,
                           sample_weight_changes)
from repro.service.protocol import (HELLO, PROTOCOL_VERSION, PUSH_RID,
                                    encode_frame)


@pytest.fixture(scope="module")
def graph() -> Graph:
    return assign_uniform_weights(erdos_renyi(24, seed=11), seed=12)


@pytest.fixture(scope="module")
def built(graph):
    return build_sketches(graph, scheme="stretch3", seed=7, eps=0.4)


def _serve(source, **kw):
    server = OracleServer(source, cache_size=0, **kw)
    host, port = server.serve("127.0.0.1:0", block=False)
    return server, f"tcp://{host}:{port}"


# ----------------------------------------------------------------------
# pipelining (the dist_stream regression guard)
# ----------------------------------------------------------------------
class TestPipelining:
    def test_stream_keeps_requests_in_flight(self, graph, built):
        pairs = sample_query_pairs(graph.n, 240, seed=3)
        chunks = [pairs[lo:lo + 30] for lo in range(0, 240, 30)]
        server, addr = _serve(built)
        try:
            with connect(addr) as client:
                want = [client.dist_many(c) for c in chunks]
                client.pipeline_stats(reset=True)
                got = list(client.dist_stream(chunks))
                stats = client.pipeline_stats()
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.tolist() == w.tolist()  # exact floats, in order
            assert stats["requests"] == len(chunks)
            assert len(stats["latencies"]) == len(chunks)
        finally:
            server.close()

    def test_stream_overlaps_requests(self, graph, built, timing_gate):
        """``max_inflight >= 2`` / ``overlap_seconds > 0`` are wall-clock
        scheduling claims — gated so CI/1-CPU runners self-skip."""
        timing_gate("dist_stream overlap")
        pairs = sample_query_pairs(graph.n, 240, seed=3)
        chunks = [pairs[lo:lo + 30] for lo in range(0, 240, 30)]
        server, addr = _serve(built)
        try:
            with connect(addr) as client:
                list(client.dist_stream(chunks))
                stats = client.pipeline_stats()
            assert stats["max_inflight"] >= 2
            assert stats["overlap_seconds"] > 0.0
        finally:
            server.close()

    def test_local_transports_reject_pipeline_depth(self, built):
        """The window is the transport's own constant: no session kind
        takes a ``pipeline_depth``."""
        with pytest.raises(TypeError, match="pipeline_depth"):
            connect("inproc://", built, pipeline_depth=2)
        with pytest.raises(TypeError, match="pipeline_depth"):
            connect("tcp://127.0.0.1:9", pipeline_depth=2)

    def test_local_sessions_have_no_pipeline_stats(self, built):
        with connect("inproc://", built) as client:
            assert client.pipeline_stats() is None

    def test_large_frames_drain_under_backpressure(self, graph, built):
        # replies bigger than the server's 1 MiB write high-water mark
        # read-pause the connection with the rest of the window parked
        # in its inbuf, while the client's window fill is mid-send of
        # the next multi-MiB request.  Both ends must keep making
        # progress: the server resumes parked frames once its write
        # drains, and the client drains ready replies while its own
        # send is blocked — either one missing deadlocks this stream.
        batch, batches = 200_000, 5
        rng = np.random.default_rng(13)
        pairs = rng.integers(0, graph.n, size=(batch * batches, 2))
        chunks = [pairs[lo:lo + batch]
                  for lo in range(0, batch * batches, batch)]
        server, addr = _serve(built)
        done: list = []

        def run() -> None:
            with connect(addr) as client:
                want = client.dist_many(chunks[0])
                got = list(client.dist_stream(chunks))
                assert [len(g) for g in got] == [batch] * batches
                assert got[0].tolist() == want.tolist()
                done.append(True)

        worker = threading.Thread(target=run, daemon=True)
        try:
            worker.start()
            worker.join(timeout=120.0)
            assert done, "large-frame pipelined stream deadlocked"
        finally:
            server.close()


# ----------------------------------------------------------------------
# pipeline stats and epoch pinning (the introspection surface)
# ----------------------------------------------------------------------
class TestStatsAndPinning:
    def test_empty_stream_records_nothing(self, built):
        server, addr = _serve(built)
        try:
            with connect(addr) as client:
                client.pipeline_stats(reset=True)
                assert list(client.dist_stream([])) == []
                stats = client.pipeline_stats()
            assert stats["requests"] == 0
            assert stats["max_inflight"] == 0
            assert stats["overlap_seconds"] == 0.0
            assert stats["latencies"] == []
        finally:
            server.close()

    def test_single_batch_stream(self, graph, built):
        pairs = sample_query_pairs(graph.n, 15, seed=14)
        server, addr = _serve(built)
        try:
            with connect(addr) as client:
                want = client.dist_many(pairs)
                client.pipeline_stats(reset=True)
                got = list(client.dist_stream([pairs]))
                stats = client.pipeline_stats()
            assert len(got) == 1
            assert got[0].tolist() == want.tolist()
            # one request can never overlap itself
            assert stats["requests"] == 1
            assert stats["max_inflight"] == 1
            assert len(stats["latencies"]) == 1
        finally:
            server.close()

    def test_last_result_epoch_pins_per_batch(self, graph):
        """``epoch`` only moves forward; ``last_result_epoch`` is the
        per-batch pin and tracks what actually served each answer —
        across interleaved ``apply_updates`` calls on the same
        session."""
        upd = UpdateableIndex(graph, scheme="tz", seed=9, k=2)
        server, addr = _serve(upd)
        try:
            with connect(addr) as client:
                pairs = sample_query_pairs(graph.n, 12, seed=15)
                client.dist_many(pairs)
                e0 = client.last_result_epoch
                assert e0 == client.epoch
                report = client.apply_updates(
                    sample_weight_changes(graph, 3, seed=44,
                                          low=0.3, high=0.8))
                assert report.epoch > e0
                # the pin still names the pre-apply serve until a new
                # result is consumed
                assert client.last_result_epoch == e0
                client.dist_many(pairs)
                assert client.last_result_epoch == report.epoch
                assert client.epoch == report.epoch
        finally:
            server.close()

    def test_local_transport_pins_too(self, graph):
        upd = UpdateableIndex(graph, scheme="tz", seed=9, k=2)
        with connect("inproc://", upd) as client:
            pairs = sample_query_pairs(graph.n, 12, seed=16)
            client.dist_many(pairs)
            e0 = client.last_result_epoch
            report = client.apply_updates(
                sample_weight_changes(graph, 3, seed=45,
                                      low=0.3, high=0.8))
            client.dist_many(pairs)
            assert client.last_result_epoch == report.epoch > e0

    def test_staleness_stats_surface_and_reset(self, graph, built):
        server, addr = _serve(built)
        try:
            with connect(addr) as client:
                pairs = sample_query_pairs(graph.n, 10, seed=17)
                client.dist_many(pairs)
                client.dist_many(pairs)
                stats = client.staleness_stats()
                assert stats["results"] == 2
                assert stats["stale_results"] == 0  # no churn here
                stats = client.staleness_stats(reset=True)
                assert stats["results"] == 2
                assert client.staleness_stats()["results"] == 0
        finally:
            server.close()

    def test_abandoned_stream_drain_keeps_stats_consistent(
            self, graph, built):
        """Stats for an abandoned stream count the submitted window —
        the drain consumes the in-flight replies without corrupting the
        next request's accounting."""
        pairs = sample_query_pairs(graph.n, 120, seed=18)
        chunks = [pairs[lo:lo + 20] for lo in range(0, 120, 20)]
        server, addr = _serve(built)
        try:
            with connect(addr) as client:
                client.pipeline_stats(reset=True)
                stream = client.dist_stream(chunks)
                next(stream)
                stream.close()
                submitted = client.pipeline_stats(reset=True)["requests"]
                assert 1 <= submitted <= len(chunks)
                # dist_many is not pipelined: the fresh window stays
                # empty, and the drained session answers correctly
                got = client.dist_many(chunks[0])
                again = client.dist_many(chunks[0])
                stats = client.pipeline_stats()
            assert got.tolist() == again.tolist()
            assert stats["requests"] == 0
        finally:
            server.close()


# ----------------------------------------------------------------------
# session robustness
# ----------------------------------------------------------------------
class TestSessionRobustness:
    def test_connect_timeout_cleared_after_hello(self, built):
        server, addr = _serve(built)
        try:
            with connect(addr, timeout=5.0) as client:
                assert client._transport._sock.gettimeout() is None
        finally:
            server.close()

    def test_dead_after_server_gone(self, graph, built):
        server, addr = _serve(built)
        client = connect(addr)
        try:
            pairs = sample_query_pairs(graph.n, 10, seed=8)
            client.dist_many(pairs)
            server.close()
            with pytest.raises(ConnectionError):
                client.dist_many(pairs)
            # dead, not desynced: every later request fails fast with
            # the recorded cause, no hang, no garbage read
            with pytest.raises(ConnectionError, match="dead"):
                client.dist_many(pairs)
            with pytest.raises(ConnectionError, match="dead"):
                client.stats()
        finally:
            client.close()
            server.close()

    @staticmethod
    def _greeted_by(greeting: bytes) -> None:
        """``connect`` to an impostor whose first bytes are
        ``greeting`` must fail as a version mismatch, inside the
        connect timeout."""
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]

        def impostor():
            sock, _ = listener.accept()
            with sock:
                sock.sendall(greeting)
                time.sleep(0.2)

        thread = threading.Thread(target=impostor, daemon=True)
        thread.start()
        try:
            with pytest.raises(ConfigError, match="version mismatch"):
                connect(f"tcp://{host}:{port}", timeout=5.0)
        finally:
            listener.close()
            thread.join(timeout=5.0)

    def test_version_mismatch_rejected(self):
        self._greeted_by(encode_frame(HELLO, PUSH_RID, 0, {
            "v": PROTOCOL_VERSION + 1, "n": 1, "scheme": None, "epoch": 0,
            "shards": 1, "updateable": False}))

    def test_v2_style_greeting_rejected(self):
        # what a protocol-v2 server sends: u32 frame_len | u32 head_len
        # | head JSON
        head = (b'{"kind":"hello","v":2,"n":1,"scheme":null,"epoch":0,'
                b'"shards":1,"updateable":false}')
        self._greeted_by(
            struct.pack("<II", 4 + len(head), len(head)) + head)


# ----------------------------------------------------------------------
# version skew (tolerant report construction)
# ----------------------------------------------------------------------
class TestReportVersionSkew:
    def test_unknown_keys_ignored(self):
        report = UpdateReport.from_wire({
            "mode": "repair", "epoch": 3, "changes": 2, "dirty": 1,
            "touched": 4, "n": 24, "dirty_fraction": 0.04,
            "seconds": {"repair": 0.1},
            "novel_field": "from-the-future", "another": [1, 2]})
        assert report.mode == "repair" and report.epoch == 3
        assert report.seconds == {"repair": 0.1}

    def test_missing_keys_defaulted(self):
        report = UpdateReport.from_wire({"epoch": 7})
        assert report.epoch == 7
        assert report.mode == "unknown" and report.changes == 0
        assert report.seconds == {}

    def test_wire_roundtrip_is_lossless(self):
        report = UpdateReport(mode="rebuild", epoch=2, changes=5, dirty=3,
                              touched=9, n=24, dirty_fraction=0.375,
                              seconds={"rebuild": 1.0})
        assert UpdateReport.from_wire(report.as_dict()) == report


# ----------------------------------------------------------------------
# clean shutdown
# ----------------------------------------------------------------------
class TestCleanShutdown:
    @staticmethod
    def _serving_threads():
        return [t for t in threading.enumerate()
                if t.name.startswith(("oracle-io", "oracle-handler"))]

    def test_close_joins_serving_threads(self, graph, built):
        server, addr = _serve(built)
        with connect(addr) as client:
            client.dist_many(sample_query_pairs(graph.n, 10, seed=9))
            assert self._serving_threads()  # the loop is alive mid-serve
            server.close()
        for _ in range(100):  # pool threads exit within the join bound
            if not self._serving_threads():
                break
            time.sleep(0.05)
        assert self._serving_threads() == []

    def test_close_is_idempotent(self, built):
        server, _ = _serve(built)
        server.close()
        server.close()


# ----------------------------------------------------------------------
# concurrent sessions (the multiplexing acceptance test)
# ----------------------------------------------------------------------
class TestConcurrentSessions:
    def test_mixed_traffic_stays_bit_identical(self, graph):
        readers, batches = 4, 3
        change_batches = [
            sample_weight_changes(graph, 3, seed=100 + b, low=0.3, high=0.8)
            for b in range(batches)]
        # the inline twin maps every epoch the server can serve to its
        # reference store (UpdateableIndex is deterministic in
        # (graph, seed), so twin stores == served stores, bit for bit)
        twin = UpdateableIndex(graph, scheme="tz", seed=9, k=2)
        stores = {0: twin.index}
        for changes in change_batches:
            # two statements: in `stores[apply().epoch] = twin.index`
            # the right-hand side is read before apply() runs, which
            # maps epoch e to the store of epoch e-1
            report = twin.apply(changes)
            stores[report.epoch] = twin.index

        upd = UpdateableIndex(graph, scheme="tz", seed=9, k=2)
        server, addr = _serve(upd)
        errors: list = []
        served_epochs: list = []  # one per consumed batch, all readers
        start = threading.Barrier(readers + 1)
        writer_done = threading.Event()

        def reader(rid: int) -> None:
            try:
                with connect(addr) as client:
                    # a distinct workload per thread: a reply delivered
                    # to the wrong request cannot produce right answers
                    pairs = sample_query_pairs(graph.n, 90,
                                               seed=1000 + rid)
                    chunks = [pairs[lo:lo + 30]
                              for lo in range(0, 90, 30)]
                    expect = {e: s.estimate_many(pairs[:, 0], pairs[:, 1])
                              for e, s in stores.items()}
                    start.wait()
                    # rounds go on for as long as the writer does; the
                    # last one starts after it finished, so the final
                    # epoch serves it
                    settled = False
                    while not settled:
                        settled = writer_done.is_set()
                        got = client.dist_many(pairs)
                        # pinned by the reply (client.epoch itself only
                        # moves forward and may already name a newer
                        # pushed epoch)
                        epoch = client.last_result_epoch
                        served_epochs.append(epoch)
                        assert got.tolist() == expect[epoch].tolist(), \
                            (rid, epoch)
                        lo = 0
                        for ans in client.dist_stream(chunks):
                            # each pipelined batch pins its own epoch —
                            # last_result_epoch names it
                            epoch = client.last_result_epoch
                            served_epochs.append(epoch)
                            want = expect[epoch][lo:lo + len(ans)]
                            assert ans.tolist() == want.tolist(), \
                                (rid, epoch)
                            lo += len(ans)
                        assert lo == len(pairs)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((rid, exc))
                start.abort()

        def writer() -> None:
            try:
                with connect(addr) as client:
                    start.wait()
                    for changes in change_batches:
                        time.sleep(0.02)
                        report = client.apply_updates(changes)
                        assert report.epoch in stores
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(("writer", exc))
                start.abort()
            finally:
                writer_done.set()

        threads = [threading.Thread(target=reader, args=(i,), daemon=True)
                   for i in range(readers)]
        threads.append(threading.Thread(target=writer, daemon=True))
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not errors, errors
            assert all(not t.is_alive() for t in threads)
            # "mixed" is a claim about the traffic: reads were answered
            # by stores the writer installed, not only by epoch 0
            assert max(served_epochs) >= 1, sorted(set(served_epochs))
        finally:
            server.close()

    def test_many_sessions_one_handler_pool(self, graph, built):
        # more sessions than handler threads: the event loop multiplexes
        # them all, and every session gets its own right answers, one
        # request at a time and through a full pipelining window
        server, addr = _serve(built)
        sessions = 6
        pairs = sample_query_pairs(graph.n, 50, seed=21)
        errors: list = []

        def hammer(cid: int) -> None:
            try:
                with connect(addr) as client:
                    mine = sample_query_pairs(graph.n, 50, seed=21 + cid)
                    want = None
                    for _ in range(5):
                        got = client.dist_many(mine)
                        if want is None:
                            want = got
                        assert got.tolist() == want.tolist(), cid
                    chunks = [mine[lo:lo + 10] for lo in range(0, 50, 10)]
                    client.pipeline_stats(reset=True)
                    piped = np.concatenate(list(client.dist_stream(chunks)))
                    assert piped.tolist() == want.tolist(), cid
                    assert client.pipeline_stats()["max_inflight"] >= 2
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((cid, exc))

        threads = [threading.Thread(target=hammer, args=(i,), daemon=True)
                   for i in range(sessions)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not errors, errors
            with connect(addr) as client:
                assert client.dist_many(pairs).shape == (50,)
        finally:
            server.close()
