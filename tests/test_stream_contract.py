"""The ``dist_stream`` contract, on every session kind.

One bounded in-order window (``repro.service.session.stream_window``)
runs every stream, over a per-kind submit/collect pair; this suite
states what a caller may rely on and runs it against an in-thread
``inproc://`` session, one whose bulk batches are cut into pair ranges
on the engine's pool and a ``tcp://`` session:

* answers equal per-batch ``dist_many``, in order;
* an empty batch yields an empty array and costs no request;
* batches are pulled lazily — never more than ``depth`` outstanding;
* closing a stream early drains it, and the session stays aligned;
* an error surfaces at its own batch's turn, after every earlier batch
  was yielded, and the session keeps serving;
* under a hot swap each consumed batch is one epoch's answer, wholesale,
  and ``last_result_epoch`` names that epoch.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.errors import QueryError
from repro.graphs import assign_uniform_weights, erdos_renyi
from repro.service import (OracleServer, PipelineStats, UpdateableIndex,
                           connect, sample_query_pairs,
                           sample_weight_changes)
from repro.service.client import PIPELINE_DEPTH
from repro.service.engine import RANGE_PAIRS, STREAM_DEPTH
from repro.service.session import MAX_SAMPLES, stream_window

KINDS = ["inproc", "threads", "tcp"]
SHARDS = 2
#: the window each kind runs: double buffering locally, the tcp
#: transport's fixed window remotely
DEPTH = {"inproc": STREAM_DEPTH, "threads": STREAM_DEPTH,
         "tcp": PIPELINE_DEPTH}
#: pairs per batch: ``threads`` streams the smallest batch the engine
#: cuts (on two CPUs, into two ranges)
SIZE = {"inproc": 25, "threads": 2 * RANGE_PAIRS, "tcp": 25}


@pytest.fixture(scope="module")
def graph():
    return assign_uniform_weights(erdos_renyi(40, seed=101), seed=17)


def _updateable(graph) -> UpdateableIndex:
    return UpdateableIndex(graph.copy(), scheme="tz", seed=5, k=2,
                           num_shards=SHARDS)


@contextmanager
def open_session(kind: str, graph):
    """A cache-less session of ``kind`` over a fresh updateable TZ
    store of ``graph``."""
    if kind == "inproc":
        with connect("inproc://cache=0", _updateable(graph)) as session:
            yield session
    elif kind == "threads":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.service.engine.usable_cpus", lambda: 2)
            session = connect("inproc://cache=0", _updateable(graph))
        with session:
            yield session
    else:
        with OracleServer(_updateable(graph), cache_size=0) as server:
            host, port = server.serve("127.0.0.1:0", block=False)
            with connect(f"tcp://{host}:{port}") as session:
                yield session


def _chunks(kind: str, graph, count: int, seed: int = 3):
    size = SIZE[kind]
    pairs = sample_query_pairs(graph.n, count * size, seed=seed)
    return [pairs[i * size:(i + 1) * size] for i in range(count)]


def _requests(session) -> int:
    """Batches the session has actually sent."""
    stats = session.pipeline_stats()
    if stats is not None:
        return stats["requests"]
    return session.stats()["phases"]["batches"]


# ----------------------------------------------------------------------
# the contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
def test_stream_equals_per_batch_dist_many_in_order(kind, graph):
    chunks = _chunks(kind, graph, 6)
    with open_session(kind, graph) as session:
        want = [session.dist_many(c) for c in chunks]
        got = list(session.dist_stream(chunks))
        if kind == "threads":  # the kind really cuts its batches
            assert session.stats()["phases"]["overlap_seconds"] > 0.0
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.float64
        assert g.tobytes() == w.tobytes()  # exact floats, exact order


@pytest.mark.parametrize("kind", KINDS)
def test_empty_batches_cost_no_request(kind, graph):
    a, b = _chunks(kind, graph, 2)
    with open_session(kind, graph) as session:
        want = session.dist_many(np.concatenate([a, b]))
        before = _requests(session)
        got = list(session.dist_stream([a[:0], a, [], b, b[:0]]))
        assert _requests(session) - before == 2
        assert session.dist_many([]).size == 0
        assert _requests(session) - before == 2
    assert [len(g) for g in got] == [0, len(a), 0, len(b), 0]
    assert np.concatenate(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_batches_are_pulled_only_as_slots_free_up(kind, graph):
    chunks = _chunks(kind, graph, 9)
    pulled = 0

    def feed():
        nonlocal pulled
        for chunk in chunks:
            pulled += 1
            yield chunk

    with open_session(kind, graph) as session:
        stream = session.dist_stream(feed())
        assert pulled == 0  # nothing happens before the first next()
        deepest = 0
        for consumed, _ in enumerate(stream, start=1):
            # everything pulled is consumed or one of <= depth tickets
            assert pulled - consumed < DEPTH[kind]
            deepest = max(deepest, pulled - consumed + 1)
        assert pulled == len(chunks)
        assert deepest == DEPTH[kind]  # and the window really fills
        stats = session.pipeline_stats()
        if stats is not None:
            assert stats["depth"] == DEPTH[kind]
            assert 1 <= stats["max_inflight"] <= DEPTH[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_closing_early_drains_and_keeps_the_session_aligned(kind, graph):
    chunks = _chunks(kind, graph, 6)
    with open_session(kind, graph) as session:
        want = [session.dist_many(c) for c in chunks]
        stream = session.dist_stream(iter(chunks))
        assert next(stream).tobytes() == want[0].tobytes()
        stream.close()  # abandon with depth - 1 batches in flight
        # the drain collected them: the next request gets its own
        # reply, not a stale one, and a fresh stream runs clean
        assert session.dist_many(chunks[5]).tobytes() == want[5].tobytes()
        again = list(session.dist_stream(chunks))
        assert [g.tobytes() for g in again] == [w.tobytes() for w in want]


@pytest.mark.parametrize("kind", KINDS)
def test_an_error_surfaces_at_its_own_batch(kind, graph):
    good = _chunks(kind, graph, 1)[0]
    bad = np.array([[0, graph.n]])  # id out of range
    with open_session(kind, graph) as session:
        want = session.dist_many(good)
        with pytest.raises(QueryError) as single:
            session.dist_many(bad)
        stream = session.dist_stream([good, bad, good])
        # the valid batch ahead of the bad one is not lost ...
        assert next(stream).tobytes() == want.tobytes()
        # ... the error is the single-query error, at the second turn
        with pytest.raises(QueryError) as err:
            next(stream)
        assert str(err.value) == str(single.value)
        with pytest.raises(StopIteration):
            next(stream)
        # and the session answers afterwards
        assert session.dist_many(good).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_a_mid_stream_swap_never_tears_a_batch(kind, graph):
    chunks = _chunks(kind, graph, 8)
    changes = sample_weight_changes(graph, 3, seed=900, low=0.1, high=0.4)
    twin = _updateable(graph)
    refs = [[twin.index.estimate_many(c[:, 0], c[:, 1]) for c in chunks]]
    twin.apply(changes)
    refs.append([twin.index.estimate_many(c[:, 0], c[:, 1])
                 for c in chunks])
    assert all(a.tobytes() != b.tobytes() for a, b in zip(*refs))
    swap_at = 5

    with open_session(kind, graph) as session:

        def feed():
            for i, chunk in enumerate(chunks):
                if i == swap_at:
                    # lands with depth - 1 earlier batches outstanding
                    assert session.apply_updates(changes).epoch == 1
                yield chunk

        epochs = []
        for i, answers in enumerate(session.dist_stream(feed())):
            epoch = session.last_result_epoch
            # one epoch's answer, wholesale, and the pin names it
            assert answers.tobytes() == refs[epoch][i].tobytes()
            epochs.append(epoch)
        assert session.epoch == 1
        assert session.dist_many(chunks[0]).tobytes() == \
            refs[1][0].tobytes()
    # consumed before the swap / submitted after it returned
    consumed_before = swap_at - DEPTH[kind] + 1
    assert epochs[:consumed_before] == [0] * consumed_before
    assert epochs[swap_at:] == [1] * (len(chunks) - swap_at)
    if kind in ("inproc", "threads"):
        # a local batch is pinned at submit: the one in flight across
        # the swap is still the old epoch's, collected after it retired
        assert epochs == [0] * swap_at + [1] * (len(chunks) - swap_at)


# ----------------------------------------------------------------------
# the driver itself
# ----------------------------------------------------------------------
def test_latencies_are_capped_while_requests_keep_counting():
    stats = PipelineStats()
    total = MAX_SAMPLES + 500
    stream = stream_window(range(total), lambda b: b, lambda t: t, 4, stats)
    assert sum(1 for _ in stream) == total
    assert stats.requests == total
    assert len(stats.latencies) == MAX_SAMPLES == 1 << 16
    assert stats.max_inflight == 4


def test_a_failed_submit_is_parked_and_nothing_further_is_pulled():
    pulled, collected = [], []

    def feed():
        for i in range(6):
            pulled.append(i)
            yield i

    def submit(i):
        if i == 2:
            raise QueryError("bad batch")
        return i

    def collect(ticket):
        collected.append(ticket)
        return ticket

    stream = stream_window(feed(), submit, collect, 4)
    assert next(stream) == 0
    assert pulled == [0, 1, 2]  # the window stopped filling at the error
    assert next(stream) == 1
    with pytest.raises(QueryError, match="bad batch"):
        next(stream)
    assert collected == [0, 1]
