"""Serving benchmark: batched engine vs the single-query loop.

One routine, shared by the ``repro serve-bench`` CLI subcommand and the
E14/E20 benchmarks, so the numbers the docs quote and the numbers a
user measures come from the same code path.  The routine always
cross-checks that the batched answers equal the single-query answers
exactly before reporting throughput — a benchmark of wrong answers is
worthless.

Besides the wall totals the report carries a ``phases`` block — the
cumulative plan / shard_answer / finish / ipc seconds of one measured
batched pass — so a dispatch-bound configuration is diagnosable from a
single run: if ``ipc_seconds`` rivals ``kernel_seconds``, handing a cut
batch's pair ranges to the pool threads costs as much as running them.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import ConfigError, ReproError
from repro.rng import SeedLike, ensure_rng
from repro.service.engine import QueryEngine
from repro.service.index import (IndexStore, build_index,
                                 scheme_name_of_index)


def sample_query_pairs(n: int, queries: int, seed: SeedLike = 0) -> np.ndarray:
    """A reproducible ``(queries, 2)`` workload of uniform random pairs."""
    rng = ensure_rng(seed)
    return rng.integers(0, n, size=(queries, 2), dtype=np.int64)


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_serve_benchmark(sketches: Optional[Sequence[Any]] = None,
                        queries: int = 1000,
                        batch: Optional[int] = None, seed: SeedLike = 0,
                        repeats: int = 3, cache_size: int = 0,
                        num_shards: int = 1,
                        index: Optional[IndexStore] = None) -> dict:
    """Time ``queries`` random queries answered one-by-one vs in batches.

    :param sketches: the per-node sketch set to serve (omit when passing
        a pre-built ``index`` instead).
    :param batch: batch size for the engine path (default: the whole
        workload in one batch).
    :param cache_size: engine result-cache capacity; the default 0
        measures the raw vectorized path (cold-cache throughput).
    :param num_shards: landmark shard count in the pre-built index
        (ignored when ``index`` is given — its own shard count rules).
    :param index: serve a pre-built store (e.g. loaded from a binary
        container) instead of building one from sketches; the
        single-query baseline is then the store's own one-pair path.

    Returns a JSON-ready dict with per-path wall times, queries/second,
    the speedup, the detected scheme, per-phase timings of one batched
    pass, and an ``identical`` flag (batched == single, bitwise).
    """
    if queries < 1:
        raise ConfigError(f"queries must be >= 1, got {queries}")
    if (sketches is None) == (index is None):
        raise ConfigError(
            "run_serve_benchmark wants exactly one of sketches= or index=")
    if index is None:
        index = build_index(sketches, num_shards=num_shards)

        def single(u: int, v: int) -> float:
            return sketches[u].estimate_to(sketches[v])
    else:
        single = index.estimate
    engine = QueryEngine(index, cache_size=cache_size)
    try:
        pairs = sample_query_pairs(engine.n, queries, seed=seed)
        if batch is None or batch > queries:
            batch = queries
        if batch < 1:
            raise ConfigError(f"batch must be >= 1, got {batch}")

        ref = np.asarray([single(int(u), int(v)) for u, v in pairs])

        def single_loop():
            for u, v in pairs:
                single(int(u), int(v))

        def batched_loop():
            engine.clear_cache()
            out = np.empty(queries, dtype=np.float64)
            for lo in range(0, queries, batch):
                out[lo:lo + batch] = engine.dist_many(pairs[lo:lo + batch])
            return out

        batched_answers = batched_loop()
        t_single = _best_of(repeats, single_loop)
        t_batched = _best_of(repeats, batched_loop)
        # one more instrumented pass for the per-phase story
        engine.reset_phase_timings()
        batched_loop()
        phases = engine.phase_timings()
        return {
            "n": engine.n,
            "scheme": scheme_name_of_index(index) or "?",
            "queries": int(queries),
            "batch": int(batch),
            "shards": int(index.num_shards),
            "cache_size": int(cache_size),
            "single_seconds": t_single,
            "batched_seconds": t_batched,
            "single_qps": queries / t_single,
            "batched_qps": queries / t_batched,
            "speedup": t_single / t_batched,
            "phases": phases,
            "identical": bool(np.array_equal(ref, batched_answers)),
        }
    finally:
        engine.close()


def run_connect_benchmark(spec: str, source=None, queries: int = 1000,
                          batch: Optional[int] = None, seed: SeedLike = 0,
                          repeats: int = 3) -> dict:
    """Time a query workload through a transport session — the
    ``serve-bench --connect`` harness and the E17 experiment.

    Opens one :class:`~repro.service.client.OracleClient` with
    :func:`~repro.service.client.connect` and measures three paths
    over the same session: the per-pair loop (``client.dist``), the
    batched path (``client.dist_many`` per batch), and the pipelined
    stream (``client.dist_stream`` over all batches — the
    double-buffered dispatch on ``inproc://`` sessions).  Batched and
    streamed answers are cross-checked bitwise against the per-pair
    loop before any throughput is reported.

    :param spec: endpoint spec (``inproc://…`` or ``tcp://host:port``).
    :param source: what the session serves — required for local
        transports, forbidden for ``tcp://`` (the server owns the
        index).
    """
    from repro.service.client import connect

    if queries < 1:
        raise ConfigError(f"queries must be >= 1, got {queries}")
    client = connect(spec, source)
    try:
        pairs = sample_query_pairs(client.n, queries, seed=seed)
        if batch is None or batch > queries:
            batch = queries
        if batch < 1:
            raise ConfigError(f"batch must be >= 1, got {batch}")
        chunks = [pairs[lo:lo + batch] for lo in range(0, queries, batch)]

        ref = np.asarray([client.dist(int(u), int(v)) for u, v in pairs])

        def single_loop():
            for u, v in pairs:
                client.dist(int(u), int(v))

        def batched_loop():
            return np.concatenate([client.dist_many(chunk)
                                   for chunk in chunks])

        def streamed_loop():
            return np.concatenate(list(client.dist_stream(chunks)))

        batched = batched_loop()
        streamed = streamed_loop()
        t_single = _best_of(repeats, single_loop)
        t_batched = _best_of(repeats, batched_loop)
        t_streamed = _best_of(repeats, streamed_loop)
        stats = client.stats()
        # the session's result cache is server-side configuration this
        # harness cannot reset over tcp; the reference loop above warms
        # it, so a cache-enabled server reports lookup throughput — the
        # cache block below makes that visible in the report (benchmark
        # against a cache_size=0 server, as E17 does, for serving cost)
        return {
            "endpoint": spec,
            "transport": client.transport,
            "n": client.n,
            "scheme": client.scheme,
            "epoch": client.epoch,
            "queries": int(queries),
            "batch": int(batch),
            "single_seconds": t_single,
            "batched_seconds": t_batched,
            "streamed_seconds": t_streamed,
            "single_qps": queries / t_single,
            "batched_qps": queries / t_batched,
            "streamed_qps": queries / t_streamed,
            "speedup": t_single / t_batched,
            "server_cache_size": stats.get("cache_size"),
            "server_cache": stats.get("cache"),
            "phases": stats.get("phases"),
            "identical": bool(np.array_equal(ref, batched)
                              and np.array_equal(ref, streamed)),
        }
    finally:
        client.close()


def _percentiles_ms(latencies: Sequence[float]) -> dict:
    arr = np.asarray(list(latencies), dtype=np.float64)
    if arr.size == 0:
        return {"p50_ms": None, "p99_ms": None}
    return {"p50_ms": float(np.percentile(arr, 50) * 1e3),
            "p99_ms": float(np.percentile(arr, 99) * 1e3)}


def run_load_benchmark(spec: str, clients: int = 4, queries: int = 1000,
                       batch: Optional[int] = None, seed: SeedLike = 0,
                       phase_timeout: float = 600.0) -> dict:
    """Closed-loop multi-client load generator — the ``serve-bench
    --clients N --connect`` harness and the E18 experiment.

    ``clients`` threads each open their **own** tcp session against the
    server at ``spec`` and push a distinct seeded workload of
    ``queries`` pairs through it twice, barrier-synchronized so every
    client runs each mode at the same time:

    1. **sequential** — one ``dist_many`` per batch, one request in
       flight per connection (the protocol-v1 behaviour, the baseline);
    2. **pipelined** — one ``dist_stream`` over all batches with a
       :data:`~repro.service.client.PIPELINE_DEPTH`-deep request-id
       window.

    Answers from the two passes are cross-checked bitwise per client
    (distinct per-client workloads also catch cross-request reply
    mixups under multiplexing).  The report carries per-client rows
    (qps per mode, ``max_inflight``, ``overlap_seconds``, p50/p99 ms
    per mode) plus aggregate percentiles and total throughput — the
    numbers ``BENCH_E18-load.json`` tracks.

    :param spec: a ``tcp://host:port`` endpoint (the load generator
        measures the wire; local transports have no wire to pipeline).
    :param phase_timeout: seconds any one barrier phase (connect,
        sequential pass, pipelined pass) may take before the run aborts
        with an error — a hung session must surface as a failure, not
        hang the benchmark forever.
    """
    from repro.service.client import PIPELINE_DEPTH, connect, parse_endpoint

    if parse_endpoint(spec).transport != "tcp":
        raise ConfigError(
            f"the load benchmark drives tcp:// sessions, got {spec!r}")
    if clients < 1:
        raise ConfigError(f"clients must be >= 1, got {clients}")
    if queries < 1:
        raise ConfigError(f"queries must be >= 1, got {queries}")
    if phase_timeout <= 0:
        raise ConfigError(
            f"phase_timeout must be > 0, got {phase_timeout}")

    # three sync points: all sessions up / sequential pass / pipelined
    # pass; the main thread participates to time each phase's wall
    barrier = threading.Barrier(clients + 1)
    rows: list = [None] * clients
    errors: list = []

    def worker(cid: int) -> None:
        try:
            client = connect(spec)
        except Exception as exc:  # noqa: BLE001 - reported, then re-raised
            errors.append((cid, exc))
            barrier.abort()
            return
        try:
            pairs = sample_query_pairs(client.n, queries,
                                       seed=seed + 7919 * (cid + 1))
            size = batch
            if size is None or size > queries:
                size = max(1, queries // 8)
            chunks = [pairs[lo:lo + size]
                      for lo in range(0, queries, size)]

            barrier.wait(phase_timeout)  # sessions up
            seq_lat = []
            t0 = time.perf_counter()
            seq_answers = []
            for chunk in chunks:
                t_req = time.perf_counter()
                seq_answers.append(client.dist_many(chunk))
                seq_lat.append(time.perf_counter() - t_req)
            t_seq = time.perf_counter() - t0
            seq = np.concatenate(seq_answers)

            barrier.wait(phase_timeout)  # sequential done everywhere
            client.pipeline_stats(reset=True)
            t0 = time.perf_counter()
            piped = np.concatenate(list(client.dist_stream(chunks)))
            t_pipe = time.perf_counter() - t0
            pstats = client.pipeline_stats(reset=True)

            barrier.wait(phase_timeout)  # pipelined done everywhere
            rows[cid] = {
                "client": cid,
                "queries": int(queries),
                "batch": int(size),
                "seq_seconds": t_seq,
                "pipe_seconds": t_pipe,
                "seq_qps": queries / t_seq,
                "pipe_qps": queries / t_pipe,
                "max_inflight": pstats["max_inflight"],
                "overlap_seconds": pstats["overlap_seconds"],
                "seq": _percentiles_ms(seq_lat),
                "pipe": _percentiles_ms(pstats["latencies"]),
                "_seq_lat": seq_lat,
                "_pipe_lat": pstats["latencies"],
                "identical": bool(np.array_equal(seq, piped)),
            }
        except threading.BrokenBarrierError:
            pass  # another client failed; its error is recorded
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            errors.append((cid, exc))
            barrier.abort()
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(cid,), daemon=True,
                                name=f"load-client-{cid}")
               for cid in range(clients)]
    for t in threads:
        t.start()
    walls = {}
    stalled = False
    try:
        # a timed-out wait breaks the barrier for every participant, so
        # one hung session aborts the whole run instead of wedging it
        barrier.wait(phase_timeout)
        t0 = time.perf_counter()
        barrier.wait(phase_timeout)
        walls["seq_wall_seconds"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        barrier.wait(phase_timeout)
        walls["pipe_wall_seconds"] = time.perf_counter() - t0
    except threading.BrokenBarrierError:
        stalled = True
    for t in threads:
        t.join(timeout=phase_timeout)
    if errors:
        cid, exc = errors[0]
        raise ReproError(f"load client {cid} failed: {exc}") from exc
    if stalled or any(row is None for row in rows):
        missing = [cid for cid, row in enumerate(rows) if row is None]
        raise ReproError(
            f"load benchmark stalled: clients {missing or '(none)'} did "
            f"not finish within phase_timeout={phase_timeout:.0f}s")

    seq_lat = [x for row in rows for x in row["_seq_lat"]]
    pipe_lat = [x for row in rows for x in row["_pipe_lat"]]
    for row in rows:
        del row["_seq_lat"], row["_pipe_lat"]
    total = clients * queries
    return {
        "endpoint": spec,
        "clients": int(clients),
        "queries_per_client": int(queries),
        "depth": PIPELINE_DEPTH,
        **walls,
        "seq_total_qps": total / walls["seq_wall_seconds"],
        "pipe_total_qps": total / walls["pipe_wall_seconds"],
        "seq": _percentiles_ms(seq_lat),
        "pipe": _percentiles_ms(pipe_lat),
        "per_client": rows,
        "identical": all(row["identical"] for row in rows),
    }
