"""The six workloads of the benchmark (see ``bench/README.md`` for why
each one is here, which layer does its work, and which four of them
``BENCHMARK.json`` hands to the driver that gates PRs).

Every workload is driven through the same four steps by ``run.py``:
``setup`` (one cold start, ending with the first answered request),
``run`` (a closed loop for a number of seconds, untraced or with the
harness recording a span around each call into a layer), ``check``
(the correctness gate, outside the timed phase) and ``teardown``.
All inputs come from the seed; the layers are reached only through
their public functions.
"""

from __future__ import annotations

import sys
import threading
import time
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.graphs import (assign_uniform_weights, erdos_renyi,
                          random_geometric)
from repro.oracle.api import build_sketches
from repro.oracle.serialization import load_index_binary, save_index_binary
from repro.service import build_index, connect, sample_weight_changes
from repro.service.buffers import tree_from_bytes, tree_to_bytes
from repro.tz.hierarchy import Hierarchy

import harness as h


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``--smoke`` swaps in the small column and changes
    nothing else."""

    serve_n: int        # nodes of the serving graph (ER, weights 1..10)
    churn_n: int        # nodes of the updateable random-geometric graph
    congest_n: int      # nodes of each CONGEST construction instance
    congest_instances: int
    zipf_universe: int  # distinct pairs the Zipf traffic draws from
    zipf_batches: int   # pre-drawn Zipf batches (replayed cyclically)
    sample: int         # pairs in each correctness / stretch sample
    setups: int         # cold starts per run at least; setup_s is the median
    setup_budget_s: float  # more of them (up to 15) until this much is spent
    warmup_s: float


FULL = Sizes(serve_n=2000, churn_n=400, congest_n=200, congest_instances=8,
             zipf_universe=10 ** 6, zipf_batches=1024, sample=2000,
             setups=3, setup_budget_s=3.0, warmup_s=2.0)
SMOKE = Sizes(serve_n=300, churn_n=120, congest_n=48, congest_instances=4,
              zipf_universe=10 ** 5, zipf_batches=128, sample=200,
              setups=1, setup_budget_s=0.0, warmup_s=0.2)

#: Zipf exponent of ``inproc-zipf-cache``: over 10^6 keys an LRU of
#: 65 536 entries settles at ≈59 % hits with evictions on every batch
#: (exponent 1.1 settles at 86 %; its ≈60 % is a cold-cache figure)
ZIPF_EXPONENT = 0.9


@dataclass
class Outcome:
    """One timed phase: throughput, the latencies of the workload's
    request, attempts and failures, and what the phase says about
    single layers."""

    qps: float
    latencies: list
    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    #: end-to-end metrics only this workload has (``update_p50_ms``,
    #: ``build_s``); ``run.py`` reports the untraced phase's
    end_to_end: dict = field(default_factory=dict)


@contextmanager
def timed(into: dict, key: str):
    t0 = time.perf_counter()
    yield
    into[key] = time.perf_counter() - t0


def exact_distances(graph, pairs: np.ndarray) -> np.ndarray:
    """Dijkstra distances for ``pairs`` (one solve per distinct source)."""
    sources, inverse = np.unique(pairs[:, 0], return_inverse=True)
    rows = np.atleast_2d(dijkstra(graph.to_csr(), directed=False,
                                  indices=sources))
    return rows[inverse, pairs[:, 1]]


class Workload:
    name = ""
    k = 2  # TZ parameter; the served stretch must stay <= 2k-1
    #: report the quietest chunk of requests (computed on one core) or
    #: the median window (threads the scheduler is free to place); see
    #: ``harness.throughput_windows``
    quietest = True

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.layers: dict = {}      # per-layer numbers read outside spans

    def subseed(self, tag: str, *index: int) -> int:
        """An independent stream per purpose, all from ``--seed``."""
        return int(np.random.SeedSequence(
            [self.seed, zlib.crc32(tag.encode()), *index]
        ).generate_state(1)[0])

    def rng(self, tag: str, *index: int) -> np.random.Generator:
        return np.random.default_rng(self.subseed(tag, *index))

    def hierarchy(self, n: int, *index: int) -> Hierarchy:
        """The paper's hierarchy with every level at its expected size,
        ``|A_i| = round(n^(1-i/k))``, members drawn from the seed.  Coin
        flips would move the landmark count, and with it sketch size,
        index size and every timing, by ±15 % from seed to seed."""
        q = n ** (-1.0 / self.k)
        order = self.rng("hierarchy", *index).permutation(n)
        level = np.zeros(n, dtype=np.int64)
        for i in range(1, self.k):
            level[order[:max(1, round(n * q ** i))]] = i
        return Hierarchy(n=n, k=self.k, q=q, level=level)

    def sample_pairs(self, n: int, tag: str, *index: int) -> np.ndarray:
        """``sizes.sample`` pairs u != v over few sources, so the exact
        distances cost a few dozen Dijkstra runs."""
        rng = self.rng(tag, *index)
        count = self.sizes.sample
        sources = rng.choice(n, size=min(n, max(1, count // 40)),
                             replace=False)
        us = sources[rng.integers(0, sources.size, size=count)]
        vs = (us + rng.integers(1, n, size=count)) % n
        return np.stack([us, vs], axis=1).astype(np.int64)

    def stretch_check(self, cases: list) -> tuple[int, int]:
        """The paper's guarantee on what was actually served: one
        ``(graph, pairs, estimates)`` case per graph answered from."""
        ratio = np.concatenate([
            np.asarray(estimates) / exact_distances(graph, pairs)
            for graph, pairs, estimates in cases])
        self.stretch_mean = float(ratio.mean())
        self.layers["stretch_max"] = float(ratio.max())
        bound = 2 * self.k - 1
        ok = bool(ratio.min() >= 1.0 - 1e-9 and ratio.max() <= bound + 1e-9)
        if not ok:
            print(f"stretch outside [1, {bound}]: min {ratio.min()} "
                  f"max {ratio.max()}", file=sys.stderr)
        return 1, 0 if ok else 1

    def note_words(self, words: list) -> None:
        """Sketch size in words, the paper's accounting."""
        self.words_mean = sum(words) / len(words)
        self.layers["sketch_words_max"] = max(words)

    def rss_peak_mb(self) -> float:
        return h.self_rss_peak_mb()

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tracer: Optional[h.Tracer]) -> Outcome:
        raise NotImplementedError

    def check(self) -> tuple[int, int]:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# the four workloads that serve the RPIX container
# ----------------------------------------------------------------------
class Serving(Workload):
    """Weighted ER graph → TZ k=2 centralized build → 4-shard index →
    RPIX on disk → reloaded memory-mapped: the store every serving
    workload answers from."""

    batch = 1024
    clients = 1

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        super().__init__(seed, sizes, workdir)
        # traffic is the harness's own work, not the system's set-up
        self.pools = [self.make_pool(c) for c in range(self.clients)]
        self.rpix = workdir / "serving.rpix"

    def setup(self) -> None:
        n, layers = self.sizes.serve_n, self.layers
        with timed(layers, "graphs.gen_s"):
            graph = assign_uniform_weights(
                erdos_renyi(n, seed=self.subseed("graph")), 1.0, 10.0,
                seed=self.subseed("weights"))
            if not graph.is_connected():
                raise RuntimeError("serving graph is not connected")
        with timed(layers, "tz.build_sketches_s"):
            built = build_sketches(graph, "tz", hierarchy=self.hierarchy(n))
        with timed(layers, "index.build_s"):
            index = build_index(built.sketches, num_shards=4)
        with timed(layers, "serialization.save_rpix_s"):
            save_index_binary(index, self.rpix)
        with timed(layers, "serialization.load_rpix_s"):
            self.store = load_index_binary(self.rpix, backing="mmap")
        layers["index.nnz"] = self.store.nnz()
        layers["index_bytes"] = self.rpix.stat().st_size
        self.note_words(built.sizes_words())
        self.graph = graph
        self.cursor = 0
        self.open()

    def make_pool(self, client: int) -> np.ndarray:
        """Pre-drawn uniform traffic, replayed cyclically so that no
        generator runs inside the timed loop."""
        return self.rng("traffic", client).integers(
            0, self.sizes.serve_n, size=(256, self.batch, 2))

    def open(self) -> None:
        raise NotImplementedError

    def serve_sample(self, client: int, pairs: np.ndarray) -> np.ndarray:
        """Answers for ``pairs`` the way this workload asks for them."""
        raise NotImplementedError

    def check(self) -> tuple[int, int]:
        """Served answers bit-identical to ``store.estimate`` on one
        sample per client (concurrently where the workload has several
        clients, which also catches replies crossing under pipelining),
        and within the stretch bound against Dijkstra."""
        n, store = self.sizes.serve_n, self.store
        samples = [self.sample_pairs(n, "sample", c)
                   for c in range(self.clients)]
        t0 = time.perf_counter()
        expected = [np.array([store.estimate(int(u), int(v))
                              for u, v in pairs]) for pairs in samples]
        self.layers["index.estimate_us"] = (
            (time.perf_counter() - t0) / sum(map(len, samples)) * 1e6)
        served: list = [None] * self.clients

        def ask(c: int) -> None:
            served[c] = self.serve_sample(c, samples[c])

        threads = [threading.Thread(target=ask, args=(c,), daemon=True)
                   for c in range(1, self.clients)]
        for t in threads:
            t.start()
        ask(0)
        for t in threads:
            t.join()
        attempted = failed = 0
        for got, want in zip(served, expected):
            attempted += len(want)
            failed += (len(want) if got is None or len(got) != len(want)
                       else int(np.count_nonzero(got != want)))
        a, f = self.stretch_check([(self.graph, samples[0], expected[0])])
        return attempted + a, failed + f

    def codec_layers(self, request: np.ndarray, reply: np.ndarray,
                     tracer: h.Tracer) -> dict:
        """Frame-body codec cost on this workload's own arrays."""
        wire_req, wire_rep = tree_to_bytes(request), tree_to_bytes(reply)
        out = {}
        for key, fn in (
                ("buffers.encode_request", lambda: tree_to_bytes(request)),
                ("buffers.decode_request",
                 lambda: np.asarray(tree_from_bytes(wire_req))),
                ("buffers.encode_reply", lambda: tree_to_bytes(reply)),
                ("buffers.decode_reply",
                 lambda: np.array(tree_from_bytes(wire_rep),
                                  dtype=np.float64))):
            with tracer.span(key):
                out[f"{key}_us"] = h.mean_us(fn, 200)
        return out


def phase_delta(before: dict, after: dict) -> dict:
    """``stats()["phases"]`` over a timed phase, as ``workers.*``."""
    b, a = before["phases"], after["phases"]
    return {"workers.plan_s": a["plan_seconds"] - b["plan_seconds"],
            "workers.kernel_s": a["kernel_seconds"] - b["kernel_seconds"],
            "workers.finish_s": a["finish_seconds"] - b["finish_seconds"],
            "workers.ipc_s": a["ipc_seconds"] - b["ipc_seconds"],
            "workers.batches": a["batches"] - b["batches"]}


def cache_delta(before: dict, after: dict) -> dict:
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    return {"engine.cache_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
            "engine.cache_evictions":
            after["cache"]["evictions"] - before["cache"]["evictions"]}


def _no_span(name: str, request: int):
    return nullcontext()


def span_walls(tracer: h.Tracer, name: str) -> list:
    return [end - start for n, start, end, _, _ in tracer.rows if n == name]


class Inproc(Serving):
    """One caller, ``dist_many`` batches through an in-process session."""

    spec = ""
    replay_rows = 0  # rows the session computed on its last traced batch

    def open(self) -> None:
        self.client = connect(self.spec, self.store)
        self.cached = self.client.stats()["cache_size"] > 0
        self.client.dist_many(self.pools[0][0])

    def teardown(self) -> None:
        self.client.close()
        self.rpix.unlink()

    def serve_sample(self, client: int, pairs: np.ndarray) -> np.ndarray:
        return np.concatenate([self.client.dist_many(pairs[i:i + self.batch])
                               for i in range(0, len(pairs), self.batch)])

    def run(self, seconds: float, tracer: Optional[h.Tracer]) -> Outcome:
        pool, base = self.pools[0], self.cursor
        client = self.client
        before = client.stats()
        if tracer is None:
            samples = h.closed_loop(
                seconds, lambda i: len(client.dist_many(
                    pool[(base + i) % len(pool)])))
        else:
            samples = h.closed_loop(
                seconds, lambda i: self.traced_request(
                    tracer, i, pool[(base + i) % len(pool)]))
        after = client.stats()
        self.cursor = base + samples.attempted
        windows = h.throughput_windows([samples], seconds, self.quietest)
        out = Outcome(windows["qps"], samples.latency, samples.attempted,
                      samples.failed, detail=windows,
                      layers={**phase_delta(before, after),
                              **cache_delta(before, after)})
        if tracer is not None:
            out.latencies = span_walls(tracer, "engine.dist_many")
            out.layers.update(self.kernel_layers(tracer))
            out.layers.update(self.codec_layers(
                pool[0], client.dist_many(pool[0]), tracer))
        return out

    def traced_request(self, tracer: h.Tracer, i: int,
                       batch: np.ndarray) -> int:
        """Even requests go through the session; odd ones drive the
        store's three kernels by hand on as many rows as the session
        last had to compute (all of them without a cache, the misses
        with one), so that engine time and kernel time can be told
        apart from outside."""
        client, store = self.client, self.store
        if i % 2 == 0:
            misses = client.stats()["cache"]["misses"]
            with tracer.span("engine.dist_many", i):
                answers = client.dist_many(batch)
            if self.cached:
                self.replay_rows = (client.stats()["cache"]["misses"]
                                    - misses)
            return len(answers)
        rows = batch[:self.replay_rows] if self.cached else batch
        with tracer.span("index.replay", i):
            with tracer.span("index.plan", i):
                state, requests = store.plan(rows[:, 0], rows[:, 1])
            responses = []
            for shard, request in enumerate(requests):
                with tracer.span("index.shard_answer", i):
                    responses.append(store.shard_answer(shard, request))
            with tracer.span("index.finish", i):
                answers = store.finish(state, responses)
        return len(answers)

    def kernel_layers(self, tracer: h.Tracer) -> dict:
        replays = max(1, len(span_walls(tracer, "index.replay")))
        per_replay = {name: sum(span_walls(tracer, f"index.{name}"))
                      / replays * 1e6
                      for name in ("plan", "shard_answer", "finish")}
        engine = span_walls(tracer, "engine.dist_many")
        dist_many_us = sum(engine) / max(1, len(engine)) * 1e6
        return {"index.plan_us": per_replay["plan"],
                "index.shard_answer_us": per_replay["shard_answer"],
                "index.finish_us": per_replay["finish"],
                "engine.dist_many_us": dist_many_us,
                "engine.self_us": dist_many_us - sum(per_replay.values())}


class InprocBatch(Inproc):
    name = "inproc-batch"
    spec = "inproc://cache=0"


class InprocZipfCache(Inproc):
    name = "inproc-zipf-cache"
    spec = "inproc://"

    def make_pool(self, client: int) -> np.ndarray:
        """Zipf-ranked draws from a seeded universe of distinct-ish
        pairs: a working set larger than the default LRU, so hits,
        misses and evictions all happen in steady state."""
        sizes = self.sizes
        rng = self.rng("traffic", client)
        universe = rng.integers(0, sizes.serve_n,
                                size=(sizes.zipf_universe, 2))
        cdf = np.cumsum(np.arange(1, sizes.zipf_universe + 1,
                                  dtype=np.float64) ** -ZIPF_EXPONENT)
        ranks = np.searchsorted(
            cdf, rng.random(sizes.zipf_batches * self.batch) * cdf[-1])
        return universe[ranks].reshape(sizes.zipf_batches, self.batch, 2)


class Tcp(Serving):
    """Sessions to one ``python -m repro serve`` child, cache off."""

    quietest = False
    #: client and server share one core (``harness.pin_to_one_core``)
    one_core = False

    def open(self) -> None:
        if self.one_core:
            h.pin_to_one_core()
        self.child = h.ServeChild(self.rpix)
        self.layers["transport.server_start_s"] = self.child.start_s
        t0 = time.perf_counter()
        self.sessions = [connect(self.child.address)
                         for _ in range(self.clients)]
        self.layers["transport.connect_ms"] = (
            (time.perf_counter() - t0) / self.clients * 1e3)
        for c, session in enumerate(self.sessions):
            self.serve_sample(c, self.pools[c][0].reshape(-1, 2)[:self.batch])

    def teardown(self) -> None:
        try:
            for session in self.sessions:
                session.close()
        finally:
            self.child.close()
            self.rpix.unlink()

    def rss_peak_mb(self) -> float:
        return self.child.rss_peak_mb()

    def transport_layers(self, tracer: h.Tracer, before: dict, after: dict,
                         request: np.ndarray, reply: np.ndarray) -> dict:
        """Client-observed request time split into what the server
        reports as busy, the client's own codec, and the rest."""
        layers = phase_delta(before, after)
        walls = span_walls(tracer, "transport.request")
        request_us = sum(walls) / max(1, len(walls)) * 1e6
        server_us = ((layers["workers.plan_s"] + layers["workers.kernel_s"]
                      + layers["workers.finish_s"])
                     / max(1, layers["workers.batches"]) * 1e6)
        layers.update(self.codec_layers(request, reply, tracer))
        client_codec_us = (layers["buffers.encode_request_us"]
                           + layers["buffers.decode_reply_us"])
        walls_ms = np.asarray(walls) * 1e3
        pipeline = [s.pipeline_stats() for s in self.sessions]
        layers.update({
            **cache_delta(before, after),
            "transport.request_us": request_us,
            "transport.self_us": request_us - server_us - client_codec_us,
            "transport.request_p99_ms": float(np.percentile(walls_ms, 99)),
            "transport.request_max_ms": float(walls_ms.max()),
            "transport.handlers": after["handlers"],
            "transport.max_inflight": max(p["max_inflight"]
                                          for p in pipeline),
            "transport.overlap_s": sum(p["overlap_seconds"]
                                       for p in pipeline)})
        return layers


class TcpSingle(Tcp):
    name = "tcp-single"
    batch = 1
    one_core = True
    quietest = True  # on one core a neighbour can only slow the chain down

    def make_pool(self, client: int) -> np.ndarray:
        return self.rng("traffic", client).integers(
            0, self.sizes.serve_n, size=(4096, 1, 2))

    def serve_sample(self, client: int, pairs: np.ndarray) -> np.ndarray:
        session = self.sessions[client]
        return np.array([session.dist(int(u), int(v)) for u, v in pairs])

    def run(self, seconds: float, tracer: Optional[h.Tracer]) -> Outcome:
        session = self.sessions[0]
        pairs = [(int(u), int(v)) for u, v in self.pools[0][:, 0]]
        base = self.cursor

        def plain(i: int) -> int:
            session.dist(*pairs[(base + i) % len(pairs)])
            return 1

        def traced(i: int) -> int:
            with tracer.span("transport.request", i):
                session.dist(*pairs[(base + i) % len(pairs)])
            return 1

        before = session.stats() if tracer else None
        samples = h.closed_loop(seconds, traced if tracer else plain)
        self.cursor = base + samples.attempted
        windows = h.throughput_windows([samples], seconds, self.quietest)
        out = Outcome(windows["qps"], samples.latency, samples.attempted,
                      samples.failed, detail=windows)
        if tracer is not None:
            out.latencies = span_walls(tracer, "transport.request")
            out.layers = self.transport_layers(
                tracer, before, session.stats(), self.pools[0][0],
                np.array([session.dist(*pairs[0])]))
        return out


class TcpStream(Tcp):
    name = "tcp-stream"
    batch = 256
    clients = 2

    def serve_sample(self, client: int, pairs: np.ndarray) -> np.ndarray:
        batches = [pairs[i:i + self.batch]
                   for i in range(0, len(pairs), self.batch)]
        return np.concatenate(list(
            self.sessions[client].dist_stream(batches)))

    def stream(self, client: int, seconds: float, start: threading.Barrier,
               out: list) -> None:
        """One client thread: a ``dist_stream`` fed until time is up.
        A batch's latency is submit→reply as the session measures it."""
        session, pool = self.sessions[client], self.pools[client]
        samples = out[client] = h.Samples()
        session.pipeline_stats(reset=True)
        start.wait()
        samples.start = time.perf_counter()
        stop = samples.start + seconds
        base = self.cursor

        def feed():
            i = base
            while time.perf_counter() < stop:
                yield pool[i % len(pool)]
                i += 1

        try:
            for answers in session.dist_stream(feed()):
                samples.done.append(time.perf_counter())
                samples.pairs.append(len(answers))
        except Exception as exc:  # counted, the other client goes on
            print(f"stream client {client} failed: {exc!r}",
                  file=sys.stderr)
            samples.failed += 1
        samples.latency = list(
            session.pipeline_stats()["latencies"])[:len(samples.done)]

    def run(self, seconds: float, tracer: Optional[h.Tracer]) -> Outcome:
        before = self.sessions[0].stats() if tracer else None
        out: list = [None] * self.clients
        start = threading.Barrier(self.clients)
        threads = [threading.Thread(target=self.stream, daemon=True,
                                    args=(c, seconds, start, out))
                   for c in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.cursor += max(s.attempted for s in out)
        windows = h.throughput_windows(out, seconds, self.quietest)
        latencies = [lat for s in out for lat in s.latency]
        outcome = Outcome(windows["qps"], latencies,
                          sum(s.attempted for s in out),
                          sum(s.failed for s in out), detail=windows)
        if tracer is not None:
            # a streamed batch overlaps its neighbours: its span is laid
            # down afterwards from the session's own submit→reply clock
            for c, s in enumerate(out):
                for i, (done, lat) in enumerate(zip(s.done, s.latency)):
                    tracer.add("transport.request", done - lat, done,
                               i * self.clients + c)
            pool = self.pools[0]
            outcome.layers = self.transport_layers(
                tracer, before, self.sessions[0].stats(), pool[0],
                self.sessions[0].dist_many(pool[0]))
        return outcome


# ----------------------------------------------------------------------
# writes beside reads
# ----------------------------------------------------------------------
class ChurnMixed(Workload):
    """An updateable TZ index behind an in-process session: every step
    is one single-edge weight change applied, then eight read batches.
    The request whose latency is reported is the write; the reads are
    reported as ``query_qps`` over the time spent inside them."""

    name = "churn-mixed"
    batch = 1024
    reads_per_step = 8

    def setup(self) -> None:
        n, layers = self.sizes.churn_n, self.layers
        with timed(layers, "graphs.gen_s"):
            graph = random_geometric(n, seed=self.subseed("graph"))
            if not graph.is_connected():
                raise RuntimeError("churn graph is not connected")
        with timed(layers, "tz.build_sketches_s"):
            built = build_sketches(graph, "tz", hierarchy=self.hierarchy(n))
        with timed(layers, "index.build_s"):
            self.upd = built.updateable(num_shards=4)
        layers["index.nnz"] = self.upd.index.nnz()
        self.pool = self.rng("traffic").integers(
            0, n, size=(64, self.batch, 2))
        self.step = self.reads = 0
        self.client = connect("inproc://cache=0", self.upd)
        self.client.dist_many(self.pool[0])

    def teardown(self) -> None:
        self.client.close()

    def run(self, seconds: float, tracer: Optional[h.Tracer]) -> Outcome:
        client, upd, pool = self.client, self.upd, self.pool
        applies, reads = h.Samples(), h.Samples()
        reports, swaps = [], []
        before = client.stats()
        span = tracer.span if tracer else _no_span
        reads.start = time.perf_counter()
        stop = reads.start + seconds
        while time.perf_counter() < stop:
            step = self.step
            self.step += 1
            changes = sample_weight_changes(
                upd.graph, 1, seed=self.subseed("churn", step))
            try:
                t0 = time.perf_counter()
                with span("updates.apply", step):
                    report = client.apply_updates(changes)
                t1 = time.perf_counter()
            except Exception as exc:
                print(f"apply {step} failed: {exc!r}", file=sys.stderr)
                applies.failed += 1
                continue
            applies.note(t1, t1 - t0, 0)
            reports.append(report)
            swaps.append((t1 - t0) - report.seconds["total"])
            for _ in range(self.reads_per_step):
                batch = pool[self.reads % len(pool)]
                self.reads += 1
                try:
                    t0 = time.perf_counter()
                    with span("engine.dist_many", step):
                        answered = len(client.dist_many(batch))
                    t1 = time.perf_counter()
                except Exception as exc:
                    print(f"read in step {step} failed: {exc!r}",
                          file=sys.stderr)
                    reads.failed += 1
                    continue
                reads.note(t1, t1 - t0, answered)
        after = client.stats()
        windows = h.throughput_windows([reads], seconds, self.quietest,
                                       busy=True)
        apply_ms = np.array(applies.latency) * 1e3
        count = max(1, len(reports))

        def mean_ms(key: str) -> float:
            return sum(r.seconds.get(key, 0.0) for r in reports) / count * 1e3

        modes = [r.mode for r in reports]
        # (no workers.*: every swap starts a new shard server, and its
        # phase counters, from zero)
        layers = {
            **cache_delta(before, after),
            "engine.swap_ms": sum(swaps) / count * 1e3,
            "engine.dist_many_us": (sum(reads.latency)
                                    / max(1, len(reads.done)) * 1e6),
            "updates.frontier_ms": mean_ms("frontier"),
            "updates.repair_ms": mean_ms("repair"),
            "updates.index_ms": mean_ms("index"),
            "updates.dirty_fraction_mean":
                sum(r.dirty_fraction for r in reports) / count,
            "updates.rebuild_share": modes.count("rebuild") / count,
            "updates.noop_share": modes.count("noop") / count}
        return Outcome(windows["qps"], applies.latency,
                       applies.attempted + reads.attempted,
                       applies.failed + reads.failed,
                       detail={**windows, "applies": len(reports),
                               "reads": len(reads.done),
                               "read_latency": h.latency_stats(
                                   reads.latency, self.quietest)},
                       layers=layers,
                       end_to_end={
                           "update_p50_ms": float(np.median(apply_ms)),
                           "update_mean_ms": float(
                               apply_ms.sum()
                               / sum(r.changes for r in reports))})

    def check(self) -> tuple[int, int]:
        """After the churn: the repaired index equals a from-scratch
        rebuild on the final graph, the session serves exactly its
        estimates, and they respect the stretch bound on that graph."""
        upd = self.upd
        reference = upd.rebuild_reference()
        failed = 0 if upd.index == reference else 1
        pairs = self.sample_pairs(self.sizes.churn_n, "sample")
        t0 = time.perf_counter()
        expected = np.array([reference.estimate(int(u), int(v))
                             for u, v in pairs])
        self.layers["index.estimate_us"] = (
            (time.perf_counter() - t0) / len(pairs) * 1e6)
        served = self.client.dist_many(pairs)
        failed += int(np.count_nonzero(served != expected))
        self.note_words([s.size_words() for s in upd.sketches])
        a, f = self.stretch_check([(upd.graph, pairs, served)])
        return 1 + len(pairs) + a, failed + f


# ----------------------------------------------------------------------
# the paper's construction
# ----------------------------------------------------------------------
class CongestBuild(Workload):
    """The distributed Thorup–Zwick construction (k=3, echo
    termination) simulated round by round on seeded weighted ER graphs,
    then the paper's query — two sketches, nothing else — served from
    what was built.

    A cold start is one construction, and every cold start of a run
    constructs the next of ``congest_instances`` graphs, so ``setup_s``
    (and ``build_s``, the construction alone) is the median over some
    six instances: one construction is half a second of computation
    with no gap in it, far longer than the quiet spells of a shared
    host, so it cannot be timed the way the requests are, and one
    instance's size, stretch and cost move by 10–15 % with the seed.
    The request of the timed phase is one pass of the query over the
    sample of pairs, on the instances built, in turn.  The quality
    numbers are means over every instance built; the exact counts are
    instance 0's, which every run builds."""

    name = "congest-build"
    k = 3

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        super().__init__(seed, sizes, workdir)
        self.pairs = self.sample_pairs(sizes.congest_n, "sample")
        self.pair_list = [(int(u), int(v)) for u, v in self.pairs]
        self.graphs: dict = {}
        self.built: dict = {}
        self.build_walls: list = []     # one per cold start
        self.us_per_message: list = []

    def build(self, instance: int, sync: str = "echo"):
        return build_sketches(
            self.graphs[instance], "tz", mode="distributed", sync=sync,
            hierarchy=self.hierarchy(self.sizes.congest_n, instance),
            seed=self.subseed("simulator", instance))

    def setup(self) -> None:
        sizes, layers = self.sizes, self.layers
        instance = len(self.build_walls) % sizes.congest_instances
        with timed(layers, "graphs.gen_s"):
            graph = assign_uniform_weights(
                erdos_renyi(sizes.congest_n,
                            seed=self.subseed("graph", instance)),
                1.0, 10.0, seed=self.subseed("weights", instance))
            if not graph.is_connected():
                raise RuntimeError("a construction graph is not connected")
        self.graphs[instance] = graph
        with timed(layers, "tz.build_sketches_s"):
            built = self.built[instance] = self.build(instance)
        self.build_walls.append(layers["tz.build_sketches_s"])
        self.us_per_message.append(layers["tz.build_sketches_s"]
                                   / built.metrics.messages * 1e6)
        built.query(*self.pair_list[0])
        self.cursor = 0

    def teardown(self) -> None:
        pass  # the next cold start constructs another instance

    def run(self, seconds: float, tracer: Optional[h.Tracer]) -> Outcome:
        queries = [built.query for _, built in sorted(self.built.items())]
        pair_list, base = self.pair_list, self.cursor
        span = tracer.span if tracer else _no_span

        def request(i: int) -> int:
            query = queries[(base + i) % len(queries)]
            with span("tz.query", i):
                for u, v in pair_list:
                    query(u, v)
            return len(pair_list)

        samples = h.closed_loop(seconds, request)
        self.cursor = base + samples.attempted
        windows = h.throughput_windows([samples], seconds, self.quietest)
        layers = {"congest.us_per_message":
                  float(np.median(self.us_per_message))}
        if tracer is not None:
            with tracer.span("congest.build"):
                oracle = self.build(0, sync="oracle")
            layers["termination.echo_round_overhead"] = (
                self.built[0].metrics.rounds / oracle.metrics.rounds)
        return Outcome(windows["qps"], samples.latency, samples.attempted,
                       samples.failed,
                       detail={**windows, "build_s": self.build_walls},
                       layers=layers,
                       end_to_end={"build_s": float(
                           np.median(self.build_walls))})

    def check(self) -> tuple[int, int]:
        """Every instance built: its distributed sketches equal the
        centralized twin built from the same hierarchy, and answer
        within 2k-1 of Dijkstra."""
        attempted = differing = 0
        words, cases = [], []
        for instance, built in sorted(self.built.items()):
            graph = self.graphs[instance]
            twin = build_sketches(graph, "tz",
                                  hierarchy=built.extras["hierarchy"])
            attempted += len(built.sketches)
            differing += sum(a.pivots != b.pivots or a.bunch != b.bunch
                             for a, b in zip(built.sketches, twin.sketches))
            words += built.sizes_words()
            cases.append((graph, self.pairs,
                          [built.query(u, v) for u, v in self.pair_list]))
        self.note_words(words)
        first = self.built[0]
        metrics = first.metrics
        self.layers.update({
            "sketch_words_max": first.max_size_words(),
            "congest_rounds": metrics.rounds,
            "congest_messages": metrics.messages,
            "congest.words": metrics.words,
            "congest.max_inflight": metrics.max_inflight,
            "tz.distributed.max_queue_len": first.extras["max_queue_len"],
            "tz.distributed.tree_depth": first.extras["tree_depth"]})
        a, f = self.stretch_check(cases)
        return attempted + a, differing + f


WORKLOADS = {w.name: w for w in (InprocBatch, InprocZipfCache, TcpSingle,
                                 TcpStream, ChurnMixed, CongestBuild)}
