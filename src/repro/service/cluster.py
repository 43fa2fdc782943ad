"""The fleet subsystem: distributed shard fan-out and scatter/gather
construction across multiple :class:`~repro.service.server.OracleServer`
hosts.

The paper computes distance sketches *distributedly*; this module is the
serving-side mirror of that idea.  A fleet is N frame-protocol hosts, each
owning a contiguous range of landmark shards (``repro serve
--shard-range LO:HI``), and a :class:`ClusterClient` that

* **plans and routes client-side** — the routing state every scheme
  keeps outside its shards (TZ pivot tables and the dense top block,
  gateway arrays, net universes) travels in full inside every host's
  RPIX blob, so the client fetches it once from any host and runs
  ``plan`` → ``route`` / ``finish`` locally (nothing else routes: a
  local session answers the unrouted request);
* **fans probes out** — each host receives one ``probe`` frame carrying
  exactly the per-shard requests for the shards it owns — served there
  by one ``answer`` pass — multiplexed by request id on that host's
  connection;
* **combines partials** — the store's own ``finish`` folds the gathered
  per-shard responses by shard id, so fleet answers are
  **bit-identical** to single-host serving, including
  :class:`~repro.errors.QueryError` parity on disconnected graphs.

That is the fleet's submit/collect pair (:mod:`repro.service.session`):
``submit`` plans and scatters, ``collect`` gathers and combines.
``dist_many`` is ``collect(submit(pairs))``, ``dist_stream`` the shared
bounded window over the pair, and the session's epochs and telemetry
live in one :class:`~repro.service.session.SessionClock` — the same
rules as every other transport, from the same code.

Epoch rule: one batch never mixes epochs.  Every probe reply is stamped
with the epoch that answered it; ``collect`` combines partials only
when every host (and its routing store) agree, refreshing and
replanning otherwise.  :meth:`ClusterClient.apply_updates` scatters an edge-change
batch to every host — repairs are deterministic functions of
``(graph, scheme, seed, changes)``, so a healthy fleet converges to the
same epoch — and refuses divergence with a typed
:class:`~repro.errors.ClusterError`.

Construction scatters too: :func:`build_distributed` samples the
scheme's random artifacts once (its :mod:`repro.oracle.schemes` row)
and fans the shard ranges across worker processes; each runs
:func:`build_shard_range` — the row's centralized build for one host's
range (for TZ, growing only the clusters of the landmarks the range
owns plus the top level every label carries — Lemma 3.2's backstop) —
byte-identical to :func:`~repro.service.index.restrict_index_shards`
of one full build from the same artifacts, and returns the RPIX blob
that host serves.

See ``docs/serving.md`` §10 for the operator's guide and
``docs/architecture.md`` for the fleet diagram.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

import numpy as np

from repro.errors import ClusterError, ConfigError, ReproError
from repro.service.client import (DEFAULT_PIPELINE_DEPTH, Endpoint,
                                  _TcpTransport, connect, parse_endpoint)
from repro.oracle.schemes import get_scheme
from repro.service.index import (IndexStore, build_index, parse_pair_array,
                                 restrict_index_shards)
from repro.service.server import OracleServer
from repro.service.session import SessionClock, stream_window
from repro.service.updates import UpdateReport


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
def even_ranges(num_shards: int, num_hosts: int) -> list[tuple[int, int]]:
    """Contiguous near-even shard ranges, one per host (the default
    placement everywhere a fleet is spawned: ``loopback_fleet``,
    ``build_distributed``, ``repro cluster-bench``).

    :raises ConfigError: when a host would end up with no shard.
    """
    if num_hosts < 1:
        raise ConfigError(f"num_hosts must be >= 1, got {num_hosts}")
    if num_hosts > num_shards:
        raise ConfigError(
            f"{num_hosts} hosts for {num_shards} shards — every host "
            f"needs at least one shard")
    base, rem = divmod(num_shards, num_hosts)
    ranges, lo = [], 0
    for i in range(num_hosts):
        hi = lo + base + (1 if i < rem else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


@dataclass(frozen=True)
class ClusterSpec:
    """A fleet's membership — the parsed form of the
    ``cluster://host:port,host:port`` endpoint grammar."""

    hosts: tuple  # of (host, port)

    @classmethod
    def parse(cls, spec: Any) -> "ClusterSpec":
        """Normalize any fleet description: a ``cluster://`` (or single
        ``tcp://``) endpoint spec, a bare ``host:port,host:port`` list,
        an iterable of ``(host, port)`` pairs, or a spec object.

        :raises ConfigError: when no hosts can be extracted.
        """
        if isinstance(spec, ClusterSpec):
            return spec
        if isinstance(spec, str):
            if "://" not in spec:
                spec = f"cluster://{spec}"
            endpoint = parse_endpoint(spec)
            if endpoint.transport == "tcp":
                return cls(hosts=((endpoint.host, endpoint.port),))
            if endpoint.transport != "cluster":
                raise ConfigError(
                    f"a fleet spec wants cluster:// (or tcp:// for a "
                    f"one-host fleet), got {spec!r}")
            return cls(hosts=endpoint.options["hosts"])
        hosts = tuple((str(h), int(p)) for h, p in spec)
        if not hosts:
            raise ConfigError("cluster spec names no hosts")
        return cls(hosts=hosts)

    def describe(self) -> str:
        return "cluster://" + ",".join(f"{h}:{p}" for h, p in self.hosts)


# ----------------------------------------------------------------------
# the fleet session
# ----------------------------------------------------------------------
class ClusterClient:
    """A serving session over a fleet of shard-range hosts — the
    transport behind ``connect("cluster://h1:p1,h2:p2")``, also usable
    directly.

    Speaks the protocol-v3 frames to every host (one
    :class:`~repro.service.client._TcpTransport` each, so probes are
    multiplexed by request id like single-host queries).  ``plan``,
    ``route`` and ``finish`` run client-side on a routing store fetched
    from the fleet; only ``answer`` work crosses the wire, scattered to
    the hosts that own each shard.  Answers — including
    :class:`~repro.errors.QueryError` behaviour — are bit-identical to
    one full host serving the same index.

    Any per-host failure surfaces as a typed
    :class:`~repro.errors.ClusterError` carrying the ``host:port`` →
    cause map, so a fleet with one dead host fails fast with the host
    list instead of a bare ``ConnectionError``; the surviving hosts'
    sessions stay live and a fresh client over them keeps answering for
    the shards they own.
    """

    name = "cluster"

    #: how many times a batch replans when a hot swap lands mid-flight
    _EPOCH_RETRIES = 4
    #: seconds the first replan waits, doubling each time: a host still
    #: applying the batch its peers already swapped to can only be
    #: waited for, and a replan cycle is far shorter than a repair
    _EPOCH_BACKOFF = 0.002

    def __init__(self, hosts: Any, *, timeout: Optional[float] = None,
                 pipeline_depth: int = DEFAULT_PIPELINE_DEPTH):
        self.clock = SessionClock(pipeline_depth)
        self.spec = ClusterSpec.parse(hosts)
        self._apply_lock = threading.Lock()
        self._router_lock = threading.Lock()
        self._transports: dict[str, _TcpTransport] = {}
        causes: dict[str, Any] = {}
        for host, port in self.spec.hosts:
            key = f"{host}:{port}"
            if key in self._transports:
                self._close_all()
                raise ConfigError(f"duplicate host {key} in cluster spec")
            try:
                self._transports[key] = _TcpTransport(
                    Endpoint("tcp", host=host, port=port),
                    timeout=timeout, pipeline_depth=pipeline_depth)
            except (ConfigError, ConnectionError, OSError) as exc:
                causes[key] = exc
        if causes:
            self._close_all()
            raise ClusterError("cannot connect to the whole fleet", causes)
        try:
            self._validate_fleet()
            self._refresh_router()
        except ReproError:
            self._close_all()
            raise
        self.clock.start(self._router_epoch)

    # -- membership ----------------------------------------------------
    def _validate_fleet(self) -> None:
        """Hello-frame consistency plus shard placement: every host must
        agree on ``(n, scheme, num_shards, updateable)``, and every
        shard must have an owner (the first host advertising it)."""
        first_key = next(iter(self._transports))
        first = self._transports[first_key]
        for attr in ("n", "scheme", "num_shards", "updateable"):
            disagree = {
                key: f"{attr}={getattr(t, attr)!r}"
                for key, t in self._transports.items()
                if getattr(t, attr) != getattr(first, attr)}
            if disagree:
                disagree[first_key] = f"{attr}={getattr(first, attr)!r}"
                raise ClusterError(
                    f"fleet hosts disagree on {attr}", disagree)
        self.n = first.n
        self.scheme = first.scheme
        self.num_shards = first.num_shards
        self.updateable = first.updateable
        owner: list[Optional[str]] = [None] * self.num_shards
        for key, t in self._transports.items():
            lo, hi = t.shard_range or (0, self.num_shards)
            for s in range(lo, hi):
                if owner[s] is None:
                    owner[s] = key
        missing = [s for s, o in enumerate(owner) if o is None]
        if missing:
            raise ClusterError(
                f"no host serves shard(s) {missing} of {self.num_shards}",
                {key: f"owns {list(t.shard_range or (0, self.num_shards))}"
                 for key, t in self._transports.items()})
        #: shard id -> owning host key
        self._owner = owner
        #: host key -> the sorted shard ids it answers for this client
        self._by_host: dict[str, list[int]] = {}
        for s, key in enumerate(owner):
            self._by_host.setdefault(key, []).append(s)

    def placement(self) -> dict[str, list[int]]:
        """Host ``"host:port"`` → the shard ids this session routes to
        it (hosts whose whole range is shadowed by earlier hosts are
        absent)."""
        return {key: list(shards) for key, shards in self._by_host.items()}

    # -- the routing store ---------------------------------------------
    def _refresh_router(self) -> None:
        """(Re)fetch the routing store: any host's RPIX blob carries the
        full ``plan``/``finish`` state (restriction only drops rows of
        the shard-local tables), so the first host serves as the source
        of truth."""
        key = next(iter(self._transports))
        try:
            index, epoch = self._transports[key].fetch_index_pinned(None)
        except (ConnectionError, ReproError) as exc:
            raise ClusterError("cannot fetch the fleet's routing index",
                               {key: exc}) from None
        with self._router_lock:
            self._router: IndexStore = index
            self._router_epoch: int = epoch

    def _router_snapshot(self) -> tuple[IndexStore, int]:
        with self._router_lock:
            return self._router, self._router_epoch

    # -- the scatter/gather core ---------------------------------------
    def _post_probes(self, requests: list) -> dict[str, int]:
        """Scatter one probe frame per host (its owned shards' requests,
        in shard order); returns host → request id."""
        rids: dict[str, int] = {}
        causes: dict[str, Any] = {}
        for key, shards in self._by_host.items():
            try:
                rids[key] = self._transports[key].post_probe(
                    shards, (requests[s] for s in shards))
            except (ConnectionError, ReproError) as exc:
                causes[key] = exc
        if causes:
            # keep the surviving hosts' sessions clean before failing
            self._drain_probes(rids)
            raise ClusterError("probe fan-out failed", causes)
        return rids

    def _gather_probes(self, rids: dict[str, int],
                       ) -> tuple[list, dict[str, int]]:
        """Await every host's reply; returns ``(responses, epochs)``
        with the partials scattered back into one shard-indexed list."""
        responses: list = [None] * self.num_shards
        epochs: dict[str, int] = {}
        causes: dict[str, Any] = {}
        for key, rid in rids.items():
            try:
                parts, epoch = self._transports[key].await_probe(rid)
            except (ConnectionError, ReproError) as exc:
                causes[key] = exc
                continue
            epochs[key] = epoch
            for s, part in zip(self._by_host[key], parts):
                responses[s] = part
        if causes:
            raise ClusterError("probe gather failed", causes)
        return responses, epochs

    def _drain_probes(self, rids: dict[str, int]) -> None:
        for key, rid in rids.items():
            try:
                self._transports[key].await_probe(rid)
            except (ConnectionError, ReproError):
                pass

    # -- the session surface: a submit/collect pair --------------------
    def _submit(self, pairs) -> Optional[tuple]:
        """Plan one batch on the routing store, route its request shard
        by shard and scatter the probes; returns the ticket for
        :meth:`_collect` (``None`` for an empty batch)."""
        arr = parse_pair_array(pairs)
        if arr.size == 0:
            return None
        router, repoch = self._router_snapshot()
        state, requests = router.route(*router.plan(arr[:, 0], arr[:, 1]))
        return arr, router, repoch, state, self._post_probes(requests)

    def _collect(self, ticket: Optional[tuple]) -> tuple[np.ndarray, int]:
        """Gather one batch's partials and combine them —
        ``(answers, epoch)``.  Partials are combined only when every
        host answered from the routing store's epoch; when a hot swap
        landed inside the batch's flight window they are discarded and
        the batch is replanned against a refreshed router (at most
        ``_EPOCH_RETRIES`` times, backing off so that a host still
        mid-swap can finish)."""
        if ticket is None:
            return np.empty(0, dtype=np.float64), self.clock.epoch
        stale: dict[str, Any] = {}
        for attempt in range(self._EPOCH_RETRIES + 1):
            if attempt:
                time.sleep(self._EPOCH_BACKOFF * 2 ** (attempt - 1))
                self._refresh_router()
                ticket = self._submit(ticket[0])
            _, router, repoch, state, rids = ticket
            responses, epochs = self._gather_probes(rids)
            if all(e == repoch for e in epochs.values()):
                return router.finish(state, responses), repoch
            stale = {key: f"epoch {e} (router at {repoch})"
                     for key, e in epochs.items() if e != repoch}
        raise ClusterError(
            f"fleet epochs did not settle within "
            f"{self._EPOCH_RETRIES} replans", stale)

    def dist_many(self, pairs) -> np.ndarray:
        return self.clock.answer(self._collect(self._submit(pairs)))

    def dist_stream(self, batches) -> Iterator[np.ndarray]:
        """Pipelined fleet streaming: :func:`~repro.service.session.
        stream_window` keeps up to ``pipeline_depth`` batches in
        flight, each scattered across every host's id window, and
        yields answers in submit order."""
        return self.clock.consume(stream_window(
            batches, self._submit, self._collect, self.clock.depth,
            self.clock.pipeline))

    def apply_updates(self, changes) -> UpdateReport:
        """Scatter an edge-change batch to every host and hot-swap the
        fleet.  Repair is deterministic given the same
        ``(graph, scheme, seed, params)``, so healthy hosts converge to
        the same ``(epoch, mode)``; divergence (or any per-host
        failure) raises a typed :class:`~repro.errors.ClusterError`
        before a single mixed-epoch answer can be served — the routing
        store is refreshed only after the whole fleet agrees."""
        with self._apply_lock:
            reports: dict[str, UpdateReport] = {}
            causes: dict[str, Any] = {}
            for key, t in self._transports.items():
                try:
                    reports[key] = t.apply_updates(changes)
                except (ConnectionError, ReproError) as exc:
                    causes[key] = exc
            if causes:
                raise ClusterError("apply_updates failed on some hosts",
                                   causes)
            agreed = {(r.epoch, r.mode) for r in reports.values()}
            if len(agreed) > 1:
                raise ClusterError(
                    "fleet diverged after apply_updates",
                    {key: f"epoch {r.epoch} ({r.mode})"
                     for key, r in reports.items()})
            report = next(iter(reports.values()))
            if report.mode != "noop":
                self._refresh_router()
            self.clock.fold(report.epoch)
            return report

    def stats(self) -> dict:
        """Fleet-level statistics: the shared identity, per-host server
        stats keyed ``"host:port"`` (each tagged with its advertised
        range and the shards this session routes to it), and the
        cluster pipeline counters."""
        per_host: dict[str, dict] = {}
        causes: dict[str, Any] = {}
        for key, t in self._transports.items():
            try:
                host_stats = t.stats()
            except (ConnectionError, ReproError) as exc:
                causes[key] = exc
                continue
            host_stats["shard_range"] = list(
                t.shard_range or (0, self.num_shards))
            host_stats["routed_shards"] = list(self._by_host.get(key, ()))
            per_host[key] = host_stats
        if causes:
            raise ClusterError("stats failed on some hosts", causes)
        return {"n": self.n, "scheme": self.scheme,
                "epoch": self.clock.epoch,
                "updateable": self.updateable, "shards": self.num_shards,
                "hosts": per_host,
                "pipeline": self.clock.pipeline_summary()}

    def fetch_index(self, path: Optional[str] = None):
        """The full served store — only possible when some host serves
        every shard (a one-host fleet, or a full host fronted by range
        hosts); a partitioned fleet has no single whole-index source.

        :raises ConfigError: when every host is range-restricted.
        """
        for t in self._transports.values():
            if t.shard_range is None:
                return t.fetch_index(path)
        raise ConfigError(
            "every fleet host is shard-range-restricted — there is no "
            "whole index to fetch (pull per-host blobs over tcp://, or "
            "rebuild with build_distributed)")

    def close(self) -> None:
        self._close_all()

    def _close_all(self) -> None:
        for t in self._transports.values():
            try:
                t.close()
            except OSError:  # pragma: no cover - already torn down
                pass

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ClusterClient({self.spec.describe()!r}, n={self.n}, "
                f"scheme={self.scheme}, epoch={self.clock.epoch})")


# ----------------------------------------------------------------------
# fleets for tests, benchmarks, and docs
# ----------------------------------------------------------------------
@contextmanager
def loopback_fleet(source: Any, num_hosts: int, *,
                   num_shards: Optional[int] = None, jobs: int = 1,
                   cache_size: int = 65536):
    """Spawn ``num_hosts`` shard-range hosts on loopback (background
    event loops) and yield ``(spec, servers)`` — ``spec`` is the
    ``cluster://...`` endpoint the fleet answers on.

    ``source`` is served by every host, physically restricted to its
    :func:`even_ranges` slice; pass a callable ``factory(i, lo, hi)``
    instead to give each host its own source (an updateable fleet wants
    one :class:`~repro.service.updates.UpdateableIndex` per host).
    ``num_shards`` is inferred when the source carries a shard count.
    """
    if callable(source) and not hasattr(source, "plan"):
        factory = source
    else:
        def factory(i, lo, hi):
            return source
        if num_shards is None:
            carrier = getattr(source, "index", source)
            num_shards = getattr(carrier, "num_shards", None)
    if num_shards is None:
        raise ConfigError(
            "loopback_fleet needs num_shards= when the source does not "
            "carry a shard count")
    servers: list[OracleServer] = []
    try:
        for i, (lo, hi) in enumerate(even_ranges(int(num_shards),
                                                 int(num_hosts))):
            server = OracleServer(factory(i, lo, hi), jobs=jobs,
                                  num_shards=int(num_shards),
                                  cache_size=cache_size,
                                  shard_range=(lo, hi))
            server.serve("127.0.0.1:0", block=False)
            servers.append(server)
        spec = "cluster://" + ",".join(
            f"{srv.address[0]}:{srv.address[1]}" for srv in servers)
        yield spec, servers
    finally:
        for server in servers:
            server.close()


# ----------------------------------------------------------------------
# distributed construction
# ----------------------------------------------------------------------
def build_shard_range(graph, scheme: str = "tz", *, lo: int, hi: int,
                      num_shards: int, seed=None, **params) -> IndexStore:
    """Build landmark shards ``[lo, hi)`` of the scheme's index — the
    per-host unit of :func:`build_distributed`: the registry row's
    centralized build (:meth:`~repro.oracle.schemes.SchemeSpec.build`),
    restricted to the range.

    Where the row's per-owner function takes ``roots`` (``tz``) this is
    a genuinely partial construction, mirroring the paper's
    per-landmark decomposition: sub-top clusters are grown only for the
    landmarks the range owns (``lo <= w % num_shards < hi``; the top
    level, whose entries every label carries, is always grown), so a
    host's cluster work scales with its share of the landmark universe.
    The other schemes' layouts couple every owner in dense tables, so
    they build fully and restrict.  Either way the result is
    **byte-identical** to restricting a full build from the same
    artifacts (the same ``seed``, or the artifacts as ``params``).

    :raises ConfigError: on a bad range, missing scheme parameters, or
        a keyword a centralized build of the scheme does not read.
    """
    if not (0 <= int(lo) < int(hi) <= int(num_shards)):
        raise ConfigError(
            f"shard range [{lo}, {hi}) invalid for {num_shards} shards")
    lo, hi, num_shards = int(lo), int(hi), int(num_shards)
    spec = get_scheme(scheme)
    spec.check("centralized", params)
    hints = {}
    if "roots" in spec.hints:
        shard = np.arange(graph.n) % num_shards
        hints["roots"] = np.flatnonzero((lo <= shard) & (shard < hi))
    sketches = spec.build(graph, seed, params, **hints)[0]
    return restrict_index_shards(
        build_index(sketches, num_shards=num_shards), lo, hi)


def _build_range_blob(graph, scheme, lo, hi, num_shards,
                      artifacts) -> tuple[tuple[int, int], bytes]:
    """Worker entry of :func:`build_distributed` (module-level so it
    pickles into a process pool)."""
    from repro.oracle.serialization import index_binary_bytes

    index = build_shard_range(graph, scheme, lo=lo, hi=hi,
                              num_shards=num_shards, **artifacts)
    return (lo, hi), index_binary_bytes(index)


def build_distributed(graph, scheme: str = "tz", *, num_hosts: int,
                      num_shards: int, seed=None,
                      jobs: Optional[int] = None,
                      **params) -> list[tuple[tuple[int, int], bytes]]:
    """Scatter the index construction across ``num_hosts`` builders —
    one contiguous :func:`even_ranges` slice each — and gather the RPIX
    blobs their fleet hosts serve (``repro serve --shard-range LO:HI``
    each blob as a static source).

    Returns ``[((lo, hi), blob), ...]`` in range order.  The scheme's
    random artifacts are sampled **once** here and shipped to every
    builder, so the scatter shares one draw whatever ``seed`` is, and
    every blob is byte-identical to restricting a single full build
    from those artifacts — which is what makes a fleet built this way
    answer bit-identically to one big host.

    :param jobs: builder processes (default: one per host, capped by
        the CPU count); ``1`` builds serially in this process.
    :raises ConfigError: on a keyword a centralized build of the scheme
        does not read.
    """
    spec = get_scheme(scheme)
    spec.check("centralized", params)
    artifacts = spec.sample(graph, seed, params)
    ranges = even_ranges(int(num_shards), int(num_hosts))
    if jobs is None:
        jobs = min(len(ranges), os.cpu_count() or 1)
    if jobs <= 1 or len(ranges) == 1:
        return [_build_range_blob(graph, scheme, lo, hi, num_shards,
                                  artifacts)
                for lo, hi in ranges]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=int(jobs)) as pool:
        futures = [pool.submit(_build_range_blob, graph, scheme, lo, hi,
                               num_shards, artifacts)
                   for lo, hi in ranges]
        return [f.result() for f in futures]


# ----------------------------------------------------------------------
# the fleet benchmark (E21 / ``repro cluster-bench``)
# ----------------------------------------------------------------------
def run_cluster_benchmark(source: Any, *, hosts: Iterable[int] = (1, 2, 4),
                          num_shards: Optional[int] = None,
                          queries: int = 2000, batch: int = 256,
                          seed: int = 0, jobs: int = 1) -> dict:
    """Loopback fleets of 1/2/4 hosts vs one full host, identity
    asserted unconditionally.

    Serves ``source`` once on a single full loopback host (the
    baseline), then on a ``loopback_fleet`` per entry of ``hosts``, and
    runs the same ``dist_many`` + ``dist_stream`` workload against
    every topology.  **Every** fleet's answers are compared bitwise
    against the baseline — a mismatch raises, it is never reported as a
    timing row — so the benchmark doubles as the fleet correctness
    oracle.  Timings are reported, never gated.
    """
    rows: list[dict] = []
    with OracleServer(source, jobs=jobs, num_shards=num_shards) as server:
        server.serve("127.0.0.1:0", block=False)
        n, scheme = server.n, server.scheme
        total_shards = server.num_shards
        rng = np.random.default_rng(seed)
        arr = rng.integers(0, n, size=(int(queries), 2), dtype=np.int64)
        batches = [arr[i:i + int(batch)]
                   for i in range(0, arr.shape[0], int(batch))]
        addr = f"tcp://{server.address[0]}:{server.address[1]}"
        with connect(addr) as session:
            t0 = time.perf_counter()
            reference = [session.dist_many(b) for b in batches]
            many_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            ref_stream = list(session.dist_stream(batches))
            stream_s = time.perf_counter() - t0
        for got, ref in zip(ref_stream, reference):
            if not np.array_equal(got, ref):  # pragma: no cover
                raise AssertionError("single-host stream diverged")
        baseline = {"hosts": 0, "topology": "single",
                    "dist_many_s": many_s, "dist_stream_s": stream_s,
                    "qps_many": queries / many_s if many_s else 0.0,
                    "identical": True}
        rows.append(baseline)

    for num_hosts in hosts:
        num_hosts = int(num_hosts)
        with loopback_fleet(source, num_hosts, num_shards=total_shards,
                            jobs=jobs) as (spec, servers):
            with connect(spec) as session:
                t0 = time.perf_counter()
                got_many = [session.dist_many(b) for b in batches]
                many_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                got_stream = list(session.dist_stream(batches))
                stream_s = time.perf_counter() - t0
        for got, ref in zip(got_many + got_stream, reference + reference):
            if not np.array_equal(got, ref):
                raise AssertionError(
                    f"fleet answers diverged from the single host at "
                    f"{num_hosts} hosts")
        rows.append({"hosts": num_hosts, "topology": "fleet",
                     "dist_many_s": many_s, "dist_stream_s": stream_s,
                     "qps_many": queries / many_s if many_s else 0.0,
                     "identical": True})
    return {"n": n, "scheme": scheme, "num_shards": total_shards,
            "queries": int(queries), "batch": int(batch),
            "seed": int(seed), "rows": rows}
