"""The serving layer: sessions over two transports, cut bulk batches,
live updates.

The paper's end product is a distance *oracle*: preprocess once, then
answer ``dist(u, v)`` queries with a bounded stretch.  This package makes
the oracle servable at scale — for **every** scheme in the library.
The front door is :func:`~repro.service.client.connect`::

    from repro.service import connect

    with connect("inproc://", built) as client:
        answers = client.dist_many(pairs)

* :mod:`repro.service.client` — the session API:
  :class:`OracleClient` (``dist`` / ``dist_many`` / ``dist_stream`` /
  ``apply_updates`` / ``stats``) over ``inproc://`` (this process) or
  ``tcp://host:port`` (a remote :class:`OracleServer`).  Answers are
  bit-identical across transports, and epoch hot swaps propagate to
  connected TCP clients without a reconnect,
* :mod:`repro.service.server` — :class:`OracleServer`, the
  ``python -m repro serve`` daemon: one event loop that answers small
  requests itself and hands large ones to a handler pool,
* :mod:`repro.service.protocol` — the version-3 frame protocol (one
  fixed binary head; raw arrays for ``query`` / ``result``),
* :mod:`repro.service.session` — the session core every transport
  shares: the one bounded streaming window (``stream_window``) over a
  per-transport submit/collect pair, and the session clock (epochs,
  :class:`EpochStaleness`, :class:`PipelineStats`),
* :mod:`repro.service.buffers` — arrays in one buffer: the 64-byte
  layout rule an RPIX container's blobs follow (loaded as read-only
  views over the bytes read or one ``mmap``), plus an array-tree codec
  the benchmark times,
* :mod:`repro.service.index` — the :class:`IndexStore` protocol and one
  pre-built vectorized store per scheme (:class:`TZIndex`,
  :class:`Stretch3Index`, :class:`CDGIndex`, :class:`GracefulIndex`),
  each answering a batch as plan → answer → finish; a store's physical
  form is ``(meta, arrays)``, adopted in one place whether it comes
  from sketches, a container or an incremental refresh,
* :class:`~repro.service.engine.QueryEngine` — the engine every session
  hosts over its one store: the result cache, the hot swap (an epoch
  is a store) and the local execution plane — a batch runs in the
  calling thread, and a bulk one (``2·RANGE_PAIRS`` pairs and up) is
  cut into pair ranges, at most one per CPU, on a thread pool the
  engine creates for it (the numpy kernels release the GIL; nothing is
  copied or pickled),
* :mod:`repro.service.updates` — the dynamic-update subsystem:
  :class:`UpdateableIndex` applies edge-change streams by repairing
  only the dirty frontier (bit-identical to a from-scratch rebuild,
  automatic rebuild fallback), and
  :meth:`QueryEngine.apply_updates <repro.service.engine.QueryEngine.apply_updates>`
  hot-swaps the resulting epochs with zero downtime; its seeded
  workloads (:func:`~repro.service.updates.sample_query_pairs`,
  :func:`~repro.service.updates.sample_weight_changes`) feed the tests,
  the examples and the scenario harness.

The serving benchmark is the ``bench/`` tree at the repository root
(``python3 bench/run.py --workload NAME``).

Batching and parallelism are performance features only: every answer is
bit-identical to the one-pair-at-a-time reference path, for any shard
count and however a batch is cut.  See ``docs/architecture.md`` for the layer
map and ``docs/serving.md`` for the operator's guide.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "client": ("TRANSPORTS", "Endpoint", "OracleClient", "connect",
               "parse_endpoint"),
    "engine": ("CacheStats", "PhaseTimings", "QueryEngine"),
    "index": ("CDGIndex", "GracefulIndex", "IndexStore", "Stretch3Index",
              "TZIndex", "build_index", "index_class_for", "refresh_index",
              "scheme_name_of_index"),
    "scenario": ("SCENARIOS", "ChurnEvent", "QueryEvent", "ScenarioOracle",
                 "ScenarioResult", "Trace", "generate_trace",
                 "run_named_scenario", "run_scenario", "served_subprocess"),
    "server": ("OracleServer",),
    "session": ("EpochStaleness", "PipelineStats", "UpdateReport"),
    "updates": ("EdgeChange", "UpdateableIndex", "dirty_frontier",
                "load_changes_jsonl", "sample_query_pairs",
                "sample_weight_changes", "save_changes_jsonl"),
})
