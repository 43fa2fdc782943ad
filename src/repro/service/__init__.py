"""The serving layer: sessions over two transports, batch threads,
live updates.

The paper's end product is a distance *oracle*: preprocess once, then
answer ``dist(u, v)`` queries with a bounded stretch.  This package makes
the oracle servable at scale — for **every** scheme in the library.
The front door is :func:`~repro.service.client.connect`::

    from repro.service import connect

    with connect("inproc://jobs=4", built) as client:
        answers = client.dist_many(pairs)

* :mod:`repro.service.client` — the session API:
  :class:`OracleClient` (``dist`` / ``dist_many`` / ``dist_stream`` /
  ``apply_updates`` / ``stats``) over ``inproc://`` (this process;
  ``inproc://jobs=N`` cuts every batch across N threads) or
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
  is a store) and the local execution plane — ``jobs=1`` answers a
  batch in the calling thread, ``jobs > 1`` in pair ranges on the one
  thread pool the engine owns for its whole life (the numpy kernels
  release the GIL; nothing is copied or pickled),
* :mod:`repro.service.updates` — the dynamic-update subsystem:
  :class:`UpdateableIndex` applies edge-change streams by repairing
  only the dirty frontier (bit-identical to a from-scratch rebuild,
  automatic rebuild fallback), and
  :meth:`QueryEngine.apply_updates <repro.service.engine.QueryEngine.apply_updates>`
  hot-swaps the resulting epochs with zero downtime,
* :func:`~repro.service.bench.run_serve_benchmark` /
  :func:`~repro.service.updates.run_update_benchmark` — the measurement
  harnesses behind ``repro serve-bench`` / ``repro update-bench`` and
  experiments E14/E16/E20.

Batching and parallelism are performance features only: every answer is
bit-identical to the one-pair-at-a-time reference path, for any shard
count and any thread count.  See ``docs/architecture.md`` for the layer
map and ``docs/serving.md`` for the operator's guide.
"""

from repro.service.bench import (run_connect_benchmark, run_load_benchmark,
                                 run_serve_benchmark, sample_query_pairs)
from repro.service.client import (TRANSPORTS, Endpoint, OracleClient,
                                  connect, parse_endpoint)
from repro.service.engine import CacheStats, PhaseTimings, QueryEngine
from repro.service.index import (CDGIndex, GracefulIndex, IndexStore,
                                 Stretch3Index, TZIndex, build_index,
                                 index_class_for, refresh_index,
                                 scheme_name_of, scheme_name_of_index)
from repro.service.scenario import (SCENARIOS, ChurnEvent, QueryEvent,
                                    ScenarioOracle, ScenarioResult, Trace,
                                    generate_trace, run_named_scenario,
                                    run_scenario, served_subprocess)
from repro.service.server import OracleServer
from repro.service.session import EpochStaleness, PipelineStats
from repro.service.updates import (EdgeChange, UpdateReport,
                                   UpdateableIndex, dirty_frontier,
                                   load_changes_jsonl, run_update_benchmark,
                                   sample_weight_changes, save_changes_jsonl)

__all__ = [
    "ChurnEvent",
    "Endpoint",
    "EpochStaleness",
    "OracleClient",
    "OracleServer",
    "QueryEvent",
    "SCENARIOS",
    "ScenarioOracle",
    "ScenarioResult",
    "TRANSPORTS",
    "Trace",
    "connect",
    "generate_trace",
    "parse_endpoint",
    "run_connect_benchmark",
    "run_named_scenario",
    "run_scenario",
    "scheme_name_of_index",
    "served_subprocess",
    "CDGIndex",
    "CacheStats",
    "EdgeChange",
    "GracefulIndex",
    "IndexStore",
    "PhaseTimings",
    "PipelineStats",
    "QueryEngine",
    "Stretch3Index",
    "TZIndex",
    "UpdateReport",
    "UpdateableIndex",
    "build_index",
    "dirty_frontier",
    "index_class_for",
    "load_changes_jsonl",
    "refresh_index",
    "run_load_benchmark",
    "run_serve_benchmark",
    "run_update_benchmark",
    "sample_query_pairs",
    "sample_weight_changes",
    "save_changes_jsonl",
    "scheme_name_of",
]
