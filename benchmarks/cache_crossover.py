"""Does a result cache pay in front of a store?  Measures each store
class's ``cache_slots`` (the ``docs/serving.md`` §3 table).

At n = 2000 ER U[1, 10] it indexes every store (tz k = 2 and 3, cdg,
stretch3, graceful) and serves it through two in-process sessions over
the same store object, ``cache=0`` and ``cache=65536``, on four traffic
shapes: uniform pairs or Zipf-0.9 draws over 10⁶ pairs, in 1024-pair
``dist_many`` batches or as lone ``dist`` calls.  Each turn draws fresh
traffic (no batch is replayed) and times both sessions on it, in
alternating order; turn 0 warms up, and the cached session keeps its
table across turns, so the timed turns see it in steady state.  A store
defaults to the cache only if the cache wins on batched Zipf 0.9 — the
``inproc-zipf-cache`` shape — by the median of its per-turn ratios.

    PYTHONPATH=src python benchmarks/cache_crossover.py -o runs.json
    PYTHONPATH=src python benchmarks/cache_crossover.py --table runs.json

The first form measures and writes every timing; the second prints the
markdown tables and the chosen values from such a file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro import build_sketches
from repro.graphs import assign_uniform_weights, erdos_renyi
from repro.service import build_index, connect

N = 2000
STORES = {"tz-k2": ("tz", {"k": 2}), "tz-k3": ("tz", {"k": 3}),
          "cdg": ("cdg", {"eps": 0.3, "k": 2}),
          "stretch3": ("stretch3", {"eps": 0.3}), "graceful": ("graceful", {})}
SHAPES = ("uniform batches", "zipf batches", "uniform lone", "zipf lone")
#: the cache sizes compared, and the shape that decides between them
OFF, ON = 0, 65536
DECIDES = "zipf batches"
BATCH = 1024
#: pairs each session serves per turn, in batches and one by one
BATCH_PAIRS, LONE_PAIRS = 128 * BATCH, 4096
ZIPF_EXPONENT, ZIPF_UNIVERSE = 0.9, 10 ** 6


def make_graph():
    return assign_uniform_weights(erdos_renyi(N, seed=7), low=1, high=10,
                                  seed=8)


class Traffic:
    """Fresh pairs of one shape per call, from one seeded stream."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.universe = self.rng.integers(0, N, size=(ZIPF_UNIVERSE, 2))
        self.cdf = np.cumsum(np.arange(1, ZIPF_UNIVERSE + 1,
                                       dtype=np.float64) ** -ZIPF_EXPONENT)

    def draw(self, shape: str, count: int) -> np.ndarray:
        if shape.startswith("uniform"):
            return self.rng.integers(0, N, size=(count, 2))
        ranks = np.searchsorted(self.cdf,
                                self.rng.random(count) * self.cdf[-1])
        return self.universe[ranks]


def pairs_per_second(client, shape: str, pairs: np.ndarray) -> float:
    if shape.endswith("batches"):
        t0 = time.perf_counter()
        for i in range(0, len(pairs), BATCH):
            client.dist_many(pairs[i:i + BATCH])
    else:
        lone = pairs.tolist()
        t0 = time.perf_counter()
        for u, v in lone:
            client.dist(u, v)
    return len(pairs) / (time.perf_counter() - t0)


def measure(turns: int, out: str) -> list[dict]:
    graph, runs = make_graph(), []
    for name in STORES:
        scheme, params = STORES[name]
        t0 = time.perf_counter()
        store = build_index(build_sketches(graph, scheme, seed=11,
                                           **params).sketches)
        for shape in SHAPES:
            traffic = Traffic(seed=SHAPES.index(shape))
            count = BATCH_PAIRS if shape.endswith("batches") else LONE_PAIRS
            sessions = {size: connect(f"inproc://cache={size}", store)
                        for size in (OFF, ON)}
            qps = {OFF: [], ON: []}
            try:
                for turn in range(turns + 1):  # turn 0 warms up
                    pairs = traffic.draw(shape, count)
                    for size in ((OFF, ON), (ON, OFF))[turn % 2]:
                        rate = pairs_per_second(sessions[size], shape, pairs)
                        if turn:
                            qps[size].append(rate)
                cache = sessions[ON].stats()["cache"]
            finally:
                for client in sessions.values():
                    client.close()
            runs.append({"store": name, "shape": shape, "off": qps[OFF],
                         "on": qps[ON], "hit_ratio": cache["hits"] / max(
                             1, cache["hits"] + cache["misses"])})
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr,
              flush=True)
        with open(out, "w") as fh:
            json.dump(runs, fh, indent=1)
    return runs


def _cell(samples, scale: float = 1.0, digits: int = 2) -> str:
    q1, q2, q3 = np.percentile(samples, [25, 50, 75]) * scale
    return f"{q2:.{digits}f} [{q1:.{digits}f}–{q3:.{digits}f}]"


def ratios(run: dict) -> np.ndarray:
    """The cached session's pairs/s over the uncached one's, per turn."""
    return np.asarray(run["on"]) / np.asarray(run["off"])


def choose(run: dict) -> int:
    """The default the deciding shape's run implies."""
    return ON if np.median(ratios(run)) > 1.0 else OFF


def table(runs: list[dict]) -> str:
    from repro.service.index import INDEX_TYPES

    slots = {cls.scheme: cls.cache_slots for cls in INDEX_TYPES.values()}
    lines = ["| store | traffic | `cache=0` M pairs/s | `cache=65536` | "
             "on / off | hit ratio |", "|---|---|---:|---:|---:|---:|"]
    for run in runs:
        lines.append(f"| {run['store']} | {run['shape']} "
                     f"| {_cell(run['off'], 1e-6, 3)} "
                     f"| {_cell(run['on'], 1e-6, 3)} "
                     f"| {_cell(ratios(run))}× | {run['hit_ratio']:.2f} |")
    lines += ["", "| store | " + " | ".join(SHAPES)
              + " | chosen `cache_slots` | class value |",
              "|---|" + "---:|" * (len(SHAPES) + 2)]
    for name in STORES:
        mine = {r["shape"]: r for r in runs if r["store"] == name}
        if DECIDES not in mine:
            continue
        cells = " | ".join(f"{np.median(ratios(mine[s])):.2f}×"
                           if s in mine else "–" for s in SHAPES)
        lines.append(f"| {name} | {cells} | {choose(mine[DECIDES])} "
                     f"| {slots[STORES[name][0]]} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--table", metavar="RUNS",
                    help="print the tables from a runs file; measure "
                         "nothing")
    ap.add_argument("-o", "--out", default="cache_runs.json")
    ap.add_argument("--turns", type=int, default=10)
    args = ap.parse_args(argv)
    if args.table:
        with open(args.table) as fh:
            runs = json.load(fh)
    else:
        runs = measure(args.turns, args.out)
    print(table(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
