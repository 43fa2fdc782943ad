"""Golden CONGEST costs: the round engine's contract, pinned as constants.

Every construction below is deterministic given its seed, so its exact
cost — rounds, messages, words, the widest round, every per-phase row,
plus the TZ queue/tree observables — is a fixed tuple.  The constants were
recorded at the commit *before* the engine became event-driven; any engine
(the event-driven one, a future columnar one) must reproduce them exactly,
together with a digest of the outputs, or it is simulating a different
protocol.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.algorithms.bfs_tree import build_bfs_tree
from repro.algorithms.ksource import k_source_shortest_paths
from repro.algorithms.reliable_bf import reliable_single_source_distances
from repro.congest import DelayedSimulator, RunMetrics
from repro.graphs import shortest_path_diameter
from repro.slack import (
    build_cdg_distributed,
    build_density_net_distributed,
    build_graceful_distributed,
    build_stretch3_distributed,
)
from repro.tz import sample_hierarchy
from repro.tz.distributed import TZEchoProgram, build_tz_sketches_distributed
from repro.tz.sketch import ColumnLabels


def _canon(obj):
    """Order-free plain form of a result (dict insertion order is not part
    of a sketch's value)."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,
                _canon({f.name: getattr(obj, f.name)
                        for f in dataclasses.fields(obj)}))
    if isinstance(obj, dict):
        return sorted((_canon(k), _canon(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple, ColumnLabels)):
        return [_canon(x) for x in obj]
    return obj


def _digest(obj) -> str:
    return hashlib.sha1(repr(_canon(obj)).encode()).hexdigest()[:12]


def _row(metrics: RunMetrics, outputs, *extras) -> tuple:
    return (metrics.rounds, metrics.messages, metrics.words,
            metrics.max_inflight,
            [(p.name, p.rounds, p.messages, p.words) for p in metrics.phases],
            *extras, _digest(outputs))


# ----------------------------------------------------------------------
# the constructions
# ----------------------------------------------------------------------
def _tz(sync: str, budget: str, k: int):
    def run(g):
        S = shortest_path_diameter(g) if sync == "known_smax" else None
        res = build_tz_sketches_distributed(g, k=k, sync=sync, seed=7, S=S,
                                            budget=budget)
        return _row(res.metrics, res.sketches, res.max_queue_len,
                    res.tree_depth)
    return run


def _stretch3(g):
    sketches, _, metrics = build_stretch3_distributed(g, 0.25, seed=11)
    return _row(metrics, sketches)


def _cdg(sync: str):
    def run(g):
        sketches, _, _, metrics = build_cdg_distributed(g, 0.25, 2, seed=12,
                                                        sync=sync)
        return _row(metrics, sketches)
    return run


def _graceful(g):
    sketches, _, metrics = build_graceful_distributed(g, seed=13)
    return _row(metrics, sketches)


def _density_net(g):
    _, assignments, metrics = build_density_net_distributed(g, 0.25, seed=14)
    return _row(metrics, assignments)


def _ksource(drain: int):
    def run(g):
        dists, metrics = k_source_shortest_paths(g, [0, 5, 9, 14], seed=15,
                                                 drain_per_round=drain)
        return _row(metrics, dists)
    return run


def _bfs_tree(g):
    trees, metrics = build_bfs_tree(g, seed=16)
    return _row(metrics, trees)


def _reliable_bf(g):
    dists, fm, metrics = reliable_single_source_distances(
        g, 0, loss_rate=0.2, seed=17, fault_seed=18)
    return _row(metrics, dists, fm.dropped)


def _delayed_echo(g):
    max_delay = 3
    h = sample_hierarchy(g.n, 2, seed=19)
    sim = DelayedSimulator(
        g,
        lambda u: TZEchoProgram(u, g.n, 2, int(h.level[u]),
                                horizon=max_delay * (g.n + 2),
                                settle=max_delay),
        seed=20, max_delay=max_delay, delay_seed=21)
    res = sim.run()
    return _row(res.metrics, [p.sketch() for p in res.programs],
                max(p.max_queue_len for p in res.programs),
                max(p.tree.depth for p in res.programs),
                sim.max_observed_delay)


TZ_MODES = {"oracle": ("oracle", "whp"), "known-whp": ("known_smax", "whp"),
            "known-safe": ("known_smax", "safe"), "echo": ("echo", "whp")}
TZ_GRAPHS = ("er_weighted", "er_unit", "small_grid", "small_ring")

CASES = {
    **{f"tz-{mode}-k{k}-{graph}": (_tz(*TZ_MODES[mode], k), graph)
       for mode in TZ_MODES for k in (2, 3) for graph in TZ_GRAPHS},
    "stretch3": (_stretch3, "er_weighted"),
    "cdg-oracle": (_cdg("oracle"), "er_weighted"),
    "cdg-echo": (_cdg("echo"), "er_weighted"),
    "graceful": (_graceful, "er_weighted"),
    "density-net": (_density_net, "er_weighted"),
    "ksource-drain1": (_ksource(1), "er_weighted"),
    "ksource-drain4": (_ksource(4), "er_weighted"),
    "bfs-tree": (_bfs_tree, "er_unit"),
    "reliable-bf-loss": (_reliable_bf, "er_weighted"),
    "delayed-echo": (_delayed_echo, "small_grid"),
}

GOLDEN: dict[str, tuple] = {
    "tz-oracle-k2-er_weighted": (
        24, 2146, 8584, 232,
        [("phase-1", 12, 1525, 6100), ("phase-0", 12, 621, 2484)],
        5, None, "e1c52a584e0c"),
    "tz-oracle-k2-er_unit": (
        28, 3260, 13040, 300,
        [("phase-1", 10, 1812, 7248), ("phase-0", 18, 1448, 5792)],
        11, None, "033c36fa9228"),
    "tz-oracle-k2-small_grid": (
        28, 943, 3772, 86,
        [("phase-1", 11, 392, 1568), ("phase-0", 17, 551, 2204)],
        7, None, "9f3a21d37624"),
    "tz-oracle-k2-small_ring": (
        17, 156, 624, 24,
        [("phase-1", 11, 90, 360), ("phase-0", 6, 66, 264)],
        2, None, "ee6064e437f0"),
    "tz-oracle-k3-er_weighted": (
        30, 2178, 8712, 195,
        [("phase-2", 8, 687, 2748), ("phase-1", 10, 696, 2784),
         ("phase-0", 12, 795, 3180)],
        6, None, "6bb22c603852"),
    "tz-oracle-k3-er_unit": (
        25, 1902, 7608, 276,
        [("phase-2", 6, 600, 2400), ("phase-1", 7, 617, 2468),
         ("phase-0", 12, 685, 2740)],
        8, None, "fd5de6c7bb55"),
    "tz-oracle-k3-small_grid": (
        24, 652, 2608, 66,
        [("phase-2", 11, 294, 1176), ("phase-1", 8, 222, 888),
         ("phase-0", 5, 136, 544)],
        3, None, "464e771c0951"),
    "tz-oracle-k3-small_ring": (
        21, 132, 528, 18,
        [("phase-2", 10, 60, 240), ("phase-1", 6, 36, 144),
         ("phase-0", 5, 36, 144)],
        2, None, "e106706e5a69"),
    "tz-known-whp-k2-er_weighted": (
        809, 2146, 8584, 232,
        [("phase-1", 405, 1525, 6100), ("phase-0", 404, 621, 2484)],
        5, None, "e1c52a584e0c"),
    "tz-known-whp-k2-er_unit": (
        437, 3260, 13040, 300,
        [("phase-1", 219, 1812, 7248), ("phase-0", 218, 1448, 5792)],
        11, None, "033c36fa9228"),
    "tz-known-whp-k2-small_grid": (
        1049, 943, 3772, 86,
        [("phase-1", 525, 392, 1568), ("phase-0", 524, 551, 2204)],
        7, None, "9f3a21d37624"),
    "tz-known-whp-k2-small_ring": (
        481, 156, 624, 24,
        [("phase-1", 241, 90, 360), ("phase-0", 240, 66, 264)],
        2, None, "ee6064e437f0"),
    "tz-known-whp-k3-er_weighted": (
        691, 2178, 8712, 195,
        [("phase-2", 231, 687, 2748), ("phase-1", 230, 696, 2784),
         ("phase-0", 230, 795, 3180)],
        6, None, "6bb22c603852"),
    "tz-known-whp-k3-er_unit": (
        367, 1902, 7608, 276,
        [("phase-2", 123, 600, 2400), ("phase-1", 122, 617, 2468),
         ("phase-0", 122, 685, 2740)],
        8, None, "fd5de6c7bb55"),
    "tz-known-whp-k3-small_grid": (
        925, 652, 2608, 66,
        [("phase-2", 309, 294, 1176), ("phase-1", 308, 222, 888),
         ("phase-0", 308, 136, 544)],
        3, None, "464e771c0951"),
    "tz-known-whp-k3-small_ring": (
        490, 132, 528, 18,
        [("phase-2", 164, 60, 240), ("phase-1", 163, 36, 144),
         ("phase-0", 163, 36, 144)],
        2, None, "e106706e5a69"),
    "tz-known-safe-k2-er_weighted": (
        461, 2146, 8584, 232,
        [("phase-1", 231, 1525, 6100), ("phase-0", 230, 621, 2484)],
        5, None, "e1c52a584e0c"),
    "tz-known-safe-k2-er_unit": (
        257, 3260, 13040, 300,
        [("phase-1", 129, 1812, 7248), ("phase-0", 128, 1448, 5792)],
        11, None, "033c36fa9228"),
    "tz-known-safe-k2-small_grid": (
        581, 943, 3772, 86,
        [("phase-1", 291, 392, 1568), ("phase-0", 290, 551, 2204)],
        7, None, "9f3a21d37624"),
    "tz-known-safe-k2-small_ring": (
        243, 156, 624, 24,
        [("phase-1", 122, 90, 360), ("phase-0", 121, 66, 264)],
        2, None, "ee6064e437f0"),
    "tz-known-safe-k3-er_weighted": (
        691, 2178, 8712, 195,
        [("phase-2", 231, 687, 2748), ("phase-1", 230, 696, 2784),
         ("phase-0", 230, 795, 3180)],
        6, None, "6bb22c603852"),
    "tz-known-safe-k3-er_unit": (
        385, 1902, 7608, 276,
        [("phase-2", 129, 600, 2400), ("phase-1", 128, 617, 2468),
         ("phase-0", 128, 685, 2740)],
        8, None, "fd5de6c7bb55"),
    "tz-known-safe-k3-small_grid": (
        871, 652, 2608, 66,
        [("phase-2", 291, 294, 1176), ("phase-1", 290, 222, 888),
         ("phase-0", 290, 136, 544)],
        3, None, "464e771c0951"),
    "tz-known-safe-k3-small_ring": (
        364, 132, 528, 18,
        [("phase-2", 122, 60, 240), ("phase-1", 121, 36, 144),
         ("phase-0", 121, 36, 144)],
        2, None, "e106706e5a69"),
    "tz-echo-k2-er_weighted": (
        122, 4937, 18723, 232,
        [("phase-1", 44, 2915, 11590), ("phase-0", 40, 1347, 5178)],
        6, 3, "e1c52a584e0c"),
    "tz-echo-k2-er_unit": (
        136, 7635, 29291, 300,
        [("phase-1", 34, 3763, 14974), ("phase-0", 60, 3013, 11818)],
        10, 3, "033c36fa9228"),
    "tz-echo-k2-small_grid": (
        140, 2584, 9478, 98,
        [("phase-1", 33, 827, 3250), ("phase-0", 75, 1189, 4582)],
        9, 9, "9f3a21d37624"),
    "tz-echo-k2-small_ring": (
        73, 524, 1800, 30,
        [("phase-1", 25, 194, 748), ("phase-0", 31, 174, 612)],
        2, 7, "ee6064e437f0"),
    "tz-echo-k3-er_weighted": (
        157, 5281, 19959, 232,
        [("phase-2", 31, 1541, 6094), ("phase-1", 37, 1370, 5340),
         ("phase-0", 51, 1695, 6570)],
        9, 3, "6bb22c603852"),
    "tz-echo-k3-er_unit": (
        122, 4985, 18535, 300,
        [("phase-2", 20, 1327, 5230), ("phase-1", 24, 1312, 5092),
         ("phase-0", 36, 1487, 5714)],
        7, 3, "fd5de6c7bb55"),
    "tz-echo-k3-small_grid": (
        135, 2046, 7210, 98,
        [("phase-2", 31, 617, 2410), ("phase-1", 37, 502, 1892),
         ("phase-0", 35, 359, 1262)],
        3, 9, "464e771c0951"),
    "tz-echo-k3-small_ring": (
        90, 504, 1664, 30,
        [("phase-2", 22, 134, 508), ("phase-1", 23, 100, 344),
         ("phase-0", 28, 114, 372)],
        2, 7, "e106706e5a69"),
    "stretch3": (
        55, 10177, 30531, 232,
        [],
        "bb3fd653ac77"),
    "cdg-oracle": (
        33, 2333, 9100, 232,
        [("phase-1", 8, 595, 2380), ("phase-0", 24, 1506, 6024)],
        "daa1ff83eb46"),
    "cdg-echo": (
        153, 5235, 19683, 232,
        [("phase-1", 26, 1183, 4662), ("phase-0", 88, 3145, 12370)],
        "daa1ff83eb46"),
    "graceful": (
        228, 20783, 81740, 232,
        [("phase-0", 56, 10177, 40708), ("phase-1", 13, 1050, 4200),
         ("phase-0", 18, 1219, 4876), ("phase-2", 7, 339, 1356),
         ("phase-1", 8, 575, 2300), ("phase-0", 16, 780, 3120),
         ("phase-3", 8, 702, 2808), ("phase-2", 5, 47, 188),
         ("phase-1", 8, 411, 1644), ("phase-0", 8, 437, 1748),
         ("phase-4", 7, 358, 1432), ("phase-3", 6, 146, 584),
         ("phase-2", 4, 34, 136), ("phase-1", 7, 422, 1688),
         ("phase-0", 19, 777, 3108), ("phase-5", 7, 414, 1656),
         ("phase-4", 0, 0, 0), ("phase-3", 0, 0, 0), ("phase-2", 4, 45, 180),
         ("phase-1", 9, 628, 2512), ("phase-0", 12, 830, 3320)],
        "ca4b7affe74e"),
    "density-net": (
        1, 232, 696, 232,
        [],
        "5d81d0afc8e9"),
    "ksource-drain1": (
        11, 1227, 3681, 228,
        [],
        "00428441bead"),
    "ksource-drain4": (
        7, 718, 3236, 221,
        [],
        "00428441bead"),
    "bfs-tree": (
        41, 859, 2499, 300,
        [],
        "6290742975ae"),
    "reliable-bf-loss": (
        24, 1772, 3544, 192,
        [],
        460, "3db8da3c73f2"),
    "delayed-echo": (
        248, 2340, 8442, 58,
        [],
        7, 9, 3, "5d41a78335a2"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_costs_and_outputs_match_the_recorded_run(name, request):
    run, graph = CASES[name]
    assert run(request.getfixturevalue(graph)) == GOLDEN[name]
