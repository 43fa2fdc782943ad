"""Where does a repair stop beating a rebuild?  Measures each scheme's
``SchemeSpec.rebuild_above`` (the ``docs/serving.md`` §8 table).

For every scheme × graph it draws ``sample_weight_changes`` batches of
1–16 edges over several seeds and applies each batch to the same
sketches twice — once forced to repair, once forced to rebuild — in
alternating order over ``--repeats`` turns, timing
``seconds["total"] - seconds["frontier"]`` of the apply report (the
frontier sweep is the same on both paths).  The chosen threshold is the
value on a 0.05 grid that minimises the scheme's summed median apply
seconds over every measured batch (ties go to the smallest value).

    PYTHONPATH=src python benchmarks/rebuild_crossover.py -o runs.json
    PYTHONPATH=src python benchmarks/rebuild_crossover.py --table runs.json

The first form measures and writes every timing; the second prints the
markdown table and the chosen values from such a file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

import numpy as np

from repro.graphs import (assign_uniform_weights, erdos_renyi,
                          random_geometric)
from repro.oracle.schemes import SCHEMES
from repro.service.updates import UpdateableIndex, sample_weight_changes

PARAMS = {"tz": {"k": 2}, "stretch3": {"eps": 0.1},
          "cdg": {"eps": 0.1, "k": 2}, "graceful": {}}
GRAPHS = {"rgg-400": ("random_geometric", 400),
          "rgg-2000": ("random_geometric", 2000),
          "er-1000": ("ER U[1, 10]", 1000)}
BATCH_SIZES = (1, 2, 4, 8, 16)
GRID = np.round(np.arange(0.0, 1.0001, 0.05), 2)
BINS = (0.0, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0)


def make_graph(name: str):
    family, n = GRAPHS[name]
    if family == "random_geometric":
        return random_geometric(n, seed=7)
    return assign_uniform_weights(erdos_renyi(n, seed=7), low=1, high=10,
                                  seed=8)


def forced(base: UpdateableIndex, rebuild_above: float) -> UpdateableIndex:
    """An updateable over ``base``'s sketches and artifacts whose apply
    always repairs (``1.0``) or always rebuilds (``0.0``)."""
    row = SCHEMES[base.scheme]
    SCHEMES[base.scheme] = replace(row, rebuild_above=rebuild_above)
    try:
        return UpdateableIndex(base.graph, base.scheme,
                               sketches=base.sketches, **base.artifacts)
    finally:
        SCHEMES[base.scheme] = row


def timed_apply(upd: UpdateableIndex, base: UpdateableIndex, changes):
    """One apply of ``changes`` by ``upd``, started from ``base``'s
    state, and its seconds outside the frontier sweep."""
    upd.graph, upd.sketches, upd.index = base.graph, base.sketches, base.index
    report = upd.apply(changes)
    return report, report.seconds["total"] - report.seconds["frontier"]


def measure(seeds, repeats, out) -> list[dict]:
    runs = []
    for gname in GRAPHS:
        graph = make_graph(gname)
        for scheme in PARAMS:
            t0 = time.perf_counter()
            base = UpdateableIndex(graph, scheme, seed=11, **PARAMS[scheme])
            paths = {"repair": forced(base, 1.0),
                     "rebuild": forced(base, 0.0)}
            for size in BATCH_SIZES:
                for seed in seeds:
                    changes = sample_weight_changes(graph, size, seed=seed)
                    secs = {"repair": [], "rebuild": []}
                    for turn in range(repeats + 1):  # turn 0 warms up
                        order = ("repair", "rebuild")[::1 - 2 * (turn % 2)]
                        for mode in order:
                            report, s = timed_apply(paths[mode], base,
                                                    changes)
                            assert report.mode in (mode, "noop"), report
                            if turn:
                                secs[mode].append(s)
                    if report.mode == "noop":
                        continue
                    runs.append({"scheme": scheme, "graph": gname,
                                 "n": graph.n, "size": size, "seed": seed,
                                 "dirty_fraction": report.dirty_fraction,
                                 **secs})
            print(f"{gname} {scheme}: {time.perf_counter() - t0:.1f} s",
                  file=sys.stderr, flush=True)
            with open(out, "w") as fh:
                json.dump(runs, fh, indent=1)
    return runs


def cost(runs: list[dict], threshold: float) -> float:
    """Summed median apply seconds of ``runs`` under ``threshold``."""
    return sum(np.median(r["rebuild"] if r["dirty_fraction"] > threshold
                         else r["repair"]) for r in runs)


def choose(runs: list[dict]) -> float:
    """The 0.05-grid threshold minimising the summed median seconds."""
    return float(GRID[int(np.argmin([cost(runs, t) for t in GRID]))])


def _cell(samples) -> str:
    q1, q2, q3 = np.percentile(samples, [25, 50, 75]) * 1e3
    return f"{q2:.1f} [{q1:.1f}–{q3:.1f}]"


def table(runs: list[dict]) -> str:
    lines = ["| scheme | graph | n | dirty | batches | repair ms | "
             "rebuild ms | `rebuild_above` |",
             "|---|---|---|---|---|---|---|---|"]
    for scheme in PARAMS:
        mine = [r for r in runs if r["scheme"] == scheme]
        if not mine:
            continue
        chosen = choose(mine)
        for gname in GRAPHS:
            for lo, hi in zip(BINS, BINS[1:]):
                cell = [r for r in mine if r["graph"] == gname
                        and lo < r["dirty_fraction"] <= hi]
                if not cell:
                    continue
                family, n = GRAPHS[gname]
                rep = sum((r["repair"] for r in cell), [])
                reb = sum((r["rebuild"] for r in cell), [])
                lines.append(
                    f"| {scheme} | {family} | {n} | {lo:.2f}–{hi:.2f} "
                    f"| {len(cell)} | {_cell(rep)} | {_cell(reb)} "
                    f"| {chosen:.2f} |")
    lines += ["", "| scheme | batches | chosen value | summed median s: "
              "at it | at 0.25 | always repair | always rebuild |",
              "|---|---|---|---|---|---|---|"]
    for scheme in PARAMS:
        mine = [r for r in runs if r["scheme"] == scheme]
        if mine:
            chosen = choose(mine)
            sums = " | ".join(f"{cost(mine, t):.2f}"
                              for t in (chosen, 0.25, 1.0, 0.0))
            lines.append(f"| {scheme} | {len(mine)} | {chosen:.2f} "
                         f"| {sums} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--table", metavar="RUNS",
                    help="print the table from a runs file; measure nothing")
    ap.add_argument("-o", "--out", default="crossover_runs.json")
    ap.add_argument("--seeds", type=int, default=6)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    if args.table:
        with open(args.table) as fh:
            runs = json.load(fh)
    else:
        runs = measure(range(args.seeds), args.repeats, args.out)
    print(table(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
