#!/usr/bin/env python3
"""Run the whole benchmark several times and write one trajectory point.

    python3 bench/suite.py --out bench/baselines/<machine-class>.json
                           [--workload NAME ...] [--runs 10] [--first-seed 1]
                           [--trace-runs 5] [--seconds T]

Each run is one ``bench/run.py`` process with its own seed, exactly as
the driver starts it: ``--runs`` untraced ones for the end-to-end
metrics, then ``--trace-runs`` traced ones (the first seeds again) for
the per-layer metrics.  The file keeps every value, and per
(workload, metric) the median, the quartiles (``statistics.quantiles``,
n=4) and the spread — quartile distance over median — that
``bench/compare.py`` and the bounds in ``BENCHMARK.json`` are read
against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import harness as h


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(h.ROOT / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit"] = proc.returncode
    return result


def summarize(values: list) -> dict:
    if len(values) < 2:
        return {"values": values, "median": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def collect(results: list) -> dict:
    names = results[0]["metrics"]
    return {name: {"unit": names[name]["unit"],
                   **summarize([r["metrics"][name]["value"]
                                for r in results])}
            for name in names}


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(h.ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    with open(h.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]] + list(h.UNGATED)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace-runs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    out = {"machine": h.machine_info(), "git_sha": git_sha(),
           "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    bad = 0
    for name in args.workload or names:
        t0 = time.perf_counter()
        plain = [run_once(name, s, args.seconds, 0) for s in seeds]
        traced = [run_once(name, s, args.seconds, 1)
                  for s in seeds[:args.trace_runs]]
        runs = plain + traced
        failed = sum(r["failed"] for r in runs)
        bad += failed + sum(r["exit"] != 0 for r in runs)
        entry = out["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": failed, "end_to_end": collect(plain)}
        if traced:
            entry["per_layer"] = collect(traced)
        print(f"{name}: {len(runs)} runs in "
              f"{time.perf_counter() - t0:.0f}s, {failed} failed")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:<20} median {row['median']:>14.6g} "
                  f"{row['unit']:<10} spread "
                  f"{row.get('spread', 0.0) * 100:5.1f} %")
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
