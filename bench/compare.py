#!/usr/bin/env python3
"""Compare two trajectory points written by ``bench/suite.py``.

    python3 bench/compare.py OLD.json NEW.json

One row per (workload, gated metric): both medians, the change as a
share of OLD's median (its base), the bound, the wider of the two
run-to-run spreads, and a verdict:

* ``worse``        NEW's median is worse than OLD's by more than the bound;
* ``unresolved``   the spread is wider than the bound, so a change of
                   that size cannot be told from noise — unless every
                   NEW run beats every OLD run, which is ``better``;
* ``better``       NEW's median is better by more than OLD's own spread;
* ``within bound`` anything else.

The gated metrics are the ``end_to_end`` list of ``BENCHMARK.json`` with
its bounds, and the end-to-end metrics that belong to single workloads
(``WORKLOAD_GATES`` below), read from the traced runs.  Both points
must come from the same seeds: an exact count (bound 0) then reads the
same unless the code changed what it counts.

Exit code 1 if any row is ``worse`` or NEW has failed operations.
"""

from __future__ import annotations

import json
import sys

import harness as h

#: end-to-end metrics only some workloads have, which ``BENCHMARK.json``
#: therefore lists without a bound under ``per_layer`` (bench/README.md)
WORKLOAD_GATES = {"update_p50_ms": 0.10, "update_mean_ms": 0.10,
                  "build_s": 0.10, "congest_rounds": 0.0,
                  "congest_messages": 0.0, "sketch_words_max": 0.0,
                  "index_bytes": 0.0}


def verdict(old: dict, new: dict, better: str, bound: float) -> tuple:
    sign = 1.0 if better == "higher" else -1.0
    base = old["median"]
    gain = sign * (new["median"] - base) / abs(base) if base else 0.0
    if bound == 0:  # an exact count: the seeds differ, the runs do not
        return gain, 0.0, ("worse" if gain < 0 else
                           "better" if gain > 0 else "within bound")
    old_spread = old.get("spread", 0.0)
    spread = max(old_spread, new.get("spread", 0.0))
    clean_win = (min(sign * v for v in new["values"])
                 > max(sign * v for v in old["values"]))
    if gain < -bound:
        word = "worse"
    elif clean_win:
        word = "better"
    elif spread > bound:
        word = "unresolved"
    elif gain > old_spread:
        word = "better"
    else:
        word = "within bound"
    return gain, spread, word


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        old = json.load(fh)
    with open(argv[1]) as fh:
        new = json.load(fh)
    with open(h.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    gates = {"end_to_end": {m["name"]: (m["better"], m["bound"])
                            for m in spec["end_to_end"]},
             "per_layer": {m["name"]: (m["better"],
                                       WORKLOAD_GATES[m["name"]])
                           for m in spec["per_layer"]
                           if m["name"] in WORKLOAD_GATES}}

    for tag, point in (("old", old), ("new", new)):
        print(f"{tag} {point['git_sha'][:12]}  {point['machine']['cpu']} "
              f"x{point['machine']['nproc']}  seeds {point['seeds'][0]}.."
              f"{point['seeds'][-1]}  {point['seconds']}s")
    print(f"{'workload':<18} {'metric':<18} {'old':>12} {'new':>12} "
          f"{'change':>8} {'bound':>6} {'spread':>7}  verdict")
    worse = 0
    for workload, entry in old["workloads"].items():
        if workload not in new["workloads"]:
            print(f"{workload:<18} missing from NEW")
            worse += 1
            continue
        other = new["workloads"][workload]
        for kind, rows in gates.items():
            for metric, (better, bound) in rows.items():
                row = entry.get(kind, {}).get(metric)
                # a metric that is 0 in OLD has no work behind it here
                if row is None or not row["median"]:
                    continue
                gain, spread, word = verdict(row, other[kind][metric],
                                             better, bound)
                # the change is printed in the metric's own direction
                change = gain if better == "higher" else -gain
                print(f"{workload:<18} {metric:<18} {row['median']:>12.5g} "
                      f"{other[kind][metric]['median']:>12.5g} "
                      f"{change * 100:>+7.1f}% {bound * 100:>5.0f}% "
                      f"{spread * 100:>6.1f}%  {word}")
                worse += word == "worse"
        if other["failed"]:
            print(f"{workload:<18} {other['failed']} failed operations in NEW")
            worse += 1
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
