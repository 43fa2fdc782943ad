#!/usr/bin/env python3
"""Run one workload of the benchmark and print its metrics.

    python3 bench/run.py --workload NAME [--seed S] [--seconds T]
                         [--trace 0|1] [--smoke] [--out FILE]

Every input is generated from ``--seed``.  The run makes a few cold
starts (their median is ``setup_s``), warms up, measures a closed loop
for ``--seconds`` and checks the answers.  With ``--trace 0`` the last
line of standard output carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the timed phase is split into an
untraced and a traced half, the spans go to
``bench/results/trace-<workload>.json``, and the last line carries the
per-layer metrics.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback

import harness as h


def parse_args(argv, workloads) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, one cold start: the same code "
                         "path in a few seconds (numbers mean nothing)")
    ap.add_argument("--out", help="write the full record here as JSON")
    return ap.parse_args(argv)


def measure(args) -> dict:
    """Drive one workload through setup → warm-up → timed phase(s) →
    check → teardown, each under a hard deadline, and return everything
    that was observed."""
    from workloads import FULL, SMOKE, WORKLOADS

    sizes = SMOKE if args.smoke else FULL
    workdir = h.RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, sizes, workdir)
    plain_s = args.seconds / 2 if args.trace else args.seconds
    tracer = h.Tracer() if args.trace else None
    # the driver gives a run 180 s; it ends, as a counted failure if
    # need be, after at most 170
    run_stop = time.perf_counter() + 165.0

    def phase(name: str, seconds: float):
        left = run_stop - time.perf_counter()
        return h.deadline(max(1.0, min(seconds, left)), name)

    setup_s = []
    try:
        # a cold start of 0.1 s is a noisy thing to time: cheap ones are
        # repeated until they add up to something
        while len(setup_s) < sizes.setups or (
                sum(setup_s) < sizes.setup_budget_s and len(setup_s) < 15):
            if setup_s:
                workload.teardown()
            with phase("setup", 60):
                t0 = time.perf_counter()
                workload.setup()
                setup_s.append(time.perf_counter() - t0)
        try:
            with phase("warm-up", sizes.warmup_s + 30):
                workload.run(sizes.warmup_s, None)
            with phase("timed phase", plain_s + 30):
                plain = workload.run(plain_s, None)
            traced = None
            if tracer is not None:
                with phase("traced phase", plain_s + 30):
                    traced = workload.run(args.seconds - plain_s, tracer)
            with phase("check", 60):
                checked, mismatched = workload.check()
            rss_peak_mb = workload.rss_peak_mb()
        finally:
            with h.deadline(10, "teardown"):
                workload.teardown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latency = h.latency_stats(plain.latencies, workload.quietest)
    attempted = plain.attempted + checked
    failed = plain.failed + mismatched
    record = {
        "end_to_end": {
            "setup_s": statistics.median(setup_s),
            "query_qps": plain.qps,
            "request_p50_ms": latency["p50_ms"],
            "request_p90_ms": latency["p90_ms"],
            "rss_peak_mb": rss_peak_mb,
            "stretch_mean": workload.stretch_mean,
            "sketch_words_mean": workload.words_mean},
        "detail": {"setup_s": setup_s, "latency": latency, **plain.detail}}
    if traced is not None:
        attempted += traced.attempted
        failed += traced.failed
        summary = h.summarize_spans(tracer)
        attempted += 1
        failed += 1 if summary["violations"] else 0
        traced_p50 = h.latency_stats(traced.latencies,
                                     workload.quietest)["p50_ms"]
        record["per_layer"] = {
            **workload.layers, **traced.layers, **plain.end_to_end,
            "harness.trace_overhead_pct":
                (traced_p50 / latency["p50_ms"] - 1.0) * 100.0,
            "harness.window_spread_pct": plain.detail.get("spread_pct", 0.0)}
        record["detail"]["spans"] = summary
        h.write_trace(h.RESULTS / f"trace-{args.workload}.json", tracer,
                      {"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds - plain_s,
                       "summary": summary})
    record["attempted"], record["failed"] = attempted, failed
    return record


def hygiene() -> int:
    """After teardown nothing this run started may be left: no child
    process, no shared-memory segment."""
    import multiprocessing

    from repro.service.buffers import live_segment_names

    leaks = h.reap_children()
    leaks += len(multiprocessing.active_children())
    leaks += len(live_segment_names())
    return leaks


def main(argv=None) -> int:
    spec_path = h.ROOT / "BENCHMARK.json"
    if not (h.SRC / "repro" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"bench/run.py measures the repro package under {h.SRC} as "
              f"described by {spec_path}; one of them is missing",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    args = parse_args(argv, [w["name"] for w in spec["workloads"]]
                      + list(h.UNGATED))
    sys.path.insert(0, str(h.SRC))

    try:
        record = measure(args)
    except (Exception, h.PhaseTimeout):  # a hang or crash is a failed run
        traceback.print_exc()
        record = {"attempted": 1, "failed": 1}
    leaks = h.reap_children() if "end_to_end" not in record else hygiene()
    record["attempted"] += 1
    record["failed"] += 1 if leaks else 0
    if leaks:
        print(f"{leaks} child processes or segments outlived the run",
              file=sys.stderr)

    if "per_layer" in record:
        record["per_layer"]["fail_share"] = (record["failed"]
                                             / record["attempted"])
    metrics = {}
    for kind in ("end_to_end", "per_layer"):
        if kind not in record:
            continue
        rows = metrics[kind] = {}
        for m in spec[kind]:
            # a layer that did no work on this workload reports 0
            value = float(record[kind][m["name"]] if kind == "end_to_end"
                          else record[kind].get(m["name"], 0.0))
            if not math.isfinite(value):
                print(f"{m['name']} is {value}", file=sys.stderr)
                record["failed"] += 1
            print(f"{m['name']:<36} {value:>16.6g} {m['unit']}")
            rows[m["name"]] = {"value": value, "unit": m["unit"]}
    printed = metrics.get("per_layer" if args.trace else "end_to_end", {})
    result = {"correct": record["failed"] == 0 and bool(printed),
              "attempted": record["attempted"], "failed": record["failed"],
              "metrics": printed}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "smoke": args.smoke, "machine": h.machine_info(),
                       "metrics": metrics, "detail": record.get("detail"),
                       "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
