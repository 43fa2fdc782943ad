"""Measurement plumbing shared by every workload in ``bench/workloads.py``.

Nothing here knows what a sketch is: spans and their summary, closed
loops and the window statistics cut from them, hard phase deadlines,
the ``serve`` child process, and the facts about the machine that go
into a record.  The benchmark measures ``repro`` from outside, so this
file imports nothing from it.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

#: workloads that ``run.py`` and ``suite.py`` measure beside those of
#: ``BENCHMARK.json``.  The driver that gates PRs takes the workloads of
#: that file, and on a shared two-core host these two do not repeat
#: within any bound it accepts (bench/README.md, "What the driver gates")
UNGATED = ("tcp-stream", "churn-mixed")


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class PhaseTimeout(BaseException):
    """A phase ran past its hard deadline; the run counts it as a
    failed operation and exits non-zero instead of hanging.  Not an
    ``Exception``: the loops that count a failed request and go on must
    not swallow it."""


@contextmanager
def deadline(seconds: float, phase: str):
    """Raise :class:`PhaseTimeout` in the main thread if the block is
    still running after ``seconds`` (one deadline at a time; a blocked
    socket read or ``join`` is interrupted by the signal)."""

    def on_alarm(signum, frame):
        raise PhaseTimeout(f"{phase}: no progress after {seconds:.0f}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """Spans recorded by the harness around each call it makes into a
    layer: ``[name, start, end, parent, request]`` rows kept in memory.
    Used from one thread — the open-span stack is what gives a span its
    parent."""

    def __init__(self):
        self.rows: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        parent = self._open[-1] if self._open else None
        row = [name, time.perf_counter(), None, parent, request]
        self._open.append(len(self.rows))
        self.rows.append(row)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float,
            request: Optional[int] = None) -> None:
        """Record a span the harness timed by hand (a streamed batch's
        submit→reply interval overlaps its neighbours, so it cannot sit
        on the stack)."""
        self.rows.append([name, start, end, None, request])


def summarize_spans(tracer: Tracer) -> dict:
    """Per span name: count, total wall, and self time (wall minus the
    part its children cover).  A child that leaks outside its parent's
    interval is a harness bug and is reported in ``violations``."""
    out: dict[str, dict] = {}
    violations = 0
    rows = tracer.rows
    child_wall = [0.0] * len(rows)
    for _, start, end, parent, _ in rows:
        if parent is not None:
            p_start, p_end = rows[parent][1], rows[parent][2]
            if start < p_start or end > p_end:
                violations += 1
            child_wall[parent] += end - start
    for (name, start, end, _, _), covered in zip(rows, child_wall):
        agg = out.setdefault(name, {"count": 0, "wall_s": 0.0,
                                    "self_s": 0.0})
        agg["count"] += 1
        agg["wall_s"] += end - start
        agg["self_s"] += (end - start) - covered
    return {"spans": out, "violations": violations}


def write_trace(path: Path, tracer: Tracer, header: dict) -> None:
    """The trace file: ``header`` and every span, times relative to the
    first one."""
    origin = min((row[1] for row in tracer.rows), default=0.0)
    spans = [{"id": i, "name": name, "start_s": start - origin,
              "end_s": end - origin, "parent": parent, "request": request}
             for i, (name, start, end, parent, request)
             in enumerate(tracer.rows)]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({**header, "spans": spans}, fh)


# ----------------------------------------------------------------------
# closed loops and what is read off them
# ----------------------------------------------------------------------
@dataclass
class Samples:
    """What one caller's closed loop observed: per request its
    completion time, latency and answered pairs; plus the attempts that
    raised."""

    done: list = field(default_factory=list)
    latency: list = field(default_factory=list)
    pairs: list = field(default_factory=list)
    failed: int = 0
    start: float = 0.0

    def note(self, done: float, latency: float, pairs: int) -> None:
        self.done.append(done)
        self.latency.append(latency)
        self.pairs.append(pairs)

    @property
    def attempted(self) -> int:
        return len(self.done) + self.failed


def closed_loop(seconds: float, request: Callable[[int], int]) -> Samples:
    """One caller: the next request is sent when the previous reply is
    in.  ``request(i)`` performs request ``i`` and returns how many
    pairs it answered; one that raises is counted, not fatal."""
    out = Samples()
    i = 0
    out.start = now = time.perf_counter()
    stop = now + seconds
    while now < stop:
        try:
            pairs = request(i)
        except Exception as exc:  # counted in fail_share, loop goes on
            print(f"request {i} failed: {exc!r}", file=sys.stderr)
            out.failed += 1
            now = time.perf_counter()
        else:
            done = time.perf_counter()
            out.note(done, done - now, pairs)
            now = done
        i += 1
    return out


#: length of the windows a timed phase is cut into
WINDOW_S = 0.25
#: consecutive requests of one caller in a chunk: 5–35 ms of work.  The
#: host's quiet spells are often shorter than a window, and the
#: quietest chunk can only be as quiet as a spell that holds it whole
CHUNK = 16


def quartiles(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    q1, q2, q3 = np.percentile(arr, [25, 50, 75])
    return {"n": int(arr.size), "q1": float(q1), "median": float(q2),
            "q3": float(q3)}


def chunk_qps(samples: Samples, busy: bool) -> np.ndarray:
    """Answered pairs per second over each chunk of one caller's
    requests: per wall second from the end of the chunk before, or with
    ``busy`` per second spent inside the requests."""
    if not samples.done:
        return np.zeros(1)
    index = np.arange(len(samples.done))
    parts = np.array_split(index, max(1, index.size // CHUNK))
    first = np.array([part[0] for part in parts])
    last = np.array([part[-1] for part in parts])
    pairs = np.add.reduceat(np.asarray(samples.pairs, dtype=np.float64),
                            first)
    if busy:
        elapsed = np.add.reduceat(np.asarray(samples.latency), first)
    else:
        ends = np.asarray(samples.done)[last]
        elapsed = np.diff(ends, prepend=samples.start)
    return pairs / elapsed


def throughput_windows(samples: Iterable[Samples], seconds: float,
                       quietest: bool, busy: bool = False) -> dict:
    """Answered pairs per second, summed over callers — per wall second,
    or with ``busy`` per second spent inside the requests.

    With ``quietest`` (one caller) the metric is the rate of the chunk
    of ``CHUNK`` consecutive requests with the highest rate.  Where the
    requests are computation on one core, a neighbour on a shared host
    only ever makes them slower, by up to 40 % for seconds to minutes
    at a time, so the median 0.25 s window moves by 15–35 % from run to
    run, the best such window by half of that, and the best chunk by
    less again: a slow spell still has gaps of some tens of
    milliseconds.  Without it the metric is the median window: requests
    served by threads the scheduler is free to place are as often lucky
    as unlucky, and their best window is the noisier one.  Median and
    quartiles of the windows are recorded either way; their spread says
    how disturbed the run was."""
    samples = list(samples)
    start = max(s.start for s in samples)
    windows = max(1, round(seconds / WINDOW_S))
    length = seconds / windows
    edges = start + length * np.arange(windows + 1)
    pairs = sum(np.histogram(s.done, bins=edges, weights=s.pairs)[0]
                for s in samples)
    if busy:
        inside = sum(np.histogram(s.done, bins=edges, weights=s.latency)[0]
                     for s in samples)
        qps = pairs[inside > 0] / inside[inside > 0]
    else:
        qps = pairs / length
    stats = quartiles(qps)
    spread = ((stats["q3"] - stats["q1"]) / stats["median"] * 100.0
              if stats["median"] else 0.0)
    out = {"qps": stats["median"], "windows": stats, "window_s": length,
           "window_qps": qps.tolist(), "spread_pct": spread}
    if quietest:
        (caller,) = samples
        chunks = chunk_qps(caller, busy)
        out.update(qps=float(chunks.max()), chunk_qps=chunks.tolist())
    return out


def latency_stats(latencies, quietest: bool) -> dict:
    """Request latency in ms.  With ``quietest``, p50 and p90 are taken
    per chunk of ``CHUNK`` consecutive requests and the lowest of each
    is reported, as for the throughput; without it they are over all
    requests.  p99, max and the p90 over all requests are recorded
    either way, not gated."""
    ms = np.asarray(latencies, dtype=np.float64) * 1e3
    p50, p90, p99 = (float(v) for v in np.percentile(ms, [50, 90, 99]))
    out = {"n": int(ms.size), "p50_ms": p50, "p90_ms": p90, "p99_ms": p99,
           "max_ms": float(ms.max()), "mean_ms": float(ms.mean()),
           "all_p50_ms": p50, "all_p90_ms": p90}
    if quietest:
        parts = np.array_split(ms, max(1, ms.size // CHUNK))
        chunk_p50 = [float(np.percentile(part, 50)) for part in parts]
        chunk_p90 = [float(np.percentile(part, 90)) for part in parts]
        out.update(p50_ms=min(chunk_p50), p90_ms=min(chunk_p90),
                   chunk_p50_ms=chunk_p50, chunk_p90_ms=chunk_p90)
    return out


def mean_us(fn: Callable[[], object], repeats: int) -> float:
    """Mean wall of ``fn()`` in microseconds over ``repeats`` calls."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats * 1e6


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
_CHILDREN: list[subprocess.Popen] = []


def pin_to_one_core() -> None:
    """Confine this process, and every child it starts from now on, to
    one core.  A closed loop with one request in flight never has two
    threads with work to do, so nothing is lost; what is gained is that
    no hop of the request has to wake a halted virtual CPU, which on a
    shared host costs from 0.1 to 0.5 ms depending on the minute."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class ServeChild:
    """One ``python -m repro serve <rpix> --port 0`` child, result
    cache off: spawned, its printed address read, and on every exit
    path terminated and reaped."""

    def __init__(self, rpix: Path):
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (f"{SRC}{os.pathsep}{inherited}" if inherited
                             else str(SRC))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(rpix),
             "--port", "0", "--memory", "mmap",
             "--cache-size", "0"],
            stdout=subprocess.PIPE, text=True, env=env)
        _CHILDREN.append(self.proc)
        try:
            line = self.proc.stdout.readline()
            if " on tcp://" not in line:
                raise RuntimeError(f"serve child said {line!r} and "
                                   f"exited {self.proc.poll()}")
        except BaseException:
            self.close()
            raise
        self.address = line.rsplit(" on ", 1)[1].strip()
        self.start_s = time.perf_counter() - t0

    def rss_peak_mb(self) -> float:
        """Peak resident set of the child so far (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line for the serve child")

    def close(self) -> None:
        proc = self.proc
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()


def reap_children() -> int:
    """Terminate whatever child is still alive; returns how many were
    (zero on a clean run — anything else is a leak the run reports)."""
    alive = 0
    for proc in _CHILDREN:
        if proc.poll() is None:
            alive += 1
            proc.kill()
            proc.wait(timeout=10)
    _CHILDREN.clear()
    return alive


def self_rss_peak_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}
