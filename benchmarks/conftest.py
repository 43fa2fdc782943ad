"""Benchmark-harness plumbing.

Each experiment file (``bench_e1_*`` … ``bench_e20_*``) computes the
table for one paper claim and registers it via the ``experiment_report``
fixture.  All registered tables are printed in the terminal summary (so
they appear in ``bench_output.txt``) and persisted under
``benchmarks/results/``.

Every registered report also writes a machine-readable
``BENCH_<name>.json`` next to the text table — an envelope carrying the
git sha, timestamp, python/platform, and whatever structured ``data``
the experiment passed (throughput rows, per-phase timings, graph sizes).
CI uploads these as workflow artifacts from the ``bench-smoke`` and
``nightly`` jobs, so the perf trajectory is recorded run over run
instead of evaporating with the runner.

The ``benchmark`` fixture times a representative kernel of each
experiment; the tables themselves are computed once per session.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import subprocess

import pytest

_REPORTS: list[tuple[str, str]] = []
_RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=pathlib.Path(__file__).parent, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:  # pragma: no cover - no git binary
        return "unknown"


@pytest.fixture(scope="session")
def experiment_report():
    """Callable ``report(name, text, data=None)`` registering an
    experiment table.

    ``text`` is the human table (``<name>.txt``); ``data``, when given,
    is any JSON-serializable payload (rows, timings, parameters) stored
    in the ``BENCH_<name>.json`` envelope.  The envelope is written even
    without ``data`` so every benchmark leaves a machine-readable trace.
    """
    sha = _git_sha()

    def report(name: str, text: str, data=None) -> None:
        _REPORTS.append((name, text))
        _RESULTS_DIR.mkdir(exist_ok=True)
        (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n",
                                                  encoding="utf-8")
        envelope = {
            "name": name,
            "git_sha": sha,
            "generated_at": datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "data": data,
        }
        (_RESULTS_DIR / f"BENCH_{name}.json").write_text(
            json.dumps(envelope, indent=2, sort_keys=True, default=float)
            + "\n", encoding="utf-8")

    return report


@pytest.fixture()
def timing_gate():
    """Gate for wall-clock assertions that need real parallel hardware
    (the benchmarks-side twin of the fixture in ``tests/conftest.py``).

    Identity claims in the experiment files are asserted unconditionally;
    speedup ratios call ``timing_gate(why)`` first and self-skip on CI
    runners and single-CPU boxes, where scheduling noise dwarfs the
    effect under test.  ``REPRO_FORCE_TIMING=1`` arms the gate anywhere.
    """

    def gate(why: str) -> None:
        if os.environ.get("REPRO_FORCE_TIMING"):
            return
        if os.environ.get("CI"):
            pytest.skip(f"{why}: timing assertion self-skips on CI "
                        "(set REPRO_FORCE_TIMING=1 to arm)")
        if (os.cpu_count() or 1) < 2:
            pytest.skip(f"{why}: timing assertion needs >= 2 CPUs "
                        "(set REPRO_FORCE_TIMING=1 to arm)")

    return gate


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    tr = terminalreporter
    tr.section("experiment tables (paper-claim reproduction)")
    for name, text in _REPORTS:
        tr.write_line("")
        tr.write_line(f"──── {name} " + "─" * max(0, 66 - len(name)))
        for line in text.splitlines():
            tr.write_line(line)
