"""Shared fixtures for the test suite.

Graph fixtures are deliberately small (n <= ~60) so that the full
round-faithful CONGEST simulations — the expensive part of the suite —
keep the whole run in the low minutes.  Large-n behaviour is exercised by
the benchmark harness, not the tests.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

# The nightly CI job runs the property suites exhaustively:
#   REPRO_HYPOTHESIS_PROFILE=nightly pytest --runslow -m slow
hypothesis_settings.register_profile("nightly", max_examples=300,
                                     deadline=None)
if os.environ.get("REPRO_HYPOTHESIS_PROFILE"):
    hypothesis_settings.load_profile(os.environ["REPRO_HYPOTHESIS_PROFILE"])

from repro.graphs import (
    Graph,
    erdos_renyi,
    grid2d,
    ring,
    random_geometric,
    assign_uniform_weights,
    assign_exponential_weights,
    apsp,
    shortest_path_diameter,
)


@pytest.fixture(scope="session")
def triangle() -> Graph:
    """3-cycle with distinct weights — tiny hand-checkable instance."""
    return Graph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])


@pytest.fixture(scope="session")
def weighted_diamond() -> Graph:
    """4 nodes where the direct edge is NOT the shortest path."""
    return Graph(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 5.0), (2, 3, 1.0),
                     (0, 3, 10.0)])


@pytest.fixture(scope="session")
def er_unit() -> Graph:
    """Unit-weight Erdős–Rényi, n=40."""
    return erdos_renyi(40, seed=101)


@pytest.fixture(scope="session")
def er_weighted() -> Graph:
    """Uniformly weighted Erdős–Rényi, n=36."""
    return assign_uniform_weights(erdos_renyi(36, seed=202), seed=203)


@pytest.fixture(scope="session")
def er_float() -> Graph:
    """Erdős–Rényi, n=36, non-integral weights U[1, 10): float path sums
    depend on the end a sweep starts from."""
    g = erdos_renyi(36, seed=206)
    u, v, _ = zip(*g.edges())
    return Graph.from_arrays(g.n, u, v, np.random.default_rng(207).uniform(
        1.0, 10.0, g.m))


@pytest.fixture(scope="session")
def er_heavy() -> Graph:
    """Heavy-tailed weights — S well above D."""
    return assign_exponential_weights(erdos_renyi(30, seed=304), seed=305)


@pytest.fixture(scope="session")
def small_grid() -> Graph:
    return grid2d(5, 6)


@pytest.fixture(scope="session")
def small_ring() -> Graph:
    return ring(15)


@pytest.fixture(scope="session")
def geo_graph() -> Graph:
    return random_geometric(40, seed=406)


@pytest.fixture(scope="session")
def er_weighted_apsp(er_weighted) -> np.ndarray:
    return apsp(er_weighted)


@pytest.fixture(scope="session")
def er_unit_apsp(er_unit) -> np.ndarray:
    return apsp(er_unit)


@pytest.fixture(scope="session")
def er_weighted_S(er_weighted) -> int:
    return shortest_path_diameter(er_weighted)


@pytest.fixture(scope="session")
def nearest_in_set():
    """The dense reference for every nearest-net-member routine
    (:func:`repro.slack.cdg.gateway_columns`,
    :func:`repro.algorithms.supersource.distances_to_set`): per node
    ``(d(u, N), closest member)``, the smallest member id among
    equidistant ones, read off the n × n matrix with a ``DistKey`` scan."""
    from repro.distkey import DistKey

    def reference(dist: np.ndarray, members) -> list[tuple[float, int]]:
        mem = sorted(int(v) for v in members)
        out = []
        for u in range(dist.shape[0]):
            best = DistKey(math.inf, -1)
            for v in mem:
                key = DistKey(float(dist[u, v]), v)
                if key < best:
                    best = key
            out.append((best.dist, best.node))
        return out

    return reference


#: a fresh process's build + index at n = 10^4; it prints its own peak
#: RSS (``VmHWM``, KiB): ``ru_maxrss`` would carry the forking test
#: process's high-water mark across the exec
_AT_SCALE = """
import json, sys
from repro.graphs import assign_uniform_weights, erdos_renyi
from repro.oracle.api import build_sketches
from repro.service import build_index
graph = assign_uniform_weights(erdos_renyi(10_000, seed=1), 1.0, 10.0, seed=2)
built = build_sketches(graph, sys.argv[1], seed=3, **json.loads(sys.argv[2]))
build_index(built.sketches, num_shards=4)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.fixture(scope="session")
def peak_rss_at_scale():
    """``run(scheme, **params)``: the peak RSS in MB of a fresh process
    that builds ``scheme`` centrally on ER + U[1, 10] weights at
    n = 10^4, then its 4-shard index (the nightly memory bounds)."""
    import json
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent

    def run(scheme: str, **params) -> float:
        out = subprocess.run(
            [sys.executable, "-c", _AT_SCALE, scheme, json.dumps(params)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")}).stdout
        return int(out) / 1024

    return run


def _serving_leftovers() -> list[str]:
    """What a closed server must not leave behind: engine pool threads,
    tcp handler and IO-loop threads, child processes."""
    import multiprocessing
    import threading

    from repro.service.engine import THREAD_POOL_PREFIX

    return [t.name for t in threading.enumerate()
            if t.name.startswith((THREAD_POOL_PREFIX, "oracle-handler",
                                  "oracle-io"))
            ] + [repr(p) for p in multiprocessing.active_children()]


@pytest.fixture(scope="module", autouse=True)
def no_thread_outlives_its_server():
    """Every suite is held to it: when a test module is done, nothing
    its servers started is still alive."""
    yield
    assert _serving_leftovers() == []


@pytest.fixture
def serving_leftovers():
    """The leak check itself, for a test that asserts it mid-way (right
    after a ``close()``): ``assert serving_leftovers() == []``."""
    return _serving_leftovers


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(count)``: every engine built from then on (in a test's own
    server and sessions too) cuts bulk batches for ``count`` CPUs — the
    engine's one seam, :func:`repro.service.engine.usable_cpus`, so 2
    and 7 ranges run on any runner."""

    def use(count: int) -> None:
        monkeypatch.setattr("repro.service.engine.usable_cpus",
                            lambda: count)

    return use


@pytest.fixture
def timing_gate():
    """Gate for wall-clock assertions that need real parallel hardware.

    Timing-sensitive assertions (speedup ratios, overlap windows) are
    meaningless on CI runners and single-CPU boxes, where scheduling
    noise dwarfs the effect under test.  Tests call ``timing_gate(why)``
    before such an assertion; the call self-skips — with the reason —
    unless the host can support the measurement.  Setting
    ``REPRO_FORCE_TIMING=1`` arms the gate everywhere (for debugging a
    runner that *should* pass).
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


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run slow end-to-end protocol tests")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long end-to-end protocol runs")
    # the library has no deprecated path: a DeprecationWarning attributed
    # to our own code (``repro.*`` or a test module) fails its test
    config.addinivalue_line(
        "filterwarnings", r"error::DeprecationWarning:(repro(\.|$)|test_)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
