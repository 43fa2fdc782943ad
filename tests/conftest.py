"""Shared fixtures for the test suite.

Graph fixtures are deliberately small (n <= ~60) so that the full
round-faithful CONGEST simulations — the expensive part of the suite —
keep the whole run in the low minutes.  Large-n behaviour is exercised by
the benchmark harness, not the tests.
"""

from __future__ import annotations

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
