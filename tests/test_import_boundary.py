"""The import boundary between serving and construction.

A process that answers queries needs the stored arrays and nothing of
the construction (Section 3.1: only the two sketches concerned are
looked up).  So ``python -m repro serve <rpix>`` and a client-only
process load numpy and the serving layer, never scipy, the CONGEST
simulator or a builder.  The package ``__init__`` files re-export
lazily (PEP 562) to make that possible; the second half of this file
checks that the lazy surface is the surface the eager imports gave.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import SCHEME_NAMES, main
from repro.graphs import assign_uniform_weights, erdos_renyi, write_edgelist
from repro.oracle.api import build_sketches
from repro.oracle.schemes import SCHEMES
from repro.oracle.serialization import load_index_binary, save_index_binary
from repro.service import OracleServer, connect
from repro.service.index import build_index

SRC = Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent

#: every ``repro`` module a serving process may load
SERVING_MODULES = frozenset({
    "repro", "repro._version", "repro.errors", "repro.words", "repro.cli",
    "repro.tz", "repro.tz.sketch",
    "repro.oracle", "repro.oracle.serialization",
    "repro.service", "repro.service.protocol", "repro.service.session",
    "repro.service.index", "repro.service.engine", "repro.service.server",
    "repro.service.client", "repro.service.buffers",
})

PACKAGES = ("repro", "repro.oracle", "repro.tz", "repro.service")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _imported(log: str) -> set[str]:
    """The modules named by a ``-X importtime`` log."""
    return {line.rsplit("|", 1)[1].strip() for line in log.splitlines()
            if line.startswith("import time:") and "|" in line} \
        - {"imported package"}


def _assert_serving_only(modules: set[str],
                         loaded: str = "repro.service.server") -> None:
    assert loaded in modules  # the log was read at all
    assert sorted(m for m in modules
                  if m.startswith("repro")
                  and m not in SERVING_MODULES) == []
    assert sorted(m for m in modules
                  if m == "scipy" or m.startswith("scipy.")) == []


@pytest.fixture(scope="module")
def rpix(tmp_path_factory) -> Path:
    graph = assign_uniform_weights(erdos_renyi(60, seed=7), seed=8)
    built = build_sketches(graph, scheme="tz", k=2, seed=9)
    path = tmp_path_factory.mktemp("boundary") / "idx.rpix"
    save_index_binary(build_index(built.sketches), path)
    write_edgelist(graph, path.with_name("net.edges"))
    return path


def _query(*argv) -> subprocess.CompletedProcess:
    """``python -X importtime -m repro query ARGV``, finished."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "query", *argv],
        capture_output=True, text=True, env=_env(), timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    return done


class TestServingBoundary:
    """Each side answers one ``dist`` over tcp before its log is read,
    so what a query loads on demand is checked too."""

    def test_serve_daemon_loads_the_serving_stack_only(self, rpix,
                                                       tmp_path):
        log_path = tmp_path / "importtime.log"
        with open(log_path, "w") as log:
            child = subprocess.Popen(
                [sys.executable, "-X", "importtime", "-m", "repro", "serve",
                 str(rpix), "--port", "0", "--memory", "mmap"],
                stdout=subprocess.PIPE, stderr=log, text=True, env=_env())
            try:
                ready = child.stdout.readline()
                with connect(ready.rsplit(" on ", 1)[1].strip()) as client:
                    answer = client.dist(0, 1)
            finally:
                child.terminate()
                child.communicate(timeout=30)
        assert "serving tz n=60" in ready and "memory=mmap" in ready
        assert answer == load_index_binary(rpix).estimate(0, 1)
        _assert_serving_only(_imported(log_path.read_text()))

    def test_client_import_loads_the_serving_stack_only(self, rpix):
        store = load_index_binary(rpix)
        with OracleServer(store, cache_size=0) as server:
            host, port = server.serve("127.0.0.1:0", block=False)
            done = subprocess.run(
                [sys.executable, "-X", "importtime", "-c",
                 "import sys\n"
                 "from repro.service import connect\n"
                 "with connect(sys.argv[1]) as client:\n"
                 "    print(repr(client.dist(0, 1)))",
                 f"tcp://{host}:{port}"],
                capture_output=True, text=True, env=_env(), timeout=60)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == repr(store.estimate(0, 1))
        _assert_serving_only(_imported(done.stderr))

    def test_query_connect_loads_the_serving_stack_only(self, rpix):
        store = load_index_binary(rpix)
        with OracleServer(store, cache_size=0) as server:
            host, port = server.serve("127.0.0.1:0", block=False)
            done = _query("--connect", f"tcp://{host}:{port}",
                          "--pairs", "0:1")
        assert done.stdout == f"0:1 estimate={store.estimate(0, 1):g}\n"
        _assert_serving_only(_imported(done.stderr),
                             loaded="repro.service.client")

    def test_local_query_loads_the_serving_stack_only(self, rpix):
        """Without ``--exact`` the GRAPH argument is never read: the
        answer comes from the store alone."""
        done = _query(str(rpix.with_name("net.edges")), str(rpix),
                      "--pairs", "0:1")
        store = load_index_binary(rpix)
        assert done.stdout == f"0:1 estimate={store.estimate(0, 1):g}\n"
        _assert_serving_only(_imported(done.stderr),
                             loaded="repro.service.index")


#: exports that carry no ``__module__`` of their own: where they live
_CONSTANTS = {
    "__version__": "repro._version",
    "SCHEMES": "repro.oracle.schemes",
    "TRANSPORTS": "repro.service.client",
}


@pytest.mark.parametrize("name", PACKAGES)
class TestLazySurface:
    def test_every_export_is_the_defining_object(self, name):
        package = importlib.import_module(name)
        for attr in package.__all__:
            value = getattr(package, attr)
            home = _CONSTANTS.get(attr) or value.__module__
            assert home.startswith("repro.") and home != name, attr
            assert getattr(importlib.import_module(home), attr) is value

    def test_star_import_binds_every_export(self, name):
        package = importlib.import_module(name)
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert {attr: namespace[attr] for attr in package.__all__} == {
            attr: getattr(package, attr) for attr in package.__all__}

    def test_dir_lists_every_export(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_is_an_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export
        assert not hasattr(package, "no_such_export")


def test_scheme_choices_are_the_registry(capsys):
    assert SCHEME_NAMES == tuple(sorted(SCHEMES))
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--help"])
    assert exc.value.code == 0
    choices = re.search(r"--scheme \{([^}]*)\}", capsys.readouterr().out)
    assert choices is not None
    assert choices.group(1).split(",") == sorted(SCHEMES)


def test_setup_reads_the_package_metadata():
    done = subprocess.run([sys.executable, "setup.py", "--name", "--version"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["repro", repro.__version__]
