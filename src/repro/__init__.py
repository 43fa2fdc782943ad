"""repro — distributed distance sketches in the CONGEST model.

A full reproduction of *Efficient Computation of Distance Sketches in
Distributed Networks* (Das Sarma, Dinitz, Pandurangan; SPAA 2012):

* :mod:`repro.graphs` — the weighted-network substrate,
* :mod:`repro.congest` — the synchronous CONGEST simulator,
* :mod:`repro.algorithms` — Bellman-Ford variants, BFS trees, termination
  detection,
* :mod:`repro.tz` — Thorup–Zwick sketches, centralized and distributed,
* :mod:`repro.slack` — ε-slack, CDG, and gracefully degrading sketches,
* :mod:`repro.oracle` — the high-level build/query/evaluate API,
* :mod:`repro.analysis` — stretch statistics and theory-curve checks.

Quickstart::

    from repro import build_sketches, estimate_distance
    from repro.graphs import erdos_renyi

    g = erdos_renyi(128, seed=1)
    built = build_sketches(g, scheme="tz", k=3, seed=2)
    est = built.query(5, 99)
"""

import sys


def lazy_exports(package: str, submodules: dict) -> tuple:
    """``(__all__, __getattr__, __dir__)`` for a package that re-exports
    names of its submodules (``{submodule: (name, ...)}``): a PEP 562
    ``__getattr__`` imports a submodule only when one of its names is
    first read.

    A package ``__init__`` that imported its submodules eagerly would
    make every ``import repro.x.y`` load all of ``repro.x``; this keeps
    a serving process (``python -m repro serve idx.rpix``) off the
    construction stack and scipy.  An unknown name raises
    :class:`AttributeError`, so ``hasattr`` stays honest.
    """
    owner = {name: f"{package}.{sub}"
             for sub, names in submodules.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in owner:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # __import__ is the import statement's own path, so the
        # submodule shows in ``-X importtime`` (import_module bypasses it)
        value = getattr(__import__(owner[name], fromlist=[name]), name)
        namespace[name] = value  # later reads skip __getattr__
        return value

    def __dir__() -> list:
        return sorted({*namespace, *owner})

    return list(owner), __getattr__, __dir__


__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "_version": ("__version__",),
    "oracle.api": ("build_sketches", "BuiltSketches"),
    "tz.sketch": ("TZSketch", "estimate_distance"),
})
