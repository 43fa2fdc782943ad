"""Scheme registry: one :class:`SchemeSpec` row per sketch family.

A row is everything the rest of the library knows about a scheme: the
paper result it implements with its worst-case stretch and slack
semantics (the evaluation layer uses these to know which pairs a bound
applies to), the keyword parameters each build mode reads, and the
source paper's composition rule as three callables —

* ``sample(graph, seed, params) -> artifacts``: the scheme's random
  artifacts, drawn from one stream in a fixed order — ``tz``: the
  hierarchy; ``stretch3``: the density net; ``cdg``: the net, then the
  hierarchy over it; ``graceful``: the schedule, then per level net and
  net hierarchy.  An artifact present in ``params`` is taken as given,
  so ``sample`` is the identity on its own output;
* ``sketches(graph, artifacts, **hints) -> labels``: the centralized
  function — from fixed artifacts, every node's sketch as the scheme's
  columns (a :class:`~repro.tz.sketch.ColumnLabels`).  Builds
  (:func:`~repro.oracle.api.build_sketches`) and rebuilds
  (:class:`~repro.service.updates.UpdateableIndex`) end in it, and a
  repair re-runs its primitives, which is why they agree byte for byte;
* ``distributed(graph, seed, params) -> (sketches, artifacts, metrics,
  extras)``: the CONGEST construction (it interleaves its artifact
  draws with the simulator's, through the same ``sample``);

plus, where it pays, ``repair(graph, artifacts, labels, dirty) ->
(owners, patch)``: the update path's dirty-row discovery — the
re-issued owners and their rows as the same columns type, which
``labels.spliced`` puts in place.  Only stretch3 has one: every other
scheme's update rebuilds through ``sketches``, because its repair cost
about what a rebuild costs (``docs/serving.md`` §8).

The registry is also the source of the capability matrix rendered by
``python -m repro schemes --markdown`` (and pasted into the README):
which build modes exist, whether an update repairs incrementally, and
the serving transports (every scheme has a vectorized index and a wire
format, so every transport hosts and every file format holds every
scheme).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from repro.errors import ConfigError
from repro.slack.cdg import (build_cdg_distributed, cdg_artifacts,
                             cdg_sketches)
from repro.slack.graceful import (build_graceful_distributed,
                                  graceful_artifacts, graceful_sketches)
from repro.slack.stretch3 import (build_stretch3_distributed,
                                  stretch3_artifacts, stretch3_repair,
                                  stretch3_sketches)
from repro.tz.centralized import tz_sketches
from repro.tz.distributed import tz_distributed
from repro.tz.hierarchy import tz_artifacts


@dataclass(frozen=True)
class SchemeSpec:
    """One scheme (see the module docstring for the callables' contracts).

    :param name: registry key (``"tz"``, ``"stretch3"``, ``"cdg"``,
        ``"graceful"``).
    :param paper_result: the theorem/lemma this scheme implements.
    :param stretch_bound: worst-case stretch bound as a function of the
        build params dict; applies to all pairs (``slack_of`` returns
        ``None``) or only eps-far pairs.
    :param slack_of: returns the eps for which the bound holds, or
        ``None`` for all-pairs.
    :param reads: per build mode, every keyword parameter a build reads
        (anything else is a :class:`ConfigError`, never dropped).
    :param sample, sketches, distributed, repair: the composition rule.
    :param hints: the optional keywords ``sketches`` understands
        (documented there).
    """

    name: str
    paper_result: str
    stretch_bound: Callable[[dict], float]
    slack_of: Callable[[dict], Optional[float]]
    reads: Mapping[str, tuple[str, ...]]
    sample: Callable[..., dict]
    sketches: Callable[..., Any]
    distributed: Callable[..., tuple]
    hints: tuple[str, ...] = ()
    repair: Optional[Callable[..., tuple]] = None

    @property
    def build_modes(self) -> tuple[str, ...]:
        """Construction modes :func:`~repro.oracle.api.build_sketches`
        accepts for this scheme."""
        return tuple(self.reads)

    @property
    def supports_updates(self) -> bool:
        """Whether :mod:`repro.service.updates` repairs this scheme's
        sketches incrementally on edge changes (every other scheme's
        update rebuilds them)."""
        return self.repair is not None

    def check(self, mode: str, params: Mapping) -> None:
        """Refuse a keyword this scheme and mode do not read."""
        if mode not in self.reads:
            raise ConfigError(f"unknown mode {mode!r}")
        unknown = sorted(set(params) - set(self.reads[mode]))
        if unknown:
            raise ConfigError(
                f"a {mode} {self.name} build takes no parameter "
                f"{', '.join(map(repr, unknown))}; it reads: "
                f"{', '.join(self.reads[mode])}")

    def build(self, graph, seed, params: Mapping, **hints):
        """A centralized build — ``sample``, then ``sketches`` over every
        node — in ``distributed``'s shape (no metrics)."""
        artifacts = self.sample(graph, seed, params)
        extras = {}
        if "report" in self.hints:
            hints["report"] = extras["build"] = {}
        return (self.sketches(graph, artifacts, **hints), artifacts, None,
                extras)

    def describe(self, params: dict) -> str:
        """One-line human summary of the guarantee under ``params``."""
        slack = self.slack_of(params)
        bound = self.stretch_bound(params)
        tail = f" with {slack}-slack" if slack is not None else ""
        return f"{self.name}: stretch <= {bound:g}{tail} ({self.paper_result})"


def _distributed(builder: Callable, needs: tuple, draws: tuple) -> Callable:
    """A slack row's ``distributed`` from its public builder,
    ``build_X_distributed(graph, *needs, seed=, **rest) -> (sketches,
    *draws, metrics)`` (tz's, which reports extras, sits beside it)."""
    def build(graph, seed, params):
        given = {key: params.get(key) for key in needs}
        rest = {key: v for key, v in params.items() if key not in given}
        sketches, *drawn, metrics = builder(graph, *given.values(),
                                            seed=seed, **rest)
        return sketches, {**given, **dict(zip(draws, drawn))}, metrics, {}
    return build


_SYNC = ("sync", "S", "budget")


def _tz_stretch(p: dict) -> float:
    return 2 * p["k"] - 1


def _stretch3_stretch(p: dict) -> float:
    return 3.0


def _cdg_stretch(p: dict) -> float:
    return 8 * p["k"] - 1


def _graceful_stretch(p: dict) -> float:
    # worst case: the eps < 1/n component, stretch 8*ceil(log2 n) - 1
    n = p["n"]
    return 8 * max(1, math.ceil(math.log2(max(n, 2)))) - 1


SCHEMES: dict[str, SchemeSpec] = {
    "tz": SchemeSpec(
        name="tz",
        paper_result="Theorem 1.1/3.8 (distributed Thorup-Zwick)",
        stretch_bound=_tz_stretch,
        slack_of=lambda p: None,
        reads={"centralized": ("k", "hierarchy"),
               "distributed": ("k", "hierarchy", *_SYNC)},
        sample=tz_artifacts,
        sketches=tz_sketches,
        distributed=tz_distributed,
        hints=("report",),
    ),
    "stretch3": SchemeSpec(
        name="stretch3",
        paper_result="Theorem 4.3 (density-net table)",
        stretch_bound=_stretch3_stretch,
        slack_of=lambda p: p["eps"],
        reads={"centralized": ("eps", "net"),
               "distributed": ("eps", "net")},
        sample=stretch3_artifacts,
        sketches=stretch3_sketches,
        distributed=_distributed(build_stretch3_distributed, ("eps",),
                                 ("net",)),
        repair=stretch3_repair,
    ),
    "cdg": SchemeSpec(
        name="cdg",
        paper_result="Theorem 4.6 ((eps,k)-CDG)",
        stretch_bound=_cdg_stretch,
        slack_of=lambda p: p["eps"],
        reads={"centralized": ("eps", "k", "net", "hierarchy"),
               "distributed": ("eps", "k", "net", "hierarchy", *_SYNC)},
        sample=cdg_artifacts,
        sketches=cdg_sketches,
        distributed=_distributed(build_cdg_distributed, ("eps", "k"),
                                 ("net", "hierarchy")),
    ),
    "graceful": SchemeSpec(
        name="graceful",
        paper_result="Theorem 4.8 / Corollary 4.9 (gracefully degrading)",
        stretch_bound=_graceful_stretch,
        slack_of=lambda p: None,  # all pairs, at the O(log n) worst case
        reads={"centralized": ("schedule", "components"),
               "distributed": ("schedule", *_SYNC)},
        sample=graceful_artifacts,
        sketches=graceful_sketches,
        distributed=_distributed(build_graceful_distributed, (),
                                 ("schedule",)),
    ),
}


def get_scheme(name: str) -> SchemeSpec:
    """Look a scheme up by registry name.

    :raises ConfigError: for an unknown name.
    """
    try:
        return SCHEMES[name]
    except KeyError:
        raise ConfigError(
            f"unknown scheme {name!r}; available: {sorted(SCHEMES)}") from None


# ----------------------------------------------------------------------
# the capability matrix (``python -m repro schemes``)
# ----------------------------------------------------------------------
def scheme_support_matrix() -> list[dict]:
    """One JSON-ready row per registered scheme, derived entirely from the
    :data:`SCHEMES` registry and the transport list (so the docs can
    never drift from the code)."""
    from repro.service.client import TRANSPORTS

    return [{
        "scheme": name,
        "paper_result": spec.paper_result,
        "build": list(spec.build_modes),
        "updates": spec.supports_updates,
        "transports": list(TRANSPORTS),
    } for name, spec in sorted(SCHEMES.items())]


def schemes_markdown() -> str:
    """The support matrix as a GitHub-flavored markdown table — the exact
    text ``python -m repro schemes --markdown`` prints and the README
    embeds."""
    yn = {True: "yes", False: "no"}
    lines = [
        "| scheme | build | incremental updates | transports |",
        "|--------|-------|---------------------|------------|",
    ]
    lines.extend(
        f"| `{row['scheme']}` | {', '.join(row['build'])} "
        f"| {yn[row['updates']]} | {', '.join(row['transports'])} |"
        for row in scheme_support_matrix())
    return "\n".join(lines)
