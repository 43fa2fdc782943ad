"""Scheme registry: one :class:`SchemeSpec` per sketch family.

Each spec records the paper result it implements, the theoretical
worst-case stretch as a function of the build parameters, and the slack
semantics (whether the stretch bound holds for all pairs or only ε-far
pairs) — the evaluation layer uses these to know which pairs a bound
applies to.

The registry is also the source of the capability matrix rendered by
``python -m repro schemes --markdown`` (and pasted into the README):
which build modes exist, whether the wire format round-trips the
sketches, whether the index repairs incrementally, and the serving
transports (every scheme has a vectorized index, so every transport
hosts every scheme).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class SchemeSpec:
    """Metadata for one sketch scheme.

    :param name: registry key (``"tz"``, ``"stretch3"``, ``"cdg"``,
        ``"graceful"``).
    :param paper_result: the theorem/lemma this scheme implements.
    :param stretch_bound: worst-case stretch bound as a function of the
        build params dict; applies to all pairs (``slack_of`` returns
        ``None``) or only eps-far pairs.
    :param slack_of: returns the eps for which the bound holds, or
        ``None`` for all-pairs.
    :param build_modes: construction modes :func:`~repro.oracle.api.build_sketches`
        accepts for this scheme.
    :param supports_serialize: whether :mod:`repro.oracle.serialization`
        round-trips this scheme's sketches (and its pre-built index).
    :param supports_updates: whether the dynamic-update subsystem
        (:mod:`repro.service.updates`) can incrementally repair this
        scheme's index on edge-weight changes (every built-in scheme
        can; external schemes without a repair strategy rebuild).
    """

    name: str
    paper_result: str
    stretch_bound: Callable[[dict], float]
    slack_of: Callable[[dict], Optional[float]]
    build_modes: tuple[str, ...] = ("centralized", "distributed")
    supports_serialize: bool = True
    supports_updates: bool = False

    def describe(self, params: dict) -> str:
        """One-line human summary of the guarantee under ``params``."""
        slack = self.slack_of(params)
        bound = self.stretch_bound(params)
        tail = f" with {slack}-slack" if slack is not None else ""
        return f"{self.name}: stretch <= {bound:g}{tail} ({self.paper_result})"


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
        supports_updates=True,
    ),
    "stretch3": SchemeSpec(
        name="stretch3",
        paper_result="Theorem 4.3 (density-net table)",
        stretch_bound=_stretch3_stretch,
        slack_of=lambda p: p["eps"],
        supports_updates=True,
    ),
    "cdg": SchemeSpec(
        name="cdg",
        paper_result="Theorem 4.6 ((eps,k)-CDG)",
        stretch_bound=_cdg_stretch,
        slack_of=lambda p: p["eps"],
        supports_updates=True,
    ),
    "graceful": SchemeSpec(
        name="graceful",
        paper_result="Theorem 4.8 / Corollary 4.9 (gracefully degrading)",
        stretch_bound=_graceful_stretch,
        slack_of=lambda p: None,  # all pairs, at the O(log n) worst case
        supports_updates=True,
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
        "query": True,  # every registered scheme answers single queries
        "serialize": spec.supports_serialize,
        "updates": spec.supports_updates,
        "transports": list(TRANSPORTS),
    } for name, spec in sorted(SCHEMES.items())]


def schemes_markdown() -> str:
    """The support matrix as a GitHub-flavored markdown table — the exact
    text ``python -m repro schemes --markdown`` prints and the README
    embeds."""
    yn = {True: "yes", False: "no"}
    lines = [
        "| scheme | build | single query | serialized "
        "| incremental updates | transports |",
        "|--------|-------|--------------|------------"
        "|---------------------|------------|",
    ]
    lines.extend(
        f"| `{row['scheme']}` | {', '.join(row['build'])} "
        f"| {yn[row['query']]} "
        f"| {yn[row['serialize']]} | {yn[row['updates']]} "
        f"| {', '.join(row['transports'])} |"
        for row in scheme_support_matrix())
    return "\n".join(lines)
