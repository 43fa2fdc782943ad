"""Sketches with slack (paper Section 4, systems S12–S15).

* :mod:`repro.slack.density_net` — ε-density nets by random sampling
  (Definition 4.1, Lemma 4.2).
* :mod:`repro.slack.stretch3` — stretch-3 sketches with ε-slack
  (Theorem 4.3): remember the distance to *every* net node.
* :mod:`repro.slack.cdg` — (ε,k)-CDG sketches (Lemmas 4.4/4.5, Theorem
  4.6): Thorup–Zwick run *on the net* through the graph.
* :mod:`repro.slack.graceful` — gracefully degrading sketches (Theorem
  4.8) and the O(1) average-stretch corollary (Lemma 4.7, Corollary 4.9).
"""

from repro.slack.density_net import (
    DensityNet,
    sample_density_net,
    ball_radii,
    verify_density_net,
    build_density_net_distributed,
)
from repro.slack.stretch3 import (
    Stretch3Sketch,
    build_stretch3_centralized,
    build_stretch3_distributed,
)
from repro.slack.cdg import (
    CDGSketch,
    cdg_sampling_probability,
    build_cdg_centralized,
    build_cdg_distributed,
)
from repro.slack.graceful import (
    GracefulSketch,
    graceful_schedule,
    build_graceful_centralized,
    build_graceful_distributed,
)

__all__ = [
    "DensityNet",
    "sample_density_net",
    "ball_radii",
    "verify_density_net",
    "build_density_net_distributed",
    "Stretch3Sketch",
    "build_stretch3_centralized",
    "build_stretch3_distributed",
    "CDGSketch",
    "cdg_sampling_probability",
    "build_cdg_centralized",
    "build_cdg_distributed",
    "GracefulSketch",
    "graceful_schedule",
    "build_graceful_centralized",
    "build_graceful_distributed",
]
