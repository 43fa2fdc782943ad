"""Thorup–Zwick distance sketches (systems S8–S11).

* :mod:`repro.tz.hierarchy` — the sampled set hierarchy A_0 ⊇ A_1 ⊇ … ⊇ A_k.
* :mod:`repro.tz.centralized` — the centralized [TZ05] construction used as
  the differential-testing baseline (and for large-n statistics).
* :mod:`repro.tz.sketch` — the label data structure (one label, and a
  build's labels as columns) and the O(k)-time distance estimation of
  Lemma 3.2.
* :mod:`repro.tz.distributed` — the paper's contribution: Algorithm 2 run
  phase-by-phase in the CONGEST simulator (Theorem 3.8), with oracle,
  known-S and ECHO (Section 3.3) synchronization.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "hierarchy": ("Hierarchy", "sample_hierarchy"),
    "sketch": ("TZSketch", "TZLabels", "estimate_distance"),
    "centralized": ("build_tz_sketches_centralized", "compute_pivot_keys",
                    "compute_bunches", "brute_force_bunches"),
    "distributed": ("build_tz_sketches_distributed", "TZDistributedResult"),
})
