"""High-level build/query/evaluate API (systems S16–S17).

:func:`repro.oracle.api.build_sketches` is the single entry point a
downstream user needs: pick a scheme (``"tz"``, ``"stretch3"``, ``"cdg"``,
``"graceful"``), a mode (``"centralized"`` or ``"distributed"``), and get a
:class:`~repro.oracle.api.BuiltSketches` that answers pairwise queries and
reports sizes and construction cost.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "api": ("build_sketches", "BuiltSketches"),
    "schemes": ("SCHEMES", "SchemeSpec", "get_scheme",
                "scheme_support_matrix", "schemes_markdown"),
    "evaluation": ("StretchReport", "evaluate_stretch", "eps_far_mask",
                   "average_stretch", "slack_coverage"),
    "online": ("online_query_cost", "online_query_cost_many",
               "simulate_online_exchange"),
})
