"""Metrics and statistics for the evaluation harness.

Every name below loads its module on first use (:mod:`repro.lazy`), so
the service's summary can use :mod:`repro.analysis.stats` without loading
the tracker behind :mod:`repro.analysis.metrics`.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "metrics": ("ScheduleMetrics", "evaluate_schedule", "congested_timed_links"),
        "illustrate": ("render_dependency_evolution", "render_flow_timeline"),
        "stats": ("BoxStats", "box_stats", "cdf_points", "mean", "percentile"),
    },
)
