"""Deterministic service metrics: percentiles and the summary block.

Everything here is computed from *virtual* timestamps, so the summary
is byte-identical across runs of the same seed.  Wall-clock throughput
(real updates/sec) is measured only by the bench harness, never inside
pipeline records.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis import stats


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """:func:`repro.analysis.stats.percentile` rounded to 9 places, so a
    summary prints the same on every platform; None if empty."""
    if not values:
        return None
    return round(stats.percentile(values, q), 9)


def latency_summary(latencies: Sequence[float]) -> Dict[str, Optional[float]]:
    """The p50/p95/p99 block the scenario and bench both report."""
    return {
        "p50": percentile(latencies, 50.0),
        "p95": percentile(latencies, 95.0),
        "p99": percentile(latencies, 99.0),
        "max": round(max(latencies), 9) if latencies else None,
    }


def queue_summary(samples: Sequence[int]) -> Dict[str, Optional[float]]:
    """Queue-depth behaviour over the run (sampled once per tick)."""
    if not samples:
        return {"max": None, "mean": None}
    return {
        "max": max(samples),
        "mean": round(sum(samples) / len(samples), 6),
    }
