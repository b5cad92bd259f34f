"""``repro.perf``: peak-RSS measurement for bench stages.

Timers and counters live in :mod:`repro.trace` (one recorder, one tape;
``python -m repro.trace profile`` renders them); what is left here is the
forked high-water-mark measurement the bench harness's memory column uses.
"""

from repro.perf.memory import measure_peak_rss, peak_rss_mb

__all__ = ["measure_peak_rss", "peak_rss_mb"]
