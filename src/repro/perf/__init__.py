"""``repro.perf``: what a bench measures outside the recorder.

Timers and counters live in :mod:`repro.trace`; what is left here is the
forked peak-RSS measurement of the bench harness's memory column, and the
gc pauses and cold path of :mod:`repro.perf.process`.
"""

from repro.perf.memory import measure_peak_rss, peak_rss_mb
from repro.perf.process import cold_path, gc_pauses, render_cold, render_gc

__all__ = ["cold_path", "gc_pauses", "measure_peak_rss", "peak_rss_mb", "render_cold", "render_gc"]
