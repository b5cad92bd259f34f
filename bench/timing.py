"""Noise protocol of the benchmark: interleaved passes, calibration-scaled units.

A workload is a fixed list of *units* derived from the seed.  The whole
list is run in interleaved passes (pass 1 all units, pass 2 all units,
...).  A fixed calibration kernel is timed between units and each unit's
wall time is scaled by the kernel times measured around it, so slowdowns
of the machine cancel (``Calibrator``).  Each unit is then aggregated by
the **median** of its scaled times and throughput is
``work / sum(per-unit medians)``.  Minimum and quartiles per unit are
kept for the record; the minimum of the raw wall times (the repo's
``_best_of`` convention: contention only ever adds time) is reported
beside it as the wall-clock rate.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple


def unit_stats(samples: Sequence[float]) -> Dict[str, float]:
    """Aggregate one unit's per-pass wall times (seconds)."""
    ordered = sorted(samples)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = q3 = ordered[0]
    return {
        "min": ordered[0],
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
    }


def aggregate_passes(passes: Sequence[Sequence[float]]) -> List[Dict[str, float]]:
    """Per-unit stats from ``passes[p][u]`` (pass-major wall times)."""
    if not passes:
        raise ValueError("no passes to aggregate")
    width = len(passes[0])
    if any(len(row) != width for row in passes):
        raise ValueError("every pass must time the same unit list")
    return [unit_stats([row[u] for row in passes]) for u in range(width)]


def throughput(work: float, stats: Sequence[Dict[str, float]], key: str = "min") -> float:
    """``work / sum(per-unit aggregate)`` -- operations per wall second."""
    total = sum(unit[key] for unit in stats)
    if total <= 0:
        raise ValueError("units took no measurable time")
    return work / total


def tail_quantile(count: int, keep_beyond: int = 10) -> Optional[float]:
    """The highest reportable percentile of ``count`` samples.

    The rule of the metrics guide: report the highest percentile that
    still has at least ``keep_beyond`` samples beyond it, from the
    ladder p50 < p90 < p95 < p99 < p99.9.  ``None`` when even the
    median is not supported.
    """
    best = None
    # (percentile, one sample in how many lies beyond it) -- whole numbers,
    # so 100 samples support p90 exactly at the boundary.
    for q, one_in in ((0.5, 2), (0.9, 10), (0.95, 20), (0.99, 100), (0.999, 1000)):
        if count >= keep_beyond * one_in:
            best = q
    return best


#: Kernel time of the nominal machine that wall times are scaled to.
CAL_REF_MS = 17.0


class Calibrator:
    """Samples the calibration kernel between units, at most every ``every`` s.

    This box slows down by 10-40 % for minutes at a time and in bursts
    within a pass (the same seed measured 92 and 108 plans/s half an hour
    apart), which minima over the passes of one run cannot remove.
    ``scale_at`` turns a unit's wall time into seconds of the nominal
    machine whose kernel takes ``CAL_REF_MS``, from the kernel samples
    taken just before and just after the unit.
    """

    def __init__(self, every: float = 0.3) -> None:
        import random

        import numpy as np

        self.every = every
        self.samples: List[Tuple[float, float]] = []  # (started, ended), in time order
        self._np = np
        self._buffer = np.empty(2048, dtype=np.float64)
        # A few MB of small heap objects in shuffled order: walking them
        # misses the cache the way the program's own object graphs do.
        self._objects = [(i, str(i)) for i in range(60_000)]
        random.Random(0).shuffle(self._objects)
        self._index = {text: number for number, text in self._objects}
        self._keys = [text for _, text in self._objects[:30_000]]

    def _kernel(self) -> None:
        """~17 ms, seedless: interpreter arithmetic, pointer chasing, numpy calls.

        A slowdown of this box is part clock, part memory system, so the
        kernel has a part of each; a compute-only kernel followed the
        program's slowdown with correlation 0.5-0.7, the mix tracks it
        better.  It allocates nothing large and works in place: a kernel
        that asked malloc for megabytes read 21 or 31 ms depending on the
        heap the workload had left behind, which is not the machine's speed.
        """
        np = self._np
        total = 0
        for i in range(80_000):
            total += i * i % 7
        for number, _ in self._objects:
            total += number
        index = self._index
        for key in self._keys:
            total += index[key]
        data = self._buffer
        data[:] = 2.0
        for _ in range(200):
            np.multiply(data, 1.0001, out=data)
            np.sqrt(data, out=data)
        if total < 0 or not np.isfinite(data[-1]):  # keep the results live
            raise AssertionError("calibration kernel miscomputed")

    def sample(self) -> float:
        """Time the kernel once; returns the seconds it took."""
        started = time.perf_counter()
        self._kernel()
        ended = time.perf_counter()
        self.samples.append((started, ended))
        return ended - started

    def maybe_sample(self) -> float:
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= self.every:
            return self.sample()
        return 0.0

    def scale_at(self, started: float, seconds: float) -> float:
        """Nominal seconds per wall second around one unit.

        Averages the last sample begun before the unit and the first begun
        after it ended (whichever exist); kernel and units share one
        thread, so samples never overlap a unit.
        """
        def begun(sample):
            return sample[0]

        before = bisect.bisect_right(self.samples, started, key=begun) - 1
        after = bisect.bisect_left(self.samples, started + seconds, key=begun)
        around = [
            self.samples[i][1] - self.samples[i][0]
            for i in (before, after)
            if 0 <= i < len(self.samples)
        ]
        if not around:
            raise ValueError("no calibration sample around the unit")
        return CAL_REF_MS * 1e-3 / statistics.fmean(around)

    def summary(self) -> Dict[str, float]:
        """Median kernel time and its inter-quartile spread as a share."""
        samples_ms = [(ended - started) * 1e3 for started, ended in self.samples]
        median = statistics.median(samples_ms)
        stats = unit_stats(samples_ms)
        return {
            "cal_ms_p50": median,
            "cal_spread": (stats["q3"] - stats["q1"]) / median,
        }
