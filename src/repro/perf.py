"""What a bench measures outside the recorder: peak RSS, gc pauses and
the cold path (timers and counters live in :mod:`repro.trace`).

* :func:`measure_peak_rss` -- ``ru_maxrss`` is a per-process high-water
  mark that never resets, so measuring one stage inside a long-lived bench
  process would only report the largest stage seen so far.  It therefore
  forks a child per measurement (sharing the parent's imports, so startup
  adds nothing to the peak), runs the stage there and ships the child's
  counters back over a pipe.  On platforms without ``fork`` it degrades to
  an in-process measurement, flagged in the result.
* :func:`gc_pauses` counts the garbage collector's collections and seconds
  per generation through a ``gc.callbacks`` hook while a block runs (the
  recorder's timers include every collection that interrupted them).
* :func:`cold_path` plans in fresh interpreters and reports what such a
  process pays before warm numbers apply.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Mapping

try:
    import resource
except ImportError:  # pragma: no cover - Windows
    resource = None  # type: ignore[assignment]

from repro.runtime.parallel import fork_available


def peak_rss_mb() -> float:
    """This process's lifetime peak resident set size in MiB (0.0 if unknown)."""
    if resource is None:  # pragma: no cover - Windows
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    if sys.platform == "darwin":  # pragma: no cover - macOS
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _child(conn, fn: Callable[..., Any], args, kwargs) -> None:
    baseline = peak_rss_mb()
    try:
        fn(*args, **kwargs)
        conn.send({"baseline_rss_mb": baseline, "peak_rss_mb": peak_rss_mb()})
    except BaseException as exc:  # pragma: no cover - diagnostic path
        conn.send({"error": repr(exc)})
    finally:
        conn.close()


def measure_peak_rss(fn: Callable[..., Any], *args, **kwargs) -> Dict[str, float]:
    """Run ``fn(*args, **kwargs)`` and report its peak RSS in MiB.

    Returns ``{"baseline_rss_mb", "peak_rss_mb", "delta_mb"}``, rounded to
     0.1 MiB.  ``baseline_rss_mb`` is the RSS inherited at stage start (the
    process image plus imports), ``delta_mb`` the stage's own growth.  The
    function's return value is discarded -- this is a measurement harness,
    not a call wrapper.  Adds ``"in_process": True`` when ``fork`` is
    unavailable and the numbers describe the whole process instead.
    """
    if fork_available() and resource is not None:
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe(duplex=False)
        proc = context.Process(target=_child, args=(child_conn, fn, args, kwargs))
        proc.start()
        child_conn.close()
        try:
            payload = parent_conn.recv()
        except EOFError:  # pragma: no cover - child died before reporting
            payload = {"error": "measurement child exited without reporting"}
        finally:
            parent_conn.close()
            proc.join()
        if "error" in payload:
            raise RuntimeError(f"peak-RSS measurement failed: {payload['error']}")
        baseline = payload["baseline_rss_mb"]
        peak = payload["peak_rss_mb"]
        return {
            "baseline_rss_mb": round(baseline, 1),
            "peak_rss_mb": round(peak, 1),
            "delta_mb": round(peak - baseline, 1),
        }
    baseline = peak_rss_mb()
    fn(*args, **kwargs)
    peak = peak_rss_mb()
    return {
        "baseline_rss_mb": round(baseline, 1),
        "peak_rss_mb": round(peak, 1),
        "delta_mb": round(peak - baseline, 1),
        "in_process": True,
    }


COLD_PHASES = ("import repro", "imports", "build", "encode", "first plan", "warm plan")

#: One fresh process: ``import repro``, the imports a Chronus plan needs,
#: the build, the encoding the first plan would build (the instance tables
#: greedy reads and the tracker's id-space encoding -- for a long path the
#: union-graph ids and the array layout's columns -- with the lazy imports
#: that triggers), the first plan, a warm re-plan, then what the process
#: has loaded.
COLD_PROBE = """import json, sys, time
t = [time.perf_counter()]
import repro
t.append(time.perf_counter())
from repro.core.instance import {generator}
from repro.core.tracker import make_tracker
from repro.updates.registry import get_planner
t.append(time.perf_counter())
instance = {generator}({size}, seed={seed}{options})
t.append(time.perf_counter())
instance.switches_to_update, instance.old_path_index, instance.old_path_offsets
instance.old_path_delay, instance.new_path_delay
make_tracker(instance)
t.append(time.perf_counter())
for _ in range(2):
    get_planner("chronus").plan(instance)
    t.append(time.perf_counter())
print(json.dumps(dict(ms=[1e3 * (b - a) for a, b in zip(t, t[1:])], modules=len(sys.modules),
    repro_modules=sum(name.split(".")[0] == "repro" for name in sys.modules),
    numpy="numpy" in sys.modules, scipy="scipy" in sys.modules)))
"""


@contextmanager
def gc_pauses() -> Iterator[Dict]:
    """``{"collections_by_generation", "seconds_by_generation", "seconds"}``
    of the collections while the block runs (``seconds`` set on exit)."""
    pauses: Dict = {"collections_by_generation": [0, 0, 0], "seconds_by_generation": [0.0] * 3}
    started = [0.0]

    def hook(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            pauses["collections_by_generation"][info["generation"]] += 1
            pauses["seconds_by_generation"][info["generation"]] += time.perf_counter() - started[0]

    gc.callbacks.append(hook)
    try:
        yield pauses
    finally:
        gc.callbacks.remove(hook)
        pauses["seconds"] = sum(pauses["seconds_by_generation"])


def render_gc(pauses: Mapping[str, list]) -> str:
    """One line of :func:`gc_pauses`' numbers."""
    return (
        "gc collections by generation " + " / ".join(map(str, pauses["collections_by_generation"]))
        + "   seconds " + " / ".join(f"{s:.4f}" for s in pauses["seconds_by_generation"])
    )


def cold_path(generator: str, size: int, seed: int, options: str = "", repeat: int = 5) -> Dict:
    """Medians over ``repeat`` fresh interpreters of :data:`COLD_PHASES` in ms
    for ``{generator}({size}, seed={seed}{options})``, and the modules the
    last process had loaded by its end."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = COLD_PROBE.format(generator=generator, size=size, seed=seed, options=options)
    run = [sys.executable, "-c", code]
    probes = [
        json.loads(subprocess.run(run, capture_output=True, text=True, env=env, check=True).stdout)
        for _ in range(repeat)
    ]
    medians = {phase: statistics.median(p["ms"][i] for p in probes) for i, phase in enumerate(COLD_PHASES)}
    last = probes[-1]
    loaded = {key: last[key] for key in ("modules", "repro_modules", "numpy", "scipy")}
    return {"medians_ms": medians, **loaded}


def render_cold(shapes: Mapping[str, Dict]) -> str:
    """One line per shape (label -> :func:`cold_path` result)."""
    return "\n".join(
        f"  {label:<18}" + ", ".join(f"{phase} {ms:.1f}" for phase, ms in shape["medians_ms"].items())
        + f"; {shape['modules']} modules ({shape['repro_modules']} repro), "
        + ", ".join(f"{name} {'' if shape[name] else 'not '}loaded" for name in ("numpy", "scipy"))
        for label, shape in shapes.items()
    )
