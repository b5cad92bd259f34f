"""What a process pays outside the traced code: gc pauses and the cold path.

:func:`gc_pauses` counts the garbage collector's collections and seconds
per generation through a ``gc.callbacks`` hook while a block runs (the
recorder's timers include every collection that interrupted them).
:func:`cold_path` plans in fresh interpreters and reports what such a
process pays before warm numbers apply.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Mapping

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
    src = str(Path(__file__).resolve().parents[2])
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
