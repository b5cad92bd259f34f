"""Runtime layer: parallel execution of experiment sweeps.

See :mod:`repro.runtime.parallel` for the design notes; DESIGN.md §7 for
how the experiments use it.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__, {"parallel": ("ordered_map", "available_cpus", "fork_available")}
)
