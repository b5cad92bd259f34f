"""The evaluation harness: one module per table/figure of the paper.

Every experiment registers a declarative :class:`repro.pipeline.Scenario`,
and a scenario is its only entry point: ``python -m repro.experiments run
<name>`` from the shell, ``run_in_memory(name, overrides, ctx)`` from
:mod:`repro.pipeline` in a library, both returning the same structured
result.  Default parameters are scaled so the whole harness finishes in
minutes on a laptop; each scenario carries ``paper_params`` with the
knobs of the paper's original scale (``run --paper``).

| Scenario      | Reproduces                                                  |
|---------------|-------------------------------------------------------------|
| table2        | Table II -- flow tables at source and destination switches  |
| fig6          | Fig. 6 -- bandwidth consumption over time during an update  |
| fig7          | Fig. 7 -- percentage of congestion cases vs. network size   |
| fig8          | Fig. 8 -- congested time-extended links vs. network size    |
| fig9          | Fig. 9 -- forwarding-rule overhead, Chronus vs. two-phase   |
| fig10         | Fig. 10 -- scheduler running time vs. network size          |
| fig11         | Fig. 11 -- CDF of the update time, Chronus vs. OPT          |
| walkthrough   | Figs. 1/2/5 -- the Section II motivating example            |
| faults        | Beyond the paper: consistency vs. control-plane faults      |
| service       | Beyond the paper: the long-running update-service loop      |
| sweep         | Section V-B's raw instance sweep with every knob exposed    |
| gate          | Defs. 1-3 -- planner, verifier and fluid replay agree       |

Importing an experiment module registers its scenario; importing this
package loads none of them, so ``import repro.experiments.sweep`` pays for
one module, not twelve.  The registry's first name lookup calls
:func:`load_all`, so library users never import the experiment modules
directly just to resolve a name; ``repro.experiments.fig7`` and friends
import on first attribute access.
"""

from importlib import import_module

__all__ = [
    "table2",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "service",
    "sweep",
    "walkthrough",
    "faults_ablation",
    "gate",
]


def load_all() -> None:
    """Import every experiment module, registering every scenario."""
    for name in __all__:
        import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in __all__:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
