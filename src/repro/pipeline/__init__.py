"""``repro.pipeline``: the declarative scenario pipeline behind the harness.

Every table, figure and ablation of the evaluation is a :class:`Scenario`
-- a named, declarative bundle of *(instance grid, per-item evaluation,
aggregation)* registered at import time by its experiment module.  The
pipeline supplies everything the experiment modules used to
re-implement individually:

* **Registry** (:mod:`repro.pipeline.scenario`): scenarios are looked up
  by exact name; the registry is populated by importing
  :mod:`repro.experiments`.
* **RunContext** (:mod:`repro.pipeline.context`): how a run executes,
  never what it computes -- the worker count (one fork pool per run,
  :mod:`repro.runtime.parallel`), tracing and profiling (one
  :mod:`repro.trace` session) and progress.  What a run computes is its
  parameters alone (``--set verify=true``, ``--set fault_severity=S``),
  which the manifest stores and a resume replays.
* **Artifact store** (:mod:`repro.pipeline.store`): every run streams
  per-instance records to ``runs/<scenario>/<run-id>/records.jsonl``
  beside a ``manifest.json`` (config hash, params, git revision); an
  interrupted run resumes by skipping completed record keys and produces
  byte-identical records to an uninterrupted run.
* **Executor** (:mod:`repro.pipeline.runner`): ordered, checkpointed
  evaluation of a scenario's items -- in memory (:func:`run_in_memory`,
  the library call) or against the store (the ``python -m
  repro.experiments run|resume|report`` CLI).
* **Script helpers** (:mod:`repro.pipeline.cli`): the argparse/progress/
  JSON boilerplate shared by ``scripts/*.py``.

Quick tour::

    from repro.pipeline import RunContext, run_in_memory, run_to_store

    result = run_in_memory("fig7", overrides={"switch_counts": (10, 20)})
    print(result.render())              # the figure, computed from records

    run = run_to_store("fig9", ctx=RunContext(workers=4))
    print(run.handle.records_path)      # runs/fig9/<run-id>/records.jsonl
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "store": ("ArtifactStore", "RunHandle"),
        "context": ("RunContext",),
        "runner": ("RunInterrupted", "report_from_store", "run_in_memory", "run_to_store"),
        "scenario": (
            "Scenario",
            "UnknownScenarioError",
            "get_scenario",
            "register",
        ),
    },
)
