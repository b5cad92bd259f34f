"""``repro.trace``: the one observability layer (spans, timers, counters, one sink).

Everything that times, counts or explains a run meets on a single
OTel-shaped record stream (:class:`TraceRecord`), written through the
three verbs of the process-global :data:`recorder` (recorded span,
aggregate timer, counter -- see :mod:`repro.trace.recorder`) and streamed
to one JSONL file (:class:`JsonlSink`) or, for profiles, kept on a
sink-less session's in-memory tape:

* the runner opens a ``run`` root span and one ``item:<key>`` span per
  evaluated item (attributes: key, seed, pid);
* every planner's ``plan`` span owns the aggregate timers and counters of
  the engine that ran under it (``greedy.select.tracker.probe``, the
  ``opt.search`` call with ``explored`` / ``proven``);
* the update service opens one ``service.request`` span per intent, with
  its ``plan``, ``validate.verifier.verify`` and ``execute`` below it;
* the executors' per-switch ``apply`` / ``late`` / ``retry`` /
  ``rollback`` evidence lands as events on the span the execution was
  started under;
* pipeline records gain a ``trace`` field linking them to their span --
  only when a sink is enabled, so untraced records stay byte-identical.

Tracing is observability-only: nothing on the planning side reads it.
What "the current span" is lives in one context variable, so asyncio
tasks and pool workers each nest their own spans; pool workers ship their
records back with each item's result (see :mod:`repro.trace.worker`), so
sinks only ever run in the parent process.

Quick tour::

    python -m repro.experiments run sweep --workers 2 --trace jsonl
    python -m repro.trace show                # tree view of the run
    python -m repro.trace spans --switch s3   # one switch's evidence
    python -m repro.trace spans --status aborted   # the intents that ended so
    python -m repro.trace slowest -n 15       # where the time went
    python -m repro.trace profile             # self-time tree, counters, views
"""

# ``recorder`` is also the name of its submodule, which every instrumented
# module imports; importing a submodule binds it on the package, so this
# one name is bound here (the module loads with any traced code anyway).
from repro.trace.recorder import recorder
from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "sinks": ("JsonlSink", "open_sink"),
        "record": ("TraceRecord", "derive_trace_id", "utc_now_iso"),
        "recorder": ("TraceRecorder",),
        "session": ("TraceSession",),
        "query": ("aggregate", "profile_of", "read_trace", "render_report"),
    },
)
__all__.append("recorder")
