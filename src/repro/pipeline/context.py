"""RunContext: the cross-cutting services threaded through every scenario.

Before the pipeline each experiment module re-plumbed the same four
services by hand: ``sweep_seed`` deterministic seeding, the worker
count, the conformance verifier flag and profiling.  :class:`RunContext`
carries them once, and the executor hands each pool worker the
picklable slice it needs (:class:`WorkerContext`).
Tracing and profiling are one :class:`~repro.trace.TraceSession` per run:
``trace`` names its sink, ``profile`` keeps its records in ``tape``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.trace.record import TraceRecord


@dataclass(frozen=True)
class WorkerContext:
    """The per-worker, picklable slice of a :class:`RunContext`.

    Attributes:
        verify: Re-check every evaluated schedule with the independent
            verifier (:mod:`repro.validate`); scenarios built on the
            shared sweep stage fill ``verifier_agrees`` on each outcome.
        fault_severity: Optional control-plane fault severity (the
            :func:`repro.faults.severity_spec` scalar) for scenarios that
            execute on the discrete-event plane; analytic scenarios
            ignore it.
        trace_id: The run's trace id when a sink is enabled, ``None``
            otherwise.  The executor's worker entry point links each
            record to its ``item:<key>`` span only when this matches the
            process-global recorder's live trace -- which pool workers
            inherit, current span included, through ``fork``.
    """

    verify: bool = False
    fault_severity: Optional[float] = None
    trace_id: Optional[str] = None


@dataclass
class RunContext:
    """Everything a scenario run needs besides its parameters.

    Attributes:
        workers: Worker processes for the item map (1 = in-process); the
            run forks one pool of at most this many processes, capped at
            the usable CPUs.  The records are identical for any worker
            count because every item is seeded independently (the
            ``sweep_seed`` contract).
        verify: See :class:`WorkerContext`.
        profile: Record the run into ``tape`` even without a sink; the
            recorder is on for the run's session only and released when it
            ends, interrupted runs included.
        tape: Filled by a ``profile`` run: the session's records, whose
            :func:`repro.trace.query.aggregate` view is the profile.
        fault_severity: See :class:`WorkerContext`.
        trace: Optional trace-sink spec (``"console"``, ``"jsonl[:PATH]"``,
            ``"sqlite[:PATH]"``; see :func:`repro.trace.open_sink`).  File
            sinks without an explicit path land in the run directory.
            Tracing is observability-only: records stay byte-identical to
            an untraced run apart from the added ``trace`` id field.
        progress: Called with ``(done, total)`` after every record.
    """

    workers: int = 1
    verify: bool = False
    profile: bool = False
    fault_severity: Optional[float] = None
    trace: Optional[str] = None
    progress: Optional[Callable[[int, int], None]] = None
    tape: List[TraceRecord] = field(default_factory=list)

    def worker_context(self, trace_id: Optional[str] = None) -> WorkerContext:
        return WorkerContext(
            verify=self.verify,
            fault_severity=self.fault_severity,
            trace_id=trace_id,
        )

    @staticmethod
    def seed_for(base_seed: int, switch_count: int, index: int) -> int:
        """The harness seeding contract (see :func:`repro.experiments.sweep.sweep_seed`)."""
        from repro.experiments.sweep import sweep_seed

        return sweep_seed(base_seed, switch_count, index)
