"""Independent plan-conformance verification.

Two parallel sources of truth exist for transient consistency: the analytic
:class:`repro.core.intervals.IntervalTracker` every scheduler reasons over,
and the fluid discrete-event simulator that executes plans.  A bug in either
silently corrupts every figure.  This package cross-checks both against a
third, deliberately independent implementation:

* :func:`verify_schedule` -- re-derives Definitions 2 and 3 for any
  :class:`repro.core.schedule.UpdateSchedule`, sharing **no code** with the
  interval tracker: it walks each transient emission hop by hop and
  replicates the one steady trajectory the later emissions share;
* :func:`verify_two_phase` -- the same judgement under two-phase versioned
  semantics (packets travel either the all-old or the all-new path);
* :func:`differential_replay` -- executes a plan on the fluid data plane via
  the real controller/executor stack and cross-checks the measured link
  utilisation timelines and drop volumes against the verdict's predictions;
* :mod:`repro.experiments.gate` -- the ``gate`` scenario (``make
  validate``) holding every planner to both engine pairs on seeded
  instances.

Every name below loads its module on first use (:mod:`repro.lazy`), so
judging a schedule does not import the simulator that
:func:`differential_replay` drives.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "verifier": (
            "Verdict",
            "LoopViolation",
            "BlackholeViolation",
            "CapacityViolation",
            "verify_schedule",
            "verify_two_phase",
            "verify_plan",
        ),
        "differential": ("differential_replay", "DiffReport", "TimelineMismatch"),
    },
)
