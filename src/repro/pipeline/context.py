"""RunContext: how a scenario run is executed, never what it computes.

What a run computes is its parameters alone (stored in the manifest and
replayed on resume); the context holds only the worker count, tracing,
profiling and progress reporting.  Seeding is the scenarios' own: each
item carries its ``sweep_seed``.  Tracing and profiling are one
:class:`~repro.trace.TraceSession` per run: ``trace`` names its sink, a
``tape`` list keeps its records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.trace.record import TraceRecord


@dataclass
class RunContext:
    """Everything a scenario run needs besides its parameters.

    Attributes:
        workers: Worker processes for the item map (1 = in-process); the
            run forks one pool of at most this many processes, capped at
            the usable CPUs.  The records are identical for any worker
            count because every item is seeded independently (the
            ``sweep_seed`` contract).
        trace: Optional trace-sink spec, ``"jsonl[:PATH]"`` (see
            :func:`repro.trace.open_sink`); without an explicit path the
            file lands in the run directory.
            Tracing is observability-only: records stay byte-identical to
            an untraced run apart from the added ``trace`` id field.
        tape: A list makes the run a profile: the session's records land
            in it, and their :func:`repro.trace.query.profile_of` view is
            the profile.  The recorder is on for the run's session only
            and released when it ends, interrupted runs included.
        progress: Called with ``(done, total)`` after every record.
    """

    workers: int = 1
    trace: Optional[str] = None
    tape: Optional[List[TraceRecord]] = None
    progress: Optional[Callable[[int, int], None]] = None
