"""Pool-worker tape hand-off: the plumbing that survives a fork.

A ``fork`` pool worker inherits the live recorder whole -- trace id,
sequence numbers, the unflushed tape and, through the forked thread's
context, the parent's current span -- so its ``item:<key>`` spans parent
on the run root exactly as serial ones do (the serial-vs-pool lockstep
test is what shows this, not an assumption).  What it records would die
with it; one hand-off per chunk closes the loop:

* :func:`worker_prepare` runs in the worker at the start of every chunk
  and drops the tape the fork copied (the parent still owns those
  records);
* :func:`worker_collect` runs after the chunk and returns the worker's
  own records as plain JSON-ready data (picklable, version-stable) --
  aggregates and counters included, because every item span emits what
  it owns when it closes;
* :func:`merge_payload` runs in the parent, in chunk submission order,
  appending the worker's records to the parent tape (which the session
  then flushes).

:func:`collection_hooks` is the :class:`~repro.runtime.ParallelRunner`'s
entry point: it returns the triple only while a session is live, so
untraced, unprofiled runs pay nothing.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.trace.record import TraceRecord
from repro.trace.recorder import recorder

Payload = List[dict]
Hooks = Tuple[Callable[[], None], Callable[[], Payload], Callable[[Payload], None]]


def worker_prepare() -> None:
    """Discard the fork-inherited tape (the parent still has it)."""
    recorder.drain()


def worker_collect() -> Payload:
    """The worker's own records since :func:`worker_prepare`."""
    return [record.to_json() for record in recorder.drain()]


def merge_payload(payload: Payload) -> None:
    """Append one worker chunk's records to the parent tape."""
    recorder.absorb(TraceRecord.from_json(data) for data in payload)


def collection_hooks() -> Optional[Hooks]:
    """The (prepare, collect, merge) triple, or ``None`` when idle."""
    if not recorder.enabled:
        return None
    return worker_prepare, worker_collect, merge_payload
