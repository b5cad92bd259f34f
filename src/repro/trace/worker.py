"""Pool-worker tape hand-off: the plumbing that survives a fork.

A ``fork`` pool worker inherits the live recorder whole -- trace id,
sequence numbers, the unflushed tape and, through the forked thread's
context, the parent's current span -- so its ``item:<key>`` spans parent
on the run root exactly as serial ones do (the serial-vs-pool lockstep
test is what shows this, not an assumption).  What it records would die
with it; one hand-off per item closes the loop
(:func:`repro.runtime.parallel.ordered_map` makes the three calls while a
session is live):

* :func:`worker_prepare` runs once in each worker, as the pool's
  initializer, and drops the tape the fork copied (the parent still owns
  those records);
* :func:`worker_collect` runs after every item and returns the worker's
  own records since the last call as plain JSON-ready data (picklable,
  version-stable) -- aggregates and counters included, because every
  item span emits what it owns when it closes;
* :func:`merge_payload` runs in the parent, in item order, just before
  the item's result is handed on, appending the worker's records to the
  parent tape (which the session then flushes).
"""

from __future__ import annotations

from typing import List

from repro.trace.record import TraceRecord
from repro.trace.recorder import recorder

Payload = List[dict]


def worker_prepare() -> None:
    """Discard the fork-inherited tape (the parent still has it)."""
    recorder.drain()


def worker_collect() -> Payload:
    """The worker's own records since the last collect (or the prepare)."""
    return [record.to_json() for record in recorder.drain()]


def merge_payload(payload: Payload) -> None:
    """Append one worker item's records to the parent tape."""
    recorder.absorb(TraceRecord.from_json(data) for data in payload)
