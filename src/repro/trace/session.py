"""TraceSession: one run's binding of recorder, trace id and sink.

A session is the only thing that switches the recorder on, and it always
switches it off again: ``begin`` configures the process-global recorder
and opens the ``run`` root span, ``flush`` drains the tape after every
checkpointed record, and ``finish`` closes the root span, drains the rest
and releases the recorder -- however the run ended.

Tracing to a sink and profiling are the same session: with a sink the
drained records stream to it, without one they collect in ``tape`` (an
in-memory list), whose :func:`repro.trace.query.profile_of` view is the
profile.  As a context manager a sink-less session profiles a block::

    with TraceSession(scenario="profile", run_id="greedy") as session:
        greedy_schedule(instance)
    print(render_report(profile_of(session.tape)))

The trace id is :func:`~repro.trace.record.derive_trace_id` of the
``(scenario, run_id)`` pair, so resuming an interrupted run appends to
the same trace and a pool run is id-identical to a serial one.  Each
attempt opens its own ``run`` root, numbered after the roots the sink's
file already holds, so no span id repeats within the trace.
"""

from __future__ import annotations

import json
import os
from typing import List, Mapping, Optional

from repro.trace.record import TraceRecord, derive_trace_id
from repro.trace.recorder import recorder
from repro.trace.sinks import JsonlSink


class TraceSession:
    """Lifecycle manager for one traced or profiled run."""

    def __init__(
        self,
        sink: Optional[JsonlSink] = None,
        *,
        scenario: str,
        run_id: str,
        tape: Optional[List[TraceRecord]] = None,
    ) -> None:
        self.sink = sink
        self.scenario = scenario
        self.run_id = run_id
        self.trace_id = derive_trace_id(scenario, run_id)
        #: Where drained records are kept in memory: always without a
        #: sink, beside the sink when the caller hands a list in.
        self.tape = [] if tape is None and sink is None else tape
        self._root = None

    def begin(self, params: Optional[Mapping[str, object]] = None) -> None:
        """Configure the recorder and open the run root span."""
        recorder.configure(self.trace_id, self.scenario, self._prior_roots())
        attributes = {
            "run_id": self.run_id,
            "scenario": self.scenario,
            "pid": os.getpid(),
        }
        if params:
            attributes["params"] = {
                key: value
                for key, value in sorted(params.items())
                if isinstance(value, (int, float, str, bool))
            }
        self._root = recorder.span("run", attributes)
        self._root.__enter__()

    def _prior_roots(self) -> int:
        """``run`` roots the sink's file already holds: one per earlier
        attempt of a resumed run (a torn last line is no root)."""
        if self.sink is None or not self.sink.path.exists():
            return 0
        roots = 0
        for line in self.sink.path.read_bytes().splitlines():
            if b'"parent_id":null' in line:
                try:
                    roots += json.loads(line).get("name") == "run"
                except ValueError:
                    continue
        return roots

    def flush(self) -> None:
        """Drain buffered records (own and absorbed) to the sink and tape."""
        if self._root is None:
            return
        records = recorder.drain()
        if self.tape is not None:
            self.tape.extend(records)
        if self.sink is not None:
            for record in records:
                self.sink.emit(record)

    def finish(self, status: str = "ok") -> None:
        """Close the root span, flush everything, release the recorder."""
        if self._root is None:
            return
        self._root.close(status)
        self.flush()
        self._root = None
        recorder.deactivate()
        if self.sink is not None:
            self.sink.close()

    def __enter__(self) -> "TraceSession":
        self.begin()
        return self

    def __exit__(self, exc_type, *exc) -> bool:
        self.finish("error" if exc_type is not None else "ok")
        return False
