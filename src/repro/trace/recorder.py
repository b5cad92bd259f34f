"""The process-global trace recorder: one span model, one tape.

Everything in ``src/`` that times, counts or explains work goes through
the three verbs of :data:`recorder`:

* :meth:`TraceRecorder.span` -- a **recorded** span: one
  :class:`~repro.trace.record.TraceRecord` when it closes (``run``,
  ``item:<key>``, ``plan``, the service's ``service.request`` /
  ``execute``).  It is a *scope*: it owns whatever is timed or counted
  while it is the innermost one.
* :meth:`TraceRecorder.timer` -- an **aggregate** timer for hot paths:
  ``calls`` / ``seconds`` accumulate on the owning scope under the dotted
  path of the timers open around it (``greedy.select.tracker.probe``) and
  are emitted as that scope's aggregate children when it closes.  A timer
  given attributes (:meth:`_Timer.set`) is filed on its own instead -- one
  record per call, same path (``opt.search`` with ``explored``).
* :meth:`TraceRecorder.count` -- a **counter**, owned like an aggregate
  and emitted as a ``counter:<name>`` event.

"The current span" lives in one :class:`contextvars.ContextVar`, so every
asyncio task (and every ``fork`` pool worker) sees its own innermost span:
a ``with`` block sets it and resets it by token, and closing a span only
*records* -- it never moves anybody's current span.  A frame that is
current but already closed (a handle closed out of order, or from another
task) is skipped when the next span looks for its parent, and
:meth:`SpanHandle.attach` makes a span opened in one coroutine current in
another.  A list-typed stack can do none of this: two coroutines that
interleave on one stack become each other's parents.

The recorder is process-local, disabled by default, and a disabled site is
one attribute check returning the shared :data:`NULL_SPAN` -- no context
lookup, no allocation; hot loops hoist ``if recorder.enabled:`` around
their counters.  Nothing on the planning side reads the tape: whoever owns
the sink (the :class:`~repro.trace.session.TraceSession`, or the chunk
hooks of :mod:`repro.trace.worker` in pool workers) drains it in execution
order.  Span ids are **deterministic** -- derived from the trace id, the
parent span and a per-``(parent, name)`` sequence number
(:func:`repro.trace.record.derive_span_id`), never from time or randomness
-- so a serial run and a pool run of one run id produce identical trees.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from datetime import datetime, timedelta, timezone
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.trace.record import (
    EVENT,
    SPAN,
    TraceRecord,
    derive_span_id,
    utc_iso,
    utc_now_iso,
)


class _NullSpan:
    """Shared do-nothing span, timer and scope for the disabled fast path."""

    __slots__ = ()
    span_id: Optional[str] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attributes: object) -> None:
        return None

    def event(self, name: str, **attributes: object) -> None:
        return None

    def attach(self) -> "_NullSpan":
        return self

    def close(self, status: str = "ok") -> None:
        return None


NULL_SPAN = _NullSpan()

Frame = Union["SpanHandle", "_Timer"]

#: The innermost frame of the running task (or thread, or forked worker).
_CURRENT: ContextVar[Optional[Frame]] = ContextVar("repro.trace.current", default=None)


def _present(attributes: Mapping[str, object]) -> Dict[str, object]:
    """``attributes`` without the ``None`` values (nothing to say)."""
    return {key: value for key, value in attributes.items() if value is not None}


def _live(frame: Optional[Frame]) -> Optional[Frame]:
    """``frame``, or the nearest frame around it that is still open."""
    while frame is not None and frame.closed:
        frame = frame.enclosing
    return frame


def _prefix_id(ids: Mapping[str, str], path: str) -> Optional[str]:
    """The id filed under the longest proper dotted prefix of ``path``."""
    while "." in path:
        path = path.rsplit(".", 1)[0]
        if path in ids:
            return ids[path]
    return None


class SpanHandle:
    """One open recorded span; closing it appends its record to the tape."""

    __slots__ = (
        "_recorder", "span_id", "parent_id", "name", "attributes", "owner",
        "enclosing", "closed", "_start_iso", "_started", "_token", "_timers",
        "_counters", "_filed",
    )

    #: A scope starts the dotted path of the timers below it afresh.
    path = ""

    def __init__(
        self,
        recorder: "TraceRecorder",
        enclosing: Optional[Frame],
        name: str,
        attributes: Optional[Mapping[str, object]],
    ) -> None:
        self._recorder = recorder
        self.enclosing = enclosing
        self.owner = self
        self.parent_id = enclosing.owner.span_id if enclosing is not None else None
        self.span_id = recorder._next_id(self.parent_id, name)
        self.name = name
        self.attributes = _present(attributes or {})
        self.closed = False
        self._start_iso = utc_now_iso()
        self._started = time.perf_counter()
        self._timers: Dict[str, List[float]] = {}  # path -> [calls, seconds]
        self._counters: Dict[str, int] = {}
        self._filed: Dict[str, str] = {}  # path -> id of the latest record emitted for it

    def __enter__(self) -> "SpanHandle":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, *exc) -> bool:
        _CURRENT.reset(self._token)
        self.close(status="error" if exc_type is not None else "ok")
        return False

    @contextmanager
    def attach(self) -> Iterator["SpanHandle"]:
        """Make this span current in the running task for one block.

        For a span opened in one coroutine and continued in another (a
        service request: opened by the arrivals task, planned and executed
        by a planner task).  Leaving the block does not close the span.
        """
        token = _CURRENT.set(self)
        try:
            yield self
        finally:
            _CURRENT.reset(token)

    def set(self, **attributes: object) -> None:
        """Add attributes (``None`` values are dropped)."""
        self.attributes.update(_present(attributes))

    def event(self, name: str, **attributes: object) -> None:
        """Record a point event on this span, whatever span is current.

        Executors keep the handle they were created under and report here,
        because the simulator callbacks that carry their evidence fire in
        whichever task pumps the simulator.
        """
        self._recorder._append(EVENT, self.span_id, name, _present(attributes))

    def close(self, status: str = "ok") -> None:
        """Record what the span owns -- one aggregate per timer path
        (sorted; each under its nearest emitted prefix, else under this
        span), one event per counter -- and then the span itself."""
        if self.closed:
            return
        self.closed = True
        elapsed_ms = (time.perf_counter() - self._started) * 1000.0
        for path in sorted(self._timers):
            calls, seconds = self._timers[path]
            self._file(path, int(calls), seconds)
        for name in sorted(self._counters):
            self.event(f"counter:{name}", value=self._counters[name])
        self._recorder._append(
            SPAN,
            self.parent_id,
            self.name,
            self.attributes,
            span_id=self.span_id,
            start_time=self._start_iso,
            end_time=utc_now_iso(),
            duration_ms=round(elapsed_ms, 3),
            status=status,
        )

    def _file(
        self,
        path: str,
        calls: int,
        seconds: float,
        attributes: Optional[Mapping[str, object]] = None,
        **fields: object,
    ) -> None:
        """Append the aggregate span of ``path``: ``calls`` taking ``seconds``."""
        self._filed[path] = self._recorder._append(
            SPAN,
            _prefix_id(self._filed, path) or self.span_id,
            path,
            {
                **(attributes or {}),
                "aggregate": True,
                "calls": calls,
                "seconds": round(seconds, 6),
            },
            duration_ms=round(seconds * 1000.0, 3),
            **fields,
        )


class _Timer:
    """One timed call; adds to its scope's aggregate for its dotted path."""

    __slots__ = (
        "owner", "path", "enclosing", "closed", "attributes", "_started", "_token"
    )

    def __init__(self, enclosing: Frame, name: str) -> None:
        self.enclosing = enclosing
        self.owner: SpanHandle = enclosing.owner
        self.path = f"{enclosing.path}.{name}" if enclosing.path else name
        self.closed = False
        self.attributes: Optional[Dict[str, object]] = None

    def __enter__(self) -> "_Timer":
        self._token = _CURRENT.set(self)
        self._started = time.perf_counter()
        return self

    def set(self, **attributes: object) -> None:
        """File this call on its own, with ``attributes``, when it ends."""
        self.attributes = {**(self.attributes or {}), **_present(attributes)}

    def __exit__(self, exc_type, *exc) -> bool:
        seconds = time.perf_counter() - self._started
        _CURRENT.reset(self._token)
        self.closed = True
        if self.attributes is not None:
            ended = datetime.now(timezone.utc)
            self.owner._file(
                self.path,
                1,
                seconds,
                attributes=self.attributes,
                start_time=utc_iso(ended - timedelta(seconds=seconds)),
                end_time=utc_iso(ended),
                status="error" if exc_type is not None else "ok",
            )
            return False
        stat = self.owner._timers.get(self.path)
        if stat is None:
            self.owner._timers[self.path] = [1, seconds]
        else:
            stat[0] += 1
            stat[1] += seconds
        return False


class TraceRecorder:
    """The per-process tape and the one ``enabled`` flag that gates it.

    All state is process-local and single-threaded by design (the
    schedulers are single-threaded, asyncio tasks interleave on one thread
    and the pool parallelism is process level, reconciled by the chunk
    hooks); what is *current* is per task, in :data:`_CURRENT`.
    """

    __slots__ = ("enabled", "trace_id", "scenario", "_records", "_seq")

    def __init__(self) -> None:
        self.enabled = False
        self.trace_id = ""
        self.scenario = ""
        self._records: List[TraceRecord] = []
        self._seq: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def configure(self, trace_id: str, scenario: str) -> None:
        """Start recording one trace (clears any previous tape)."""
        self.deactivate()
        self.trace_id = trace_id
        self.scenario = scenario
        self.enabled = True

    def deactivate(self) -> None:
        """Stop recording and drop all state."""
        self.enabled = False
        self.trace_id = ""
        self.scenario = ""
        self._records = []
        self._seq = {}
        _CURRENT.set(None)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _next_id(self, parent_id: Optional[str], name: str) -> str:
        key = (parent_id or "", name)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        return derive_span_id(self.trace_id, parent_id, name, seq)

    def _append(
        self,
        kind: str,
        parent_id: Optional[str],
        name: str,
        attributes: Mapping[str, object],
        span_id: Optional[str] = None,
        **fields: object,
    ) -> str:
        """Put one record on the tape; returns its (derived) span id."""
        span_id = span_id or self._next_id(
            parent_id, name if kind == SPAN else f"event:{name}"
        )
        fields.setdefault("start_time", utc_now_iso())
        self._records.append(
            TraceRecord(
                kind=kind,
                trace_id=self.trace_id,
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                scenario=self.scenario,
                attributes=attributes,
                **fields,  # type: ignore[arg-type]
            )
        )
        return span_id

    def current(self) -> Union[SpanHandle, _NullSpan]:
        """The innermost open recorded span of the running task."""
        if not self.enabled:
            return NULL_SPAN
        frame = _live(_CURRENT.get())
        return frame.owner if frame is not None else NULL_SPAN

    def span(
        self, name: str, attributes: Optional[Mapping[str, object]] = None
    ) -> Union[SpanHandle, _NullSpan]:
        """Open a recorded span under the current one.

        ``with`` makes it current for the block and closes it after;
        without ``with`` it is open but current nowhere until
        :meth:`SpanHandle.attach` says so, and :meth:`SpanHandle.close`
        records it.
        """
        if not self.enabled:
            return NULL_SPAN
        return SpanHandle(self, _live(_CURRENT.get()), name, attributes)

    def timer(self, name: str) -> Union[_Timer, _NullSpan]:
        """Time a block into the current scope's aggregate for ``name``.

        With no span open there is nothing to own the time, and the block
        runs untimed.
        """
        if not self.enabled:
            return NULL_SPAN
        enclosing = _live(_CURRENT.get())
        return _Timer(enclosing, name) if enclosing is not None else NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the current scope's counter ``name``."""
        if not self.enabled:
            return
        frame = _live(_CURRENT.get())
        if frame is not None:
            counters = frame.owner._counters
            counters[name] = counters.get(name, 0) + n

    # ------------------------------------------------------------------
    # tape transfer (sink flushes and pool-worker merges)
    # ------------------------------------------------------------------
    def drain(self) -> List[TraceRecord]:
        """Hand over (and clear) the buffered records; open spans stay open."""
        records = self._records
        self._records = []
        return records

    def absorb(self, records: Iterable[TraceRecord]) -> None:
        """Append records drained from a pool worker, in arrival order."""
        self._records.extend(records)


#: The process-wide recorder every instrumented module shares.
recorder = TraceRecorder()
