"""The one trace record schema the sink and every query share.

OTel-shaped on purpose: ``trace_id`` / ``span_id`` / ``parent_id`` /
``attributes`` map one-to-one onto an OpenTelemetry span (an OTLP
exporter is a thin adapter over :class:`TraceRecord`), but the schema
stays plain data -- a frozen dataclass round-trippable through JSON --
so the JSONL sink, the pool-worker pickle path and the query CLI all
speak the same language.

Determinism contract: every *identity* field (ids, names, parent links,
attributes apart from ``pid``) is derived from the run's configuration
alone, so a serial run and a pool run of the same ``(scenario,
run_id)`` produce records whose :meth:`TraceRecord.stable_view` are
identical.  Only wall-clock fields (``start_time``, ``end_time``,
``duration_ms``, the ``seconds`` attribute of aggregate spans) and
the recording ``pid`` vary between runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Dict, Mapping, Optional

#: Fields that vary run-to-run (wall clock, process identity); everything
#: else is deterministic given the run configuration.
VOLATILE_FIELDS = ("start_time", "end_time", "duration_ms")
VOLATILE_ATTRIBUTES = ("pid", "seconds")

SPAN = "span"
EVENT = "event"


def utc_iso(moment: datetime) -> str:
    """Timezone-aware UTC ISO-8601, the only timestamp format traces use."""
    return moment.astimezone(timezone.utc).isoformat(timespec="microseconds")


def utc_now_iso() -> str:
    return utc_iso(datetime.now(timezone.utc))


def derive_trace_id(scenario: str, run_id: str) -> str:
    """Deterministic 32-hex trace id of one ``(scenario, run_id)`` run.

    Resuming a run therefore appends to the *same* trace, and a serial
    and a pool run of the same run id carry identical ids throughout.
    """
    digest = hashlib.sha256(f"{scenario}/{run_id}".encode("utf-8"))
    return digest.hexdigest()[:32]


def derive_span_id(trace_id: str, parent_id: Optional[str], name: str, seq: int) -> str:
    """Deterministic 16-hex span id: position in the trace tree, not time."""
    payload = f"{trace_id}:{parent_id or ''}:{name}:{seq}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TraceRecord:
    """One span or span event.

    Attributes:
        kind: ``"span"`` (has a duration) or ``"event"`` (a point on its
            parent span's timeline, e.g. one switch's rule apply).
        trace_id: The run's trace (see :func:`derive_trace_id`).
        span_id: This record's id (events get their own id too).
        parent_id: Enclosing span, ``None`` for the run root.
        name: Span name (``"run"``, ``"item:n10-i0"``, ``"plan"``), an
            aggregate's dotted timer path below its owning span
            (``"greedy.select"``), or an event name (``"apply"``,
            ``"late"``, ``"counter:..."``).
        scenario: The scenario the run executed.
        start_time: UTC ISO-8601 (:func:`utc_now_iso`).
        end_time: UTC ISO-8601; ``None`` for events and aggregate spans.
        duration_ms: Wall-clock milliseconds (``None`` for events).
        status: ``"ok"``, ``"error"`` or ``"interrupted"``.
        attributes: JSON-serialisable key/values (switch names, seeds,
            an aggregate's ``calls`` / ``seconds``, the recording pid, ...).
    """

    kind: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    scenario: str
    start_time: str
    end_time: Optional[str] = None
    duration_ms: Optional[float] = None
    status: str = "ok"
    attributes: Mapping[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        data = asdict(self)
        data["attributes"] = dict(self.attributes)
        return data

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "TraceRecord":
        return cls(**{**data, "attributes": dict(data.get("attributes") or {})})  # type: ignore[arg-type]

    def stable_view(self) -> Dict[str, object]:
        """The record minus wall-clock and process identity.

        Two runs of the same ``(scenario, run_id)`` -- serial, pooled,
        or resumed -- agree on this projection record for record; the
        lockstep tests compare exactly this.
        """
        data = self.to_json()
        for volatile in VOLATILE_FIELDS:
            data.pop(volatile, None)
        attributes = dict(data["attributes"])  # type: ignore[arg-type]
        for volatile in VOLATILE_ATTRIBUTES:
            attributes.pop(volatile, None)
        data["attributes"] = attributes
        return data


def record_to_line(record: TraceRecord) -> str:
    """Canonical JSON line (sorted keys, compact) of one record."""
    return json.dumps(record.to_json(), sort_keys=True, separators=(",", ":"))


def record_from_line(line: str) -> TraceRecord:
    return TraceRecord.from_json(json.loads(line))
