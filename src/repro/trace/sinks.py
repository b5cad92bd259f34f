"""TraceSink implementations: console, JSONL and SQLite.

The protocol is two methods -- ``emit(record)`` and ``close()`` -- so a
sink swap never touches the emitting side (the illumo-flow tracer
shape).  Sinks are owned by the parent process only: pool workers buffer
records in the recorder and ship them back with each item's result, so
no sink ever sees concurrent writers.

``open_sink`` parses the CLI-facing spec::

    console            human lines on stderr
    jsonl              <run directory>/trace.jsonl
    jsonl:PATH         explicit file
    sqlite             <run directory>/trace.db
    sqlite:PATH        explicit database
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import IO, TYPE_CHECKING, Optional, Protocol

from repro.trace.record import TraceRecord, record_to_line

if TYPE_CHECKING:
    import sqlite3

JSONL_NAME = "trace.jsonl"
SQLITE_NAME = "trace.db"

#: SQLite rows mirror the record schema; ``attributes`` is a JSON blob.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    kind        TEXT NOT NULL,
    trace_id    TEXT NOT NULL,
    span_id     TEXT NOT NULL,
    parent_id   TEXT,
    name        TEXT NOT NULL,
    scenario    TEXT NOT NULL,
    start_time  TEXT NOT NULL,
    end_time    TEXT,
    duration_ms REAL,
    status      TEXT NOT NULL,
    attributes  TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_records_trace ON records (trace_id);
CREATE INDEX IF NOT EXISTS idx_records_name ON records (name);
"""


class TraceSink(Protocol):
    """Anything that can consume trace records, one at a time."""

    def emit(self, record: TraceRecord) -> None: ...

    def close(self) -> None: ...


class ConsoleSink:
    """Human-readable lines, one per record, on stderr by default."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def emit(self, record: TraceRecord) -> None:
        duration = (
            f" {record.duration_ms:.1f}ms" if record.duration_ms is not None else ""
        )
        attributes = " ".join(
            f"{key}={value}" for key, value in sorted(record.attributes.items())
        )
        tag = "SPAN" if record.kind == "span" else "EVNT"
        status = "" if record.status == "ok" else f" !{record.status}"
        print(
            f"[{tag}] {record.name}{duration}{status}"
            f"{'  ' + attributes if attributes else ''}",
            file=self.stream,
        )

    def close(self) -> None:
        self.stream.flush()


class JsonlSink:
    """Canonical JSON lines, appended and flushed per record."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._file: Optional[IO[str]] = None

    def emit(self, record: TraceRecord) -> None:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")
        self._file.write(record_to_line(record) + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class SqliteSink:
    """One ``records`` table; commits are batched, ``close`` is final."""

    COMMIT_EVERY = 64

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._conn: Optional[sqlite3.Connection] = None
        self._pending = 0

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            import sqlite3  # loads with the first SQLite sink that opens

            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = sqlite3.connect(str(self.path))
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
        return self._conn

    def emit(self, record: TraceRecord) -> None:
        import json

        conn = self._connection()
        conn.execute(
            "INSERT INTO records (kind, trace_id, span_id, parent_id, name, "
            "scenario, start_time, end_time, duration_ms, status, attributes) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.kind,
                record.trace_id,
                record.span_id,
                record.parent_id,
                record.name,
                record.scenario,
                record.start_time,
                record.end_time,
                record.duration_ms,
                record.status,
                json.dumps(dict(record.attributes), sort_keys=True),
            ),
        )
        self._pending += 1
        if self._pending >= self.COMMIT_EVERY:
            conn.commit()
            self._pending = 0

    def close(self) -> None:
        if self._conn is not None:
            self._conn.commit()
            self._conn.close()
            self._conn = None
            self._pending = 0


def open_sink(spec: str, directory=None) -> TraceSink:
    """Build the sink a ``--trace`` spec names (see module docstring)."""
    kind, _, path = spec.partition(":")
    kind = kind.strip().lower()
    base = Path(directory) if directory is not None else Path(".")
    if kind == "console":
        return ConsoleSink()
    if kind == "jsonl":
        return JsonlSink(Path(path) if path else base / JSONL_NAME)
    if kind == "sqlite":
        return SqliteSink(Path(path) if path else base / SQLITE_NAME)
    raise ValueError(
        f"unknown trace sink {spec!r}; expected console, jsonl[:PATH] or "
        f"sqlite[:PATH]"
    )
