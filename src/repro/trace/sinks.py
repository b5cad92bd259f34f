"""The trace sink: canonical JSON lines, one file per run.

A sink is two methods -- ``emit(record)`` and ``close()`` -- and one
file for grep/jq workflows.  Sinks are owned by the parent process only:
pool workers buffer records in the recorder and ship them back with each
item's result, so no sink ever sees concurrent writers.

``open_sink`` parses the CLI-facing spec::

    jsonl              <run directory>/trace.jsonl
    jsonl:PATH         explicit file
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Optional

from repro.trace.record import TraceRecord, record_to_line

JSONL_NAME = "trace.jsonl"


class JsonlSink:
    """Canonical JSON lines, appended and flushed per record.  A torn last
    line a killed attempt left is cut before the first append, as the
    artifact store cuts its records file."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._file: Optional[IO[str]] = None

    def emit(self, record: TraceRecord) -> None:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                raw = self.path.read_bytes()
                if not raw.endswith(b"\n"):
                    with open(self.path, "r+b") as handle:
                        handle.truncate(raw.rfind(b"\n") + 1)
            self._file = open(self.path, "a", encoding="utf-8")
        self._file.write(record_to_line(record) + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def open_sink(spec: str, directory=None) -> JsonlSink:
    """Build the sink a ``--trace`` spec names (see module docstring).

    The file opens with the first record, so a refused spec raises
    :class:`ValueError` before anything is written.
    """
    kind, _, path = spec.partition(":")
    if kind.strip().lower() != "jsonl":
        raise ValueError(f"unknown trace sink {spec!r}; expected jsonl[:PATH]")
    base = Path(directory) if directory is not None else Path(".")
    return JsonlSink(Path(path) if path else base / JSONL_NAME)
