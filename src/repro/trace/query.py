"""Read traces back: loading, filtering and the report renderers.

Every function here is sink-agnostic: :func:`read_trace` sniffs whether
a path is a SQLite database or a JSONL file and returns the same
``List[TraceRecord]`` either way (pinned by the round-trip tests), and
the renderers operate on records only -- a file's, or a sink-less
session's in-memory tape.  :func:`aggregate` is the one profile view
(``--profile``, ``scripts/profile.py``, ``scripts/bench.py --profile`` and
``python -m repro.trace profile`` all print it through
:func:`render_report`).  The CLI in :mod:`repro.trace.__main__` is a thin
argparse shell over this module.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.trace.record import TraceRecord, record_from_line

_SQLITE_MAGIC = b"SQLite format 3\x00"


class TraceQueryError(RuntimeError):
    """A trace file that cannot be located or read."""


def is_sqlite_file(path) -> bool:
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            return handle.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC
    except OSError:
        return False


def read_trace(path) -> List[TraceRecord]:
    """All records of one trace file (JSONL or SQLite), emission order."""
    path = Path(path)
    if not path.exists():
        raise TraceQueryError(f"no trace file at {path}")
    if is_sqlite_file(path):
        return _read_sqlite(path)
    return _read_jsonl(path)


def _read_jsonl(path: Path) -> List[TraceRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(record_from_line(line))
    return records


def _read_sqlite(path: Path) -> List[TraceRecord]:
    import sqlite3

    conn = sqlite3.connect(str(path))
    try:
        rows = conn.execute(
            "SELECT kind, trace_id, span_id, parent_id, name, scenario, "
            "start_time, end_time, duration_ms, status, attributes "
            "FROM records ORDER BY seq"
        ).fetchall()
    finally:
        conn.close()
    return [
        TraceRecord(
            kind=row[0],
            trace_id=row[1],
            span_id=row[2],
            parent_id=row[3],
            name=row[4],
            scenario=row[5],
            start_time=row[6],
            end_time=row[7],
            duration_ms=row[8],
            status=row[9],
            attributes=json.loads(row[10]),
        )
        for row in rows
    ]


def default_trace_path(runs_root: Optional[str] = None) -> Path:
    """The newest ``trace.db`` / ``trace.jsonl`` under the runs root."""
    root = Path(
        runs_root
        if runs_root is not None
        else os.environ.get("REPRO_RUNS_DIR", "runs")
    )
    candidates = sorted(
        list(root.glob("*/*/trace.db")) + list(root.glob("*/*/trace.jsonl")),
        key=lambda p: p.stat().st_mtime,
    )
    if not candidates:
        raise TraceQueryError(
            f"no trace.db or trace.jsonl under {root}; run a scenario with "
            f"--trace sqlite (or jsonl), or pass --path explicitly"
        )
    return candidates[-1]


#: ``--status`` values: a service request's terminal status, or ``late``
#: for the switches whose rule applied after its scheduled time.
STATUS_CHOICES = ("aborted", "rejected", "late", "superseded")


def filter_records(
    records: Sequence[TraceRecord],
    trace_id: Optional[str] = None,
    scenario: Optional[str] = None,
    name: Optional[str] = None,
    switch: Optional[str] = None,
    kind: Optional[str] = None,
    status: Optional[str] = None,
) -> List[TraceRecord]:
    """Subset by trace, scenario, name substring, switch attribute, kind.

    ``status`` keeps only what ended that way: the ``service.request``
    spans whose ``status`` attribute says so, or the ``late`` events.
    """
    out = []
    for record in records:
        if status == "late":
            if record.kind != "event" or record.name != "late":
                continue
        elif status is not None and (
            record.name != "service.request"
            or record.attributes.get("status") != status
        ):
            continue
        if trace_id is not None and not record.trace_id.startswith(trace_id):
            continue
        if scenario is not None and record.scenario != scenario:
            continue
        if name is not None and name not in record.name:
            continue
        if switch is not None and str(record.attributes.get("switch")) != switch:
            continue
        if kind is not None and record.kind != kind:
            continue
        out.append(record)
    return out


def ancestors(
    record: TraceRecord, spans: Mapping[str, TraceRecord]
) -> Iterator[TraceRecord]:
    """``record``'s enclosing spans, innermost first (``spans``: by span id)."""
    parent = spans.get(record.parent_id)  # type: ignore[arg-type]
    while parent is not None:
        yield parent
        parent = spans.get(parent.parent_id)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------

def _span_line(record: TraceRecord, depth: int) -> str:
    duration = (
        f" {record.duration_ms:.1f}ms" if record.duration_ms is not None else ""
    )
    status = "" if record.status == "ok" else f" !{record.status}"
    extras = []
    for key in (
        "key", "scheme", "request", "tenant", "admit", "status",
        "superseded_by", "switch", "calls", "value", "run_id",
    ):
        if key in record.attributes:
            extras.append(f"{key}={record.attributes[key]}")
    tag = "" if record.kind == "span" else "* "
    extra = f"  [{' '.join(extras)}]" if extras else ""
    return f"{'  ' * depth}{tag}{record.name}{duration}{status}{extra}"


def render_tree(records: Sequence[TraceRecord]) -> str:
    """Indent records under their parent spans, one trace after another."""
    by_parent: Dict[Optional[str], List[TraceRecord]] = {}
    span_ids = {r.span_id for r in records}
    for record in records:
        parent = record.parent_id if record.parent_id in span_ids else None
        by_parent.setdefault(parent, []).append(record)

    lines: List[str] = []

    def emit(record: TraceRecord, depth: int) -> None:
        lines.append(_span_line(record, depth))
        for child in by_parent.get(record.span_id, ()):  # emission order
            emit(child, depth + 1)

    for root in by_parent.get(None, ()):  # orphans render at the top level
        emit(root, 0)
    return "\n".join(lines) if lines else "(no records)"


def slowest_spans(records: Sequence[TraceRecord], limit: int = 10) -> List[TraceRecord]:
    spans = [r for r in records if r.kind == "span" and r.duration_ms is not None]
    spans.sort(key=lambda r: (-r.duration_ms, r.name))  # type: ignore[operator]
    return spans[:limit]


def render_slowest(records: Sequence[TraceRecord], limit: int = 10) -> str:
    rows = slowest_spans(records, limit)
    if not rows:
        return "(no spans with durations)"
    name_width = max(len(r.name) for r in rows)
    lines = [f"{'span':<{name_width}}  {'ms':>10}  {'calls':>6}  scenario"]
    for record in rows:
        calls = record.attributes.get("calls", 1)
        lines.append(
            f"{record.name:<{name_width}}  {record.duration_ms:>10.1f}  "
            f"{calls!s:>6}  {record.scenario}"
        )
    return "\n".join(lines)


def render_traces(records: Sequence[TraceRecord]) -> str:
    """One line per trace id: scenario, run id, span/event counts."""
    traces: Dict[str, Dict[str, object]] = {}
    for record in records:
        info = traces.setdefault(
            record.trace_id,
            {"scenario": record.scenario, "spans": 0, "events": 0,
             "run_id": "?", "start": record.start_time},
        )
        info["spans" if record.kind == "span" else "events"] += 1  # type: ignore[operator]
        if record.name == "run" and "run_id" in record.attributes:
            info["run_id"] = record.attributes["run_id"]
        info["start"] = min(str(info["start"]), record.start_time)
    if not traces:
        return "(no traces)"
    lines = []
    for trace_id, info in sorted(traces.items(), key=lambda kv: str(kv[1]["start"])):
        lines.append(
            f"{trace_id}  {info['scenario']:<12} run={info['run_id']}  "
            f"{info['spans']} span(s) {info['events']} event(s)  "
            f"since {info['start']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the aggregate (profile) view
# ----------------------------------------------------------------------

def aggregate(records: Iterable[TraceRecord]) -> Dict[str, Dict]:
    """Sum a tape's aggregate spans by dotted path and its counters by name.

    Returns ``{"spans": {path: {"calls", "seconds"}}, "counters": {name:
    total}}`` -- the JSON-ready shape ``BENCH_sweep.json``'s ``profile``
    blocks hold.  Every scope's aggregates (and the timer calls filed on
    their own) count towards the same path, so a whole run, one item or one
    request subtree can be summed alike.
    """
    spans: Dict[str, List[float]] = {}
    counters: Dict[str, int] = {}
    for record in records:
        attributes = record.attributes
        if record.kind == "span":
            if attributes.get("aggregate"):
                stat = spans.setdefault(record.name, [0, 0.0])
                stat[0] += int(attributes["calls"])  # type: ignore[call-overload]
                stat[1] += float(attributes["seconds"])  # type: ignore[arg-type]
        elif record.name.startswith("counter:"):
            name = record.name[len("counter:"):]
            counters[name] = counters.get(name, 0) + int(attributes["value"])  # type: ignore[call-overload]
    return {
        "spans": {
            path: {"calls": int(calls), "seconds": round(seconds, 6)}
            for path, (calls, seconds) in sorted(spans.items())
        },
        "counters": dict(sorted(counters.items())),
    }


_BAR_WIDTH = 18


def _format_count(value: int) -> str:
    if value >= 10_000_000:
        return f"{value / 1_000_000:.0f}M"
    if value >= 10_000:
        return f"{value / 1000:.0f}k"
    return str(value)


def render_report(profile: Dict[str, Dict], min_seconds: float = 0.0) -> str:
    """Render an :func:`aggregate` view as a text report.

    The span section is a flame-style tree: children indent under their
    parent path, each line showing total seconds, the share of its root
    span, call count, and -- when a span has children -- its *self* time
    (time not attributed to any child span).  The counter section pairs
    ``<name>.hit`` / ``<name>.miss`` counters into hit-rate lines.
    """
    spans: Dict[str, Dict] = profile.get("spans", {})
    counters: Dict[str, int] = profile.get("counters", {})
    lines: List[str] = []

    if spans:
        lines.append("span tree (seconds, share of root, calls; self = minus child spans)")
        children: Dict[str, List[str]] = {}
        roots: List[str] = []
        for path in spans:
            parent = path.rsplit(".", 1)[0] if "." in path else None
            # Attach to the nearest recorded ancestor (a timer name may
            # itself be dotted, so intermediate paths need not exist).
            while parent is not None and parent not in spans:
                parent = parent.rsplit(".", 1)[0] if "." in parent else None
            if parent is None:
                roots.append(path)
            else:
                children.setdefault(parent, []).append(path)

        def emit(path: str, depth: int, root_seconds: float) -> None:
            stat = spans[path]
            seconds = stat["seconds"]
            if seconds < min_seconds and depth > 0:
                return
            share = 100.0 * seconds / root_seconds if root_seconds else 100.0
            bar = "#" * max(1, int(round(share / 100.0 * _BAR_WIDTH)))
            name = path.rsplit(".", 1)[-1] if depth else path
            kids = sorted(
                children.get(path, ()), key=lambda p: -spans[p]["seconds"]
            )
            self_seconds = seconds - sum(spans[k]["seconds"] for k in kids)
            self_note = f"  self={self_seconds:.3f}s" if kids else ""
            lines.append(
                f"  {'  ' * depth}{name:<{max(28 - 2 * depth, 8)}} "
                f"{seconds:9.3f}s {share:5.1f}% {stat['calls']:>8}x "
                f"{bar:<{_BAR_WIDTH}}{self_note}"
            )
            for kid in kids:
                emit(kid, depth + 1, root_seconds)

        for root in sorted(roots, key=lambda p: -spans[p]["seconds"]):
            emit(root, 0, spans[root]["seconds"])
    else:
        lines.append("span tree: (no spans recorded)")

    if counters:
        lines.append("")
        lines.append("counters")
        paired = set()
        for name in sorted(counters):
            if name in paired:
                continue
            if name.endswith(".hit") and name[:-4] + ".miss" in counters:
                base = name[:-4]
                hit = counters[name]
                miss = counters[base + ".miss"]
                paired.add(base + ".miss")
                total = hit + miss
                rate = 100.0 * hit / total if total else 0.0
                lines.append(
                    f"  {base:<34} {_format_count(hit):>8} hit "
                    f"{_format_count(miss):>8} miss  ({rate:.1f}% hit)"
                )
            elif name.endswith(".miss") and name[:-5] + ".hit" in counters:
                continue  # rendered with its .hit partner
            else:
                lines.append(f"  {name:<34} {_format_count(counters[name]):>8}")
    return "\n".join(lines)
