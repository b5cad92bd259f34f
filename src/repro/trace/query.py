"""Read traces back: loading, filtering and the report renderers.

:func:`read_trace` returns a JSONL trace file's ``List[TraceRecord]``
(pinned by the round-trip tests), and the renderers operate on records
only -- a file's, or a sink-less session's in-memory tape.
:func:`aggregate` sums a tape's timers and counters, :func:`profile_of`
adds the :data:`VIEWS` the tape holds and :func:`render_report` prints
both (``--profile``, ``scripts/profile.py`` and ``python -m repro.trace
profile`` alike).  The CLI in
:mod:`repro.trace.__main__` is a thin argparse shell over this module.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.trace.record import TraceRecord, record_from_line


class TraceQueryError(RuntimeError):
    """A trace file that cannot be located or read."""


def read_trace(path) -> List[TraceRecord]:
    """Every record of a JSONL trace file, in emission order.

    An unterminated last line that does not parse is a killed run's torn
    write and is dropped, as the artifact store drops one on resume; any
    other bad line is a :class:`TraceQueryError` naming ``path:line``
    (a SQLite trace of older versions fails on its first line).
    """
    path = Path(path)
    if not path.exists():
        raise TraceQueryError(f"no trace file at {path}")
    records = []
    lines = path.read_bytes().splitlines(keepends=True)
    for number, line in enumerate(lines, 1):
        try:
            text = line.decode("utf-8").strip()
            if text:
                records.append(record_from_line(text))
        except (ValueError, TypeError, AttributeError) as exc:
            torn = number == len(lines) and not line.endswith(b"\n")
            if torn and isinstance(exc, ValueError):
                break
            raise TraceQueryError(f"{path}:{number}: not a trace record ({exc})") from exc
    return records


def default_trace_path(runs_root: Optional[str] = None) -> Path:
    """The newest ``trace.jsonl`` under the runs root."""
    root = Path(
        runs_root
        if runs_root is not None
        else os.environ.get("REPRO_RUNS_DIR", "runs")
    )
    candidates = sorted(root.glob("*/*/trace.jsonl"), key=lambda p: p.stat().st_mtime)
    if not candidates:
        raise TraceQueryError(
            f"no trace.jsonl under {root}; run a scenario with "
            f"--trace jsonl, or pass --path explicitly"
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


# ----------------------------------------------------------------------
# derived views: arithmetic over a tape and its aggregate
# ----------------------------------------------------------------------

Profile = Dict[str, Dict]
View = Callable[[Sequence[TraceRecord], Profile], Optional[Dict]]
Text = Union[str, Callable[[Dict, Mapping[str, int]], List[str]]]


def _seconds(record: TraceRecord) -> float:
    return (record.duration_ms or 0.0) / 1000.0


def _per(counters: Mapping[str, int], denominator: int, **names: str) -> Dict[str, float]:
    """``{key: counters[name] / denominator}`` for each ``key=name``."""
    return {key: counters.get(name, 0) / max(denominator, 1) for key, name in names.items()}


def per_round(records: Sequence[TraceRecord], profile: Profile) -> Optional[Dict]:
    """Greedy probes accepted and refused per round, off the refusal counters."""
    spans, counters = profile["spans"], profile["counters"]
    rounds = spans.get("greedy.select", {}).get("calls", 0)
    if not rounds:
        return None
    probes = spans.get("greedy.select.tracker.probe", {}).get("calls", 0)
    by_split = counters.get("tracker.probe.refused.split", 0)
    by_congestion = counters.get("tracker.probe.refused.congestion", 0)
    return {
        "rounds": rounds, "probes": probes,
        "accepted": (probes - by_split - by_congestion) / rounds,
        "refused": (by_split + by_congestion) / rounds,
        "refused_split": by_split, "refused_congestion": by_congestion,
        "fallback_skipped": counters.get("greedy.fallback.skipped", 0),
    }


def phase_shares(records: Sequence[TraceRecord], profile: Profile) -> Optional[Dict]:
    """The ``split`` / ``deflect`` / ``check`` timers of greedy's probes as shares
    of ``greedy``; ``deflect``, inside ``split``, is array-only."""
    spans = profile["spans"]
    root = spans.get("greedy", {}).get("seconds")
    leaves = [(path.rsplit(".", 1)[-1], cell) for path, cell in spans.items()
              if path.startswith("greedy.") and ".tracker.probe." in path]
    timed = [phase for phase in ("split", "deflect", "check") if phase in dict(leaves)]
    if not root or "split" not in timed:
        return None
    return {phase: sum(cell["seconds"] for leaf, cell in leaves if leaf == phase) / root for phase in timed}


def per_probe(records: Sequence[TraceRecord], profile: Profile) -> Optional[Dict]:
    """What an array-tracker probe of the greedy decided, read and swept."""
    counters = profile["counters"]
    probes = profile["spans"].get("greedy.select.tracker.probe", {}).get("calls", 0)
    if not probes or "tracker.array.links_decided" not in counters:
        return None
    return _per(counters, probes, links_decided="tracker.array.links_decided",
                entries_read="tracker.array.entries_read", links_swept="tracker.array.exact_sweeps")


def per_split(records: Sequence[TraceRecord], profile: Profile) -> Optional[Dict]:
    """What a dict-tracker split saw and did, off its ``tracker.split*`` tally."""
    counters = profile["counters"]
    splits = counters.get("tracker.splits")
    if not splits:
        return None
    return {
        **_per(counters, splits, alive_classes="tracker.split.alive", class_splits="tracker.split.classes"),
        **_per(counters, counters.get("tracker.split.classes", 0), untouched_share="tracker.split.untouched"),
        **_per(counters, counters.get("tracker.sweeps", 0), intervals_per_sweep="tracker.sweep_intervals"),
    }


def per_deflection(records: Sequence[TraceRecord], profile: Profile) -> Optional[Dict]:
    """The runs an array-tracker deflection shared, routed, walked and copied."""
    counters = profile["counters"]
    deflections = counters.get("tracker.array.deflections")
    if not deflections:
        return None
    walked = counters.get("tracker.array.deflect_runs", 0) - counters.get("tracker.array.tail_runs", 0)
    return {
        "deflections": deflections, "runs_walked": walked / deflections,
        **_per(counters, deflections, runs_shared="tracker.array.shared_runs",
               runs_routed="tracker.array.deflect_runs", runs_copied="tracker.array.tail_runs",
               views="tracker.array.materialised"),
    }


#: Span or timer name -> the phase of a sweep item's life it is.
ITEM_PHASES = {"core.instance.build": "build", "plan": "plan", "analysis.metrics.measure": "measure",
               "validate.verifier.verify": "verify", "pipeline.store.append": "store"}


def item_phases(records: Sequence[TraceRecord], profile: Profile) -> Optional[Dict]:
    """A sweep item's life, ``{phase: {scheme: seconds}}`` (``all``: no scheme).

    ``wall`` is the ``item:`` spans plus the store's appends, which follow
    them; a measure or verify inside a plan (AUG judging its claim) is not
    that plan's time.  ``schemes`` is the order their first plans ended in.
    """
    by_id = {record.span_id: record for record in records if record.kind == "span"}
    items = [record for record in by_id.values() if record.name.startswith("item:")]
    if not items or "core.instance.build" not in profile["spans"]:
        return None
    phases: Dict[str, Dict[str, float]] = {phase: {} for phase in ITEM_PHASES.values()}
    for record in by_id.values():
        phase = ITEM_PHASES.get(record.name)
        if phase is not None:
            scheme = str(record.attributes.get("scheme", "all"))
            phases[phase][scheme] = phases[phase].get(scheme, 0.0) + _seconds(record)
            parent = by_id.get(record.parent_id)  # type: ignore[arg-type]
            if phase != "plan" and parent is not None and parent.name == "plan":
                phases["plan"][scheme] = phases["plan"].get(scheme, 0.0) - _seconds(record)
    wall = sum(_seconds(record) for record in items) + sum(phases["store"].values())
    return {"items": len(items), "wall": wall, "schemes": list(phases["plan"]), **phases}


def opt_searches(records: Sequence[TraceRecord], profile: Profile) -> Optional[Dict]:
    """OPT's searches off their ``opt.search`` records: nodes, proven share."""
    searches = [record for record in records if "proven" in record.attributes
                and record.name.rsplit(".", 2)[-2:] == ["opt", "search"]]
    if not searches:
        return None
    proven = sum(bool(record.attributes["proven"]) for record in searches)
    explored = sum(int(record.attributes.get("explored", 0)) for record in searches)  # type: ignore
    seconds = sum(_seconds(record) for record in searches)
    return {"searches": len(searches), "proven": proven, "proven_share": proven / len(searches),
            "explored": explored, "seconds": seconds, "us_per_node": 1e6 * seconds / max(explored, 1),
            "bound_pruned": profile["counters"].get("search.bound.pruned", 0)}


#: Service layer -> the spans and timers it sums.  None runs inside
#: another, so each total is the layer's own time, gc pauses included.
SERVICE_LAYERS = {
    "plan": ("plan",), "verify": ("validate.verifier.verify",),
    "dispatch": ("controller.resilient.dispatch",), "des": ("simulator.engine.run",),
    "admission": ("service.admission.offer", "service.admission.release"), "build": ("service.build",),
}


def service_layers(records: Sequence[TraceRecord], profile: Profile) -> Optional[Dict]:
    """Service cells' wall clock (their ``item:`` spans) by layer; the layers and
    ``rest_s`` (event loop, untimed code) sum to ``wall_s``.  ``window`` is a
    verdict's ``check_end - check_start``, set on the verify timer."""
    spans = [record for record in records if record.kind == "span"]
    if not any(record.name == "service.request" for record in spans):
        return None
    wall = sum(_seconds(record) for record in spans if record.name.startswith("item:"))
    layers = {layer: sum(_seconds(record) for record in spans if record.name in names)
              for layer, names in SERVICE_LAYERS.items()}
    windows = [record.attributes["window"] for record in spans if "window" in record.attributes]
    events = profile["counters"].get("simulator.engine.events", 0)
    return {
        "wall_s": wall, "cells": sum(record.name.startswith("item:") for record in spans),
        "events": events, "us_per_event": 1e6 * layers["des"] / max(events, 1),
        "layers_s": layers, "rest_s": wall - sum(layers.values()), "verifies": len(windows),
        "verify_window_mean": sum(windows) / len(windows) if windows else None,  # type: ignore[arg-type]
    }


def _item_table(view: Dict, counters: Mapping[str, int]) -> List[str]:
    wall, items, schemes = view["wall"], view["items"], view["schemes"]
    lines = [f"sweep items x{items}: {wall:.4f}s  {1e3 * wall / items:.2f} ms/item",
             f"{'':<8}" + "".join(f"{scheme:>9}" for scheme in schemes) + f"{'total':>9}  share"]
    rows = {phase: view[phase] for phase in ITEM_PHASES.values()}
    rows["rest"] = {"all": wall - sum(sum(cells.values()) for cells in rows.values())}
    for phase, cells in rows.items():
        blank = "" if "all" in cells else "-"  # a phase without schemes has no columns
        row = "".join(f"{cells[s]:9.4f}" if s in cells else f"{blank:>9}" for s in schemes)
        total = sum(cells.values())
        lines.append(f"{phase:<8}{row}{total:9.4f}  {total / (wall or 1):5.1%}")
    if "sweep.judged.fresh" in counters:
        lines.append(
            f"reuse: incumbent {counters.get('sweep.incumbent.reused', 0)}/{items} items, schedules "
            f"judged {counters['sweep.judged.fresh']} by a fresh replay + "
            f"{counters.get('sweep.judged.greedy', 0)} by a feasible greedy + "
            f"{counters.get('sweep.judged.reused', 0)} reused")
    return lines


def _service_table(view: Dict, counters: Mapping[str, int]) -> List[str]:
    lines = [f"service x{view['cells']} cell(s): {view['wall_s']:.4f}s  DES events "
             f"{view['events']}  {view['us_per_event']:.2f} us/event"]
    if view["verifies"]:
        lines.append(f"verify window {view['verify_window_mean']:.1f} steps on average "
                     f"over {view['verifies']} verdicts")
    for layer, seconds in dict(view["layers_s"], **{"loop+rest": view["rest_s"]}).items():
        lines.append(f"{layer:<10} {seconds:.4f}s  {seconds / (view['wall_s'] or 1):6.1%}")
    return lines


#: Profile key -> (the view, its text: a template over the view's keys or a
#: function of the view and the counters).  :func:`profile_of` fills a key
#: when the tape holds what its view reads; :func:`render_report` prints it.
VIEWS: Dict[str, Tuple[View, Text]] = {
    "per_round": (per_round, "per round ({rounds} rounds): {accepted:.2f} probes accepted, "
                  "{refused:.2f} refused ({refused_split} by the split, {refused_congestion} by "
                  "congestion), {fallback_skipped} fallback re-probes skipped"),
    "phase_shares": (phase_shares, lambda view, _: [
        "phases of the plan: " + ", ".join(f"{k} {v:.1%}" for k, v in view.items())
        + (" (deflect inside split)" if "deflect" in view else "")]),
    "per_probe": (per_probe, "per probe: {links_decided:.1f} links decided, {entries_read:.1f} "
                  "class-table entries read, {links_swept:.2f} links swept"),
    "per_split": (per_split, "per split: {alive_classes:.1f} alive classes, {class_splits:.1f} "
                  "class splits ({untouched_share:.0%} left the class untouched); "
                  "{intervals_per_sweep:.1f} intervals per sweep"),
    "per_deflection": (per_deflection, "per deflection ({deflections}): {runs_shared:.1f} runs "
                       "shared with the parent up to the hit, {runs_routed:.1f} runs routed: "
                       "{runs_walked:.1f} walked, {runs_copied:.1f} copied from the parent's "
                       "tail; {views:.2f} views materialised"),
    "item_phases": (item_phases, _item_table),
    "opt": (opt_searches, "opt: proven {proven}/{searches} ({proven_share:.2f}), {explored} "
            "nodes in {seconds:.4f}s ({us_per_node:.1f} us/node), {bound_pruned} nodes pruned "
            "by the loop-freedom bound"),
    "service": (service_layers, _service_table),
}


def profile_of(records: Iterable[TraceRecord]) -> Profile:
    """:func:`aggregate` of ``records`` plus every view of :data:`VIEWS` the
    tape holds, each a JSON-ready dict under its key."""
    records = list(records)
    profile = aggregate(records)
    for key, (view, _text) in VIEWS.items():
        found = view(records, profile)
        if found is not None:
            profile[key] = found
    return profile


def _view_lines(key: str, profile: Profile) -> List[str]:
    text = VIEWS[key][1]
    if isinstance(text, str):
        return [text.format(**profile[key])]
    return text(profile[key], profile.get("counters", {}))


_BAR_WIDTH = 18


def _format_count(value: int) -> str:
    if value >= 10_000_000:
        return f"{value / 1_000_000:.0f}M"
    if value >= 10_000:
        return f"{value / 1000:.0f}k"
    return str(value)


def render_report(profile: Dict[str, Dict], min_seconds: float = 0.0) -> str:
    """Render an :func:`aggregate` (or :func:`profile_of`) view as text.

    The span section is a flame-style tree: children indent under their
    parent path, each line showing total seconds, the share of its root
    span, call count, and -- when a span has children -- its *self* time
    (time not attributed to any child span).  The counter section pairs
    ``<name>.hit`` / ``<name>.miss`` counters into hit-rate lines.  Each
    view of :data:`VIEWS` the profile holds follows.
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
    views = [key for key in VIEWS if key in profile]
    if views:
        lines.extend(["", "views"])
        lines.extend(f"  {line}" for key in views for line in _view_lines(key, profile))
    return "\n".join(lines)
