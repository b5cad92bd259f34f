"""Spans recorded from outside the program, for the traced pass.

Nothing under ``src/`` knows about this module.  A traced pass rebinds
the public names the program resolves at call time (planner methods, the
service's ``perform_resilient_update``, ``Simulator.run``, admission
``offer``/``release``, the pipeline's ``evaluate_task`` and
``RunHandle.append``) to timing wrappers and restores them afterwards.
Every wrapped call is synchronous, so one stack gives correct nesting
even under the service's asyncio loop.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_MISSING = object()


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    unit: Optional[str]
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


class Recorder:
    """In-memory span list with a stack for parent links."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.unit: Optional[str] = None

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self.current
        opened = Span(
            id=len(self.spans),
            name=name,
            parent=parent.id if parent is not None else None,
            unit=self.unit,
            start=time.perf_counter(),
            attrs=dict(attrs),
        )
        self.spans.append(opened)
        self._stack.append(opened)
        try:
            yield opened
        finally:
            opened.end = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[Span, object], None]] = None,
    ) -> Callable:
        """``fn`` inside a span; ``on_result`` may copy counts into ``attrs``."""

        def traced(*args, **kwargs):
            with self.span(name) as opened:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(opened, result)
                return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for recorded in self.spans:
                handle.write(recorded.to_json() + "\n")


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for recorded in spans:
        if recorded.parent is not None:
            children.setdefault(recorded.parent, []).append(
                (recorded.start, recorded.end)
            )
    result: Dict[int, float] = {}
    for recorded in spans:
        clipped = [
            (max(start, recorded.start), min(end, recorded.end))
            for start, end in children.get(recorded.id, ())
        ]
        clipped = [(start, end) for start, end in clipped if end > start]
        result[recorded.id] = recorded.duration - _covered(clipped)
    return result


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: self seconds and call count."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for recorded in spans:
        row = table.setdefault(recorded.name, {"self_s": 0.0, "calls": 0})
        row["self_s"] += own[recorded.id]
        row["calls"] += 1
    return table


def sum_attr(spans: Sequence[Span], name: str, attr: str) -> float:
    return sum(
        float(recorded.attrs.get(attr, 0) or 0)
        for recorded in spans
        if recorded.name == name
    )


class Patches:
    """Rebinds attributes and puts every original back on exit."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attribute: str, value: object) -> None:
        """Rebind ``owner.attribute``; remembers whether it was own or inherited."""
        own = getattr(owner, "__dict__", {})
        previous = own[attribute] if attribute in own else _MISSING
        self._undo.append((owner, attribute, previous))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def _plan_attrs(opened: Span, result) -> None:
    opened.attrs["feasible"] = bool(result.feasible)
    opened.attrs["makespan"] = int(result.schedule.makespan)
    opened.attrs["switches"] = len(result.schedule)


@contextmanager
def traced_program(recorder: Recorder) -> Iterator[None]:
    """Rebind the program's layer boundaries to spans on ``recorder``.

    Planner methods are rebound on the registered planner *objects* (an
    instance attribute shadows the method, overrides included); the rest
    are module or class attributes the callers look up at call time.
    """
    import repro.pipeline.runner as runner
    import repro.service.service as service
    import repro.updates.optimal as optimal
    from repro.experiments.sweep import SweepItem
    from repro.pipeline.store import RunHandle
    from repro.service.admission import AdmissionController
    from repro.simulator.engine import Simulator
    from repro.updates.registry import available_schemes, get_planner

    original_search = optimal.optimal_schedule

    def counted_search(*args, **kwargs):
        # Not a span of its own: updates.opt.plan_s keeps the search inside
        # it, and the node counts land on the enclosing plan span.
        started = time.perf_counter()
        result = original_search(*args, **kwargs)
        plan_span = recorder.current
        if plan_span is not None:
            plan_span.attrs["search_s"] = time.perf_counter() - started
            plan_span.attrs["nodes"] = int(result.explored)
            plan_span.attrs["proven"] = bool(result.proven)
        return result

    def events_attr(opened: Span, result) -> None:
        opened.attrs["events"] = int(result)

    with Patches() as patches:
        for scheme in available_schemes():
            planner = get_planner(scheme)
            patches.set(
                planner,
                "plan",
                recorder.wrap(f"updates.{scheme}.plan", planner.plan, _plan_attrs),
            )
            patches.set(
                planner,
                "measure",
                recorder.wrap("analysis.metrics.measure", planner.measure),
            )
            patches.set(
                planner,
                "verify",
                recorder.wrap("validate.verifier.verify", planner.verify),
            )
        patches.set(optimal, "optimal_schedule", counted_search)
        patches.set(
            SweepItem,
            "build_instance",
            recorder.wrap("core.instance.build", SweepItem.build_instance),
        )
        patches.set(
            runner,
            "evaluate_task",
            recorder.wrap("pipeline.runner.item", runner.evaluate_task),
        )
        patches.set(
            RunHandle, "append", recorder.wrap("pipeline.store.append", RunHandle.append)
        )
        patches.set(
            service,
            "build_workload",
            recorder.wrap("service.build", service.build_workload),
        )
        patches.set(
            service.UpdateService,
            "__init__",
            recorder.wrap("service.build", service.UpdateService.__init__),
        )
        patches.set(
            service,
            "perform_resilient_update",
            recorder.wrap(
                "controller.resilient.dispatch", service.perform_resilient_update
            ),
        )
        patches.set(
            Simulator, "run", recorder.wrap("simulator.engine.run", Simulator.run, events_attr)
        )
        patches.set(
            AdmissionController,
            "offer",
            recorder.wrap("service.admission.offer", AdmissionController.offer),
        )
        patches.set(
            AdmissionController,
            "release",
            recorder.wrap("service.admission.release", AdmissionController.release),
        )
        yield
