"""The recorder's aggregate timers and counters -- what ``repro.perf`` was.

The hot paths are instrumented with ``recorder.timer`` / ``recorder.count``;
a profile is the :func:`repro.trace.query.aggregate` view of a sink-less
session's tape.
"""

import time

import pytest

from repro.core.greedy import greedy_schedule
from repro.core.instance import random_instance, segmented_instance
from repro.trace import TraceSession, aggregate, profile_of, render_report
from repro.trace.recorder import NULL_SPAN, TraceRecorder, recorder
from repro.updates.registry import get_planner


def taped(work) -> list:
    """The tape of ``work()`` run inside a sink-less session."""
    with TraceSession(scenario="unit", run_id="perf") as session:
        work()
    assert not recorder.enabled
    return session.tape


def profiled(work) -> dict:
    """The aggregate view of that tape."""
    return aggregate(taped(work))


def calls(profile: dict, path: str) -> int:
    return profile["spans"].get(path, {"calls": 0})["calls"]


class TestDisabledFastPath:
    def test_disabled_span_is_the_shared_null_span(self):
        reg = TraceRecorder()
        assert reg.timer("anything") is NULL_SPAN
        assert reg.span("anything") is NULL_SPAN
        assert reg.current() is NULL_SPAN
        with reg.timer("anything") as timer:
            timer.set(ignored=1)
        assert reg.drain() == []

    def test_disabled_count_records_nothing(self):
        reg = TraceRecorder()
        reg.count("x")
        assert reg.drain() == []

    def test_global_registry_disabled_by_default(self):
        # The instrumented hot paths rely on the disabled default; only a
        # session switches the recorder on, and it switches it off again.
        assert recorder.enabled is False


class TestSpans:
    def test_span_records_calls_and_seconds(self):
        def work():
            for _ in range(3):
                with recorder.timer("work"):
                    time.sleep(0.001)

        profile = profiled(work)
        assert calls(profile, "work") == 3
        assert profile["spans"]["work"]["seconds"] >= 0.003

    def test_nested_spans_record_dotted_paths(self):
        def work():
            with recorder.timer("outer"):
                with recorder.timer("inner"):
                    pass
                with recorder.timer("inner"):
                    pass

        profile = profiled(work)
        assert calls(profile, "outer") == 1
        assert calls(profile, "outer.inner") == 2
        assert calls(profile, "inner") == 0

    def test_cross_module_nesting_is_dynamic(self):
        def tracker_op():
            with recorder.timer("tracker.probe"):
                pass

        def work():
            with recorder.timer("greedy"):
                with recorder.timer("select"):
                    tracker_op()

        assert calls(profiled(work), "greedy.select.tracker.probe") == 1

    def test_span_survives_exceptions(self):
        def work():
            with pytest.raises(RuntimeError):
                with recorder.timer("boom"):
                    raise RuntimeError("x")
            # The context unwound: the next timer is a root path again.
            with recorder.timer("after"):
                pass

        profile = profiled(work)
        assert calls(profile, "boom") == 1
        assert calls(profile, "after") == 1

    def test_reset_clears_but_keeps_enabled(self):
        with TraceSession(scenario="unit", run_id="perf") as session:
            with recorder.span("scope"):
                with recorder.timer("a"):
                    pass
                recorder.count("c")
            drained = recorder.drain()
            assert recorder.enabled
            assert recorder.drain() == []
            assert recorder.current().name == "run"  # open spans stay open
        assert aggregate(drained) == {
            "spans": {"a": {"calls": 1, "seconds": drained[0].attributes["seconds"]}},
            "counters": {"c": 1},
        }
        assert [record.name for record in session.tape] == ["run"]


class TestOwnership:
    """Timers and counters belong to the nearest enclosing recorded span."""

    def test_aggregates_hang_under_the_scope_that_ran_them(self):
        def work():
            for scheme in ("chronus", "opt"):
                with recorder.span("plan", {"scheme": scheme}):
                    with recorder.timer("greedy"):
                        with recorder.timer("select"):
                            recorder.count("probes", 2)

        tape = taped(work)
        by_id = {record.span_id: record for record in tape}
        plans = [record for record in tape if record.name == "plan"]
        assert [plan.attributes["scheme"] for plan in plans] == ["chronus", "opt"]
        for plan in plans:
            owned = [r for r in tape if r.parent_id == plan.span_id]
            assert [r.name for r in owned] == ["greedy", "counter:probes"]
            (select,) = [r for r in tape if by_id.get(r.parent_id) is owned[0]]
            assert select.name == "greedy.select"
            assert select.attributes["calls"] == 1
            # Children first, sorted by path, then the owner's own record.
            assert tape.index(select) < tape.index(plan)
        # A scope's path does not leak into the timers below it.
        assert set(aggregate(tape)["spans"]) == {"greedy", "greedy.select"}
        assert aggregate(tape)["counters"] == {"probes": 4}

    def test_a_timer_given_attributes_is_filed_on_its_own(self):
        def work():
            for explored in (7, 9):
                with recorder.timer("opt.search") as search:
                    with recorder.timer("tracker.probe"):
                        pass
                    search.set(explored=explored, skipped=None)

        tape = taped(work)
        searches = [record for record in tape if record.name == "opt.search"]
        assert [record.attributes["explored"] for record in searches] == [7, 9]
        assert all(record.end_time is not None for record in searches)
        assert all("skipped" not in record.attributes for record in searches)
        (probe,) = [r for r in tape if r.name == "opt.search.tracker.probe"]
        assert probe.parent_id == searches[-1].span_id
        profile = aggregate(tape)
        assert calls(profile, "opt.search") == 2
        assert calls(profile, "opt.search.tracker.probe") == 2

    def test_with_no_span_open_a_timer_has_no_owner(self):
        recorder.configure("t" * 32, "unit")
        try:
            assert recorder.timer("orphan") is NULL_SPAN
            recorder.count("orphan")
            assert recorder.drain() == []
        finally:
            recorder.deactivate()


class TestGreedySpanTree:
    """Profiles size tracker work from this tree, so its root has to be the
    run: tracker build, Algorithm 3's commits and the final check are timers
    under ``greedy``, not time outside it; and both tracker layouts split a
    probe under the same names."""

    def test_root_covers_the_run_and_its_children(self):
        instance = segmented_instance(1000, seed=5)
        wall = []

        def work():
            started = time.perf_counter()
            greedy_schedule(instance)
            wall.append(time.perf_counter() - started)

        profile = profile_of(taped(work))
        spans = profile["spans"]
        assert {"per_round", "phase_shares", "per_probe", "per_deflection"} <= set(profile)
        assert set(profile["phase_shares"]) == {"split", "deflect", "check"}
        assert set(spans) >= {
            "greedy",
            "greedy.tracker.build",
            "greedy.dependencies",
            "greedy.dependencies.commit",
            "greedy.select",
            "greedy.select.tracker.probe",
            "greedy.select.tracker.probe.split",
            "greedy.select.tracker.probe.split.deflect",
            "greedy.select.tracker.probe.check",
            "greedy.final_check",
        }
        root = spans["greedy"]["seconds"]
        assert root <= wall[0]
        # Nothing but the mode check and the timer's own bookkeeping runs
        # outside the root (generous: 2 % on a quiet box).
        assert root >= 0.9 * wall[0]
        parents = {}
        for path, stat in spans.items():
            parent = path.rsplit(".", 1)[0]
            while parent not in spans and "." in parent:
                parent = parent.rsplit(".", 1)[0]
            if parent in spans and parent != path:
                parents[parent] = parents.get(parent, 0.0) + stat["seconds"]
        for parent, covered in parents.items():
            assert covered <= spans[parent]["seconds"] + 1e-5, parent

    def test_dict_tracker_probe_has_the_array_trackers_phases(self):
        # plan-dense's shape: 16 switches, a global reroute, the dict tracker.
        instance = random_instance(16, seed=3, capacity=2.0)
        profile = profile_of(taped(lambda: get_planner("chronus").plan(instance)))
        spans = profile["spans"]
        probes = spans["greedy.select.tracker.probe"]["calls"]
        assert spans["greedy.select.tracker.probe.split"]["calls"] == probes
        assert 0 < spans["greedy.select.tracker.probe.check"]["calls"] <= probes
        assert "greedy.select.tracker.probe.split.deflect" not in spans  # array only
        assert profile["counters"]["tracker.splits"] >= probes
        assert set(profile["phase_shares"]) == {"split", "check"}
        assert profile["per_round"]["probes"] == probes
        assert 0 <= profile["per_split"]["untouched_share"] <= 1

    def test_disabled_registry_records_nothing(self):
        assert recorder.enabled is False
        greedy_schedule(segmented_instance(300, seed=5))
        assert recorder.drain() == []


class TestCounters:
    def test_count_accumulates(self):
        def work():
            recorder.count("sweeps")
            recorder.count("sweeps", 41)

        assert profiled(work)["counters"] == {"sweeps": 42}


class TestReport:
    def test_report_contains_tree_and_counters(self):
        def work():
            with recorder.timer("greedy"):
                with recorder.timer("select"):
                    pass
            recorder.count("tracker.entry_memo.hit", 93)
            recorder.count("tracker.entry_memo.miss", 7)
            recorder.count("tracker.sweeps", 1234)

        text = render_report(profiled(work))
        assert "greedy" in text
        assert "select" in text
        assert "tracker.entry_memo" in text
        assert "93.0% hit" in text
        assert "tracker.sweeps" in text

    def test_empty_report_renders(self):
        assert "no spans" in render_report({"spans": {}, "counters": {}})

    def test_snapshot_round_trips_into_report(self):
        def work():
            with recorder.timer("root"):
                with recorder.timer("leaf"):
                    pass

        profile = profiled(work)
        assert set(profile) == {"spans", "counters"}
        assert set(profile["spans"]["root"]) == {"calls", "seconds"}
        text = render_report(profile)
        assert "root" in text and "leaf" in text
