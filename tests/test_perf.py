"""Unit tests for the ``repro.perf`` profiling subsystem."""

import time

import pytest

from repro.core.greedy import greedy_schedule
from repro.core.instance import segmented_instance
from repro.perf import PerfRegistry, perf, render_report, timed
from repro.perf.registry import _NULL_SPAN, _env_enabled


class TestDisabledFastPath:
    def test_disabled_span_is_the_shared_null_span(self):
        reg = PerfRegistry()
        assert reg.span("anything") is _NULL_SPAN
        with reg.span("anything"):
            pass
        assert reg.snapshot()["spans"] == {}

    def test_disabled_count_records_nothing(self):
        reg = PerfRegistry()
        reg.count("x")
        assert reg.counter("x") == 0
        assert reg.snapshot()["counters"] == {}

    def test_global_registry_disabled_by_default(self):
        # The test environment must not set REPRO_PERF; the instrumented
        # hot paths rely on the disabled default.
        assert perf.enabled is False


class TestSpans:
    def test_span_records_calls_and_seconds(self):
        reg = PerfRegistry(enabled=True)
        for _ in range(3):
            with reg.span("work"):
                time.sleep(0.001)
        assert reg.calls("work") == 3
        assert reg.seconds("work") >= 0.003

    def test_nested_spans_record_dotted_paths(self):
        reg = PerfRegistry(enabled=True)
        with reg.span("outer"):
            with reg.span("inner"):
                pass
            with reg.span("inner"):
                pass
        assert reg.calls("outer") == 1
        assert reg.calls("outer.inner") == 2
        assert reg.calls("inner") == 0

    def test_cross_module_nesting_is_dynamic(self):
        reg = PerfRegistry(enabled=True)

        def tracker_op():
            with reg.span("tracker.preview"):
                pass

        with reg.span("greedy"):
            with reg.span("select"):
                tracker_op()
        assert reg.calls("greedy.select.tracker.preview") == 1

    def test_span_survives_exceptions(self):
        reg = PerfRegistry(enabled=True)
        with pytest.raises(RuntimeError):
            with reg.span("boom"):
                raise RuntimeError("x")
        assert reg.calls("boom") == 1
        # The stack unwound: the next span is a root again.
        with reg.span("after"):
            pass
        assert reg.calls("after") == 1

    def test_reset_clears_but_keeps_enabled(self):
        reg = PerfRegistry(enabled=True)
        with reg.span("a"):
            pass
        reg.count("c")
        reg.reset()
        assert reg.enabled
        assert reg.snapshot() == {"spans": {}, "counters": {}}


class TestGreedySpanTree:
    """``scripts/profile.py`` sizes tracker work from this tree, so its root
    has to be the run: tracker build, Algorithm 3's commits and the final
    check are spans under ``greedy``, not time outside it."""

    @pytest.fixture
    def profiled(self):
        perf.reset()
        perf.enable()
        try:
            yield perf
        finally:
            perf.disable()
            perf.reset()

    def test_root_covers_the_run_and_its_children(self, profiled):
        instance = segmented_instance(1000, seed=5)
        started = time.perf_counter()
        greedy_schedule(instance)
        wall = time.perf_counter() - started
        spans = profiled.snapshot()["spans"]
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
        assert root <= wall
        # Nothing but the mode check and the span's own bookkeeping runs
        # outside the root (generous: 2 % on a quiet box).
        assert root >= 0.9 * wall
        parents = {}
        for path, stat in spans.items():
            parent = path.rsplit(".", 1)[0]
            while parent not in spans and "." in parent:
                parent = parent.rsplit(".", 1)[0]
            if parent in spans and parent != path:
                parents[parent] = parents.get(parent, 0.0) + stat["seconds"]
        for parent, covered in parents.items():
            assert covered <= spans[parent]["seconds"] + 1e-6, parent

    def test_disabled_registry_records_nothing(self):
        assert perf.enabled is False
        perf.reset()
        greedy_schedule(segmented_instance(300, seed=5))
        assert perf.snapshot() == {"spans": {}, "counters": {}}


class TestCounters:
    def test_count_accumulates(self):
        reg = PerfRegistry(enabled=True)
        reg.count("sweeps")
        reg.count("sweeps", 41)
        assert reg.counter("sweeps") == 42


class TestTimedDecorator:
    def test_records_when_enabled_and_passes_through(self):
        reg = PerfRegistry(enabled=True)

        @timed("fn", registry=reg)
        def double(x):
            return 2 * x

        assert double(21) == 42
        assert reg.calls("fn") == 1

    def test_no_recording_when_disabled(self):
        reg = PerfRegistry()

        @timed("fn", registry=reg)
        def double(x):
            return 2 * x

        assert double(4) == 8
        assert reg.calls("fn") == 0


class TestReport:
    def test_report_contains_tree_and_counters(self):
        reg = PerfRegistry(enabled=True)
        with reg.span("greedy"):
            with reg.span("select"):
                pass
        reg.count("tracker.entry_memo.hit", 93)
        reg.count("tracker.entry_memo.miss", 7)
        reg.count("tracker.sweeps", 1234)
        text = reg.report()
        assert "greedy" in text
        assert "select" in text
        assert "tracker.entry_memo" in text
        assert "93.0% hit" in text
        assert "tracker.sweeps" in text

    def test_empty_report_renders(self):
        assert "no spans" in render_report({"spans": {}, "counters": {}})

    def test_snapshot_round_trips_into_report(self):
        reg = PerfRegistry(enabled=True)
        with reg.span("root"):
            with reg.span("leaf"):
                pass
        text = render_report(reg.snapshot())
        assert "root" in text and "leaf" in text


class TestEnvEnable:
    @pytest.mark.parametrize(
        "value,expected",
        [("1", True), ("true", True), ("0", False), ("", False), ("off", False)],
    )
    def test_env_values(self, value, expected):
        assert _env_enabled({"REPRO_PERF": value}) is expected

    def test_absent(self):
        assert _env_enabled({}) is False
