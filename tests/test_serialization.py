"""Round-trip tests for schedule JSON persistence."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import UpdateSchedule
from repro.core.serialization import (
    plan_from_json,
    schedule_from_json,
    schedule_to_json,
)


class TestRoundTrip:
    def test_simple(self, paper_schedule):
        text = schedule_to_json(paper_schedule)
        restored = schedule_from_json(text)
        assert restored.as_dict() == paper_schedule.as_dict()
        assert restored.start_time == paper_schedule.start_time
        assert restored.feasible == paper_schedule.feasible

    def test_best_effort_flag_survives(self):
        schedule = UpdateSchedule({"a": 3}, feasible=False)
        assert not schedule_from_json(schedule_to_json(schedule)).feasible

    def test_empty_schedule(self):
        schedule = UpdateSchedule({}, start_time=7)
        restored = schedule_from_json(schedule_to_json(schedule))
        assert len(restored) == 0
        assert restored.t0 == 7

    @given(
        times=st.dictionaries(
            st.text(alphabet="abcdefv123", min_size=1, max_size=6),
            st.integers(min_value=0, max_value=1000),
            max_size=8,
        ),
        feasible=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, times, feasible):
        schedule = UpdateSchedule(times, feasible=feasible)
        restored = schedule_from_json(schedule_to_json(schedule))
        assert restored.as_dict() == schedule.as_dict()
        assert restored.feasible == feasible
        assert restored.makespan == schedule.makespan


class TestValidation:
    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="chronus-schedule"):
            schedule_from_json('{"format": "something-else"}')

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            schedule_from_json("[1, 2, 3]")

    def test_rejects_missing_times(self):
        with pytest.raises(ValueError, match="times"):
            schedule_from_json('{"format": "chronus-schedule/1"}')


_RULES = {
    "installs": 1,
    "modifies": 1,
    "deletes": 1,
    "baseline_rules": 2,
    "peak_rules": 3,
}
_PLAN = {"format": "chronus-plan/1", "schedule": {"times": {"a": 0}}, "rules": _RULES}


@pytest.mark.parametrize(
    "parse, doc",
    [
        (plan_from_json, {**_PLAN, "rules": {}}),
        (plan_from_json, {**_PLAN, "rounds": [1]}),
        (schedule_from_json, {"format": "chronus-schedule/1", "times": {"a": None}}),
    ],
    ids=["plan-rules-empty", "plan-round-not-a-pair", "schedule-time-null"],
)
def test_malformed_document_raises_value_error(parse, doc):
    with pytest.raises(ValueError, match="malformed"):
        parse(json.dumps(doc))
