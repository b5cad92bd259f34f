"""Tests for the verifier <-> simulator differential replay.

Plus the regression tests for the two executor/simulator measurement bugs
this layer exists to catch: the timed executor's one-shot harvest dropping
late rule applies, and ``peak_utilization`` counting the open-ended final
sample outside its query window (the latter lives in
``tests/test_simulator.py`` next to the link tests).
"""

import random
from dataclasses import replace

import pytest

from repro.controller import (
    ConstantDelayModel,
    ControlChannel,
    Controller,
    perform_resilient_update,
)
from repro.core.greedy import greedy_schedule
from repro.core.instance import motivating_example
from repro.simulator import Simulator, build_dataplane
from repro.simulator.dataplane import install_config
from repro.updates import UnknownSchemeError, get_planner
from repro.validate import differential_replay
from tests.test_schedule import swapped


class TestDifferentialReplay:
    def test_chronus_timed_execution_agrees(self, fig1_instance):
        plan = get_planner("chronus").plan(fig1_instance)
        report = differential_replay(plan, instance=fig1_instance, seed=1)
        assert report.executor == "timed"
        assert report.ok, report.describe()
        assert not report.mismatches and not report.timing_errors
        # The realised schedule must be the planned one: zero-delay control
        # channel and pre-programmed execution times leave no skew.
        assert dict(report.realized.times) == dict(plan.schedule.times)

    def test_plan_carries_its_own_instance(self, fig1_instance):
        plan = get_planner("chronus").plan(fig1_instance)
        report = differential_replay(plan, seed=1)  # instance from the plan
        assert report.ok

    def test_missing_instance_rejected(self, fig1_instance):
        plan = replace(get_planner("chronus").plan(fig1_instance), instance=None)
        with pytest.raises(ValueError):
            differential_replay(plan)

    def test_unregistered_scheme_rejected(self, fig1_instance):
        """The plan's planner decides how it is executed; there is neither
        an ``executor=`` override nor a silent timed fallback."""
        plan = replace(get_planner("chronus").plan(fig1_instance), scheme="nope")
        with pytest.raises(UnknownSchemeError):
            differential_replay(plan)
        with pytest.raises(TypeError):
            differential_replay(plan, executor="timed")

    def test_opt_agrees(self, fig1_instance):
        plan = get_planner("opt").plan(fig1_instance, node_budget=20_000)
        report = differential_replay(plan, instance=fig1_instance, seed=2)
        assert report.ok, report.describe()

    def test_or_rounds_with_skew_agree(self, fig1_instance):
        """Asynchronous install latencies shift the realised schedule; the
        replay must verify what actually happened, not the nominal rounds."""
        plan = get_planner("or").plan(fig1_instance, rng=random.Random(7))
        report = differential_replay(
            plan, instance=fig1_instance, seed=7, install_skew=2
        )
        assert report.executor == "rounds"
        assert report.ok, report.describe()

    def test_two_phase_congestion_reproduced(self, shortcut_instance):
        plan = get_planner("tp").plan(shortcut_instance)
        assert not plan.feasible
        report = differential_replay(plan, instance=shortcut_instance, seed=3)
        assert report.executor == "two-phase"
        assert report.ok, report.describe()
        assert not report.verdict.congestion_free  # and the plane measured it

    def test_two_phase_clean_update(self, tiny_instance):
        plan = get_planner("tp").plan(tiny_instance)
        assert plan.feasible
        report = differential_replay(plan, instance=tiny_instance, seed=4)
        assert report.ok, report.describe()
        assert report.verdict.ok

    def test_loops_leave_fluid_evidence(self):
        """A loop-predicting verdict requires circulating excess in the plane."""
        instance = motivating_example()
        plan = get_planner("chronus").plan(instance)
        # Corrupt the plan: swap the first and last update to force loops.
        rounds = plan.schedule.rounds()
        plan = replace(
            plan, schedule=swapped(plan.schedule, rounds[0][1][0], rounds[-1][1][0])
        )
        report = differential_replay(plan, instance=instance, seed=5)
        assert not report.verdict.loop_free
        assert report.loops_confirmed is True
        assert report.ok, report.describe()

    def test_describe_is_readable(self, fig1_instance):
        plan = get_planner("chronus").plan(fig1_instance)
        report = differential_replay(plan, instance=fig1_instance, seed=1)
        assert "differential replay" in report.describe()


class TestTimedHarvestRegression:
    """The timed strategy must not drop applies that land after their
    planned time (control delay beyond the lead time used to lose them)."""

    def build(self, network_delay: float):
        instance = motivating_example()
        sim = Simulator()
        plane = build_dataplane(sim, instance.network, delay_scale=1.0)
        install_config(plane, instance)
        channel = ControlChannel(
            sim,
            ConstantDelayModel(network_delay),
            ConstantDelayModel(0.0),
            rng=random.Random(0),
        )
        controller = Controller(sim, channel)
        for switch in plane.switches.values():
            controller.manage(switch)
        plane.inject_flow(instance.source, "h1", "v6", rate=1.0)
        return instance, sim, plane, controller

    def test_slow_channel_applies_still_harvested(self):
        # Messages arrive 10 s after sending -- far beyond the 0.5 s lead
        # time, so every rule flips after the planned harvest point.
        instance, sim, plane, controller = self.build(network_delay=10.0)
        schedule = greedy_schedule(instance).schedule
        # An acknowledgement takes two 10 s crossings; the retry timer
        # waits longer, so nothing is resent.
        trace = perform_resilient_update(
            controller, plane, instance, schedule,
            strategy="timed", time_unit=1.0, retry_timeout=30.0,
        )
        sim.run(until=60.0)
        assert trace.total_retries == 0
        assert set(trace.applied) == set(schedule.times)
        assert trace.finished_at == pytest.approx(max(trace.applied.values()))
        # Every apply really was late: delivery happened after the plan.
        assert all(
            trace.applied[node] > trace.planned[node] for node in trace.planned
        )

    def test_fast_channel_unaffected(self):
        instance, sim, plane, controller = self.build(network_delay=0.001)
        schedule = greedy_schedule(instance).schedule
        trace = perform_resilient_update(
            controller, plane, instance, schedule,
            strategy="timed", time_unit=1.0,
        )
        sim.run(until=60.0)
        assert set(trace.applied) == set(schedule.times)
        assert trace.finished_at == pytest.approx(max(trace.applied.values()))
        assert trace.max_skew < 1e-6
