"""The acknowledged executors: fault-free goldens, retries, rollback, hygiene.

The load-bearing property is the frozen one: with faults disabled the
executor must reproduce, byte for byte, the
:class:`~repro.controller.executor.ExecutionTrace` the plain executors
wrote into ``tests/data/executor_goldens.json`` before they were deleted --
same planned times, same applied times, same finish instant.  Everything
else here exercises what an unacknowledged executor cannot survive: lost
messages, duplicate deliveries, failed installs, crash-stop switches and
deadlines.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.controller import (
    ConstantDelayModel,
    DionysusDelayModel,
    build_testbed,
    perform_resilient_two_phase,
    perform_resilient_update,
)
from repro.controller.channel import DelayModel
from repro.core.greedy import greedy_schedule
from repro.core.instance import motivating_example
from repro.experiments.sweep import mixed_instance
from repro.faults import FaultPlan, FaultSpec


@dataclass(frozen=True)
class UniformDelayModel(DelayModel):
    """Uniform in ``[low, high]`` seconds: the wide-variance latency the
    parity goldens were recorded under (no scenario draws it)."""

    low: float
    high: float

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


def make_world(seed, instance=None, spec=None, network_delay=None, install_delay=None):
    """One simulated world; a benign world and a faulted world with the
    same seed draw identical latencies for identical send sequences."""
    instance = instance or motivating_example()
    sim, plane, controller = build_testbed(
        instance,
        network_delay=network_delay or UniformDelayModel(0.01, 0.5),
        install_delay=install_delay
        or DionysusDelayModel(median=0.1, sigma=1.0, cap=1.0),
        rng=random.Random(seed),
        fault_plan=None if spec is None else FaultPlan(spec, seed=seed),
    )
    return instance, sim, plane, controller


def pending_barriers(controller):
    """Barrier requests sent but neither answered nor expired: a waiter
    left here after an update is a leak (DESIGN.md §9)."""
    return len(controller._barrier_waiters)


GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "executor_goldens.json").read_text()
)

#: The two channels the ``traces`` goldens were frozen under: ``make_world``'s
#: defaults and Fig. 6's.
GOLDEN_CHANNELS = {
    "parity": (None, None),
    "fig6": (
        ConstantDelayModel(0.002),
        DionysusDelayModel(median=0.3, sigma=1.0, cap=2.0),
    ),
}


def trace_fingerprint(trace):
    return {
        "planned": [[node, when] for node, when in trace.planned.items()],
        "applied": sorted([node, when] for node, when in trace.applied.items()),
        "late": sorted([node, when] for node, when in trace.late.items()),
        "finished_at": trace.finished_at,
    }


def rule_of(plane, node, name):
    return next(rule for rule in plane.switch(node).table.rules if rule.name == name)


class TestFaultFreeParity:
    """Golden replay: with faults off the executor does what the plain
    ``perform_round_update`` / ``perform_timed_update`` did before they were
    deleted -- ``(planned, applied, late, finished_at)`` frozen at the parent
    into the ``traces`` section of ``tests/data/executor_goldens.json``:
    20 seeds x {rounds, timed, timed with no shipping lead} on the Fig. 1
    example and ``mixed_instance(8, 1000 + seed)``, under this module's
    wide-variance channel and Fig. 6's.  Byte for byte, because the same
    messages go out in the same order (so every latency draw lands on the
    same message) and no retry timer fires: the default 4 s timeout is above
    both channels' worst-case acknowledgement (0.5 + 0.5 + 1.0 + 0.5 s)."""

    def replay(self, instance_kind, seed, strategies):
        entries = [
            e for e in GOLDENS["traces"]
            if e["instance"] == instance_kind and e["seed"] == seed
            and e["strategy"] in strategies
        ]
        assert len(entries) == len(GOLDEN_CHANNELS) * len(strategies)
        for entry in entries:
            instance = (
                motivating_example() if instance_kind == "fig1"
                else mixed_instance(8, 1000 + seed)
            )
            network_delay, install_delay = GOLDEN_CHANNELS[entry["channel"]]
            _, sim, plane, controller = make_world(
                seed, instance=instance,
                network_delay=network_delay, install_delay=install_delay,
            )
            strategy = entry["strategy"]
            trace = perform_resilient_update(
                controller, plane, instance, greedy_schedule(instance).schedule,
                strategy="rounds" if strategy == "rounds" else "timed",
                time_unit=1.0,
                start_at=GOLDENS["timed_start"].get(strategy),
            )
            sim.run(until=200.0)
            assert trace_fingerprint(trace) == {
                key: entry[key] for key in ("planned", "applied", "late", "finished_at")
            }, entry["id"]
            assert not trace.aborted and trace.total_retries == 0, entry["id"]
            assert pending_barriers(controller) == 0, entry["id"]
            if strategy == "timed-nolead":
                assert trace.late, entry["id"]  # the corpus does exercise lateness

    @pytest.mark.parametrize("seed", range(20))
    def test_rounds_trace_identical(self, seed):
        self.replay("fig1", seed, ("rounds",))

    @pytest.mark.parametrize("seed", range(20))
    def test_timed_trace_identical(self, seed):
        self.replay("fig1", seed, ("timed", "timed-nolead"))

    @pytest.mark.parametrize("seed", range(20))
    def test_parity_on_sweep_instances(self, seed):
        self.replay("mixed", seed, ("rounds", "timed", "timed-nolead"))


class TestRetries:
    def test_recovers_from_message_loss(self):
        completed = 0
        for seed in range(10):
            spec = FaultSpec(drop_rate=0.25, duplicate_rate=0.15)
            instance, sim, plane, controller = make_world(seed, spec=spec)
            schedule = greedy_schedule(instance).schedule
            trace = perform_resilient_update(
                controller, plane, instance, schedule,
                strategy="rounds", time_unit=1.0, retry_timeout=4.0, max_retries=4,
            )
            sim.run(until=400.0)
            assert trace.finished_at is not None  # finished or aborted, never hung
            # Barrier-waiter hygiene: nothing leaks even when replies drop.
            assert pending_barriers(controller) == 0
            if not trace.aborted:
                completed += 1
                assert set(trace.applied) == set(schedule.times)
        assert completed >= 8  # retries recover the overwhelming majority

    def test_duplicate_deliveries_are_idempotent(self):
        spec = FaultSpec(duplicate_rate=1.0)
        instance, sim, plane, controller = make_world(0, spec=spec)
        schedule = greedy_schedule(instance).schedule
        trace = perform_resilient_update(
            controller, plane, instance, schedule, strategy="rounds", time_unit=1.0
        )
        sim.run(until=200.0)
        assert not trace.aborted
        assert trace.total_retries == 0  # every first copy was acknowledged
        assert set(trace.applied) == set(schedule.times)
        for node in schedule.times:
            port = plane.port_of(node, instance.new_config[node])
            assert rule_of(plane, node, instance.flow.name).out_port == port
        assert pending_barriers(controller) == 0

    def test_apply_failure_triggers_resend(self):
        class FailFirst:
            def __init__(self):
                self.calls = 0

            def crashed(self, now):
                return False

            def apply_fails(self):
                self.calls += 1
                return self.calls == 1

            def stretch_install(self, latency):
                return latency

        instance, sim, plane, controller = make_world(0)
        schedule = greedy_schedule(instance).schedule
        victim = next(iter(schedule.times))
        controller.managed(victim).faults = FailFirst()
        trace = perform_resilient_update(
            controller, plane, instance, schedule,
            strategy="rounds", time_unit=1.0, retry_timeout=2.0,
        )
        sim.run(until=200.0)
        assert not trace.aborted
        assert trace.retries.get(victim, 0) >= 1
        assert victim in trace.applied


class TestAbortAndRollback:
    class CrashAt:
        def __init__(self, at):
            self.at = at

        def crashed(self, now):
            return now >= self.at

        def apply_fails(self):
            return False

        def stretch_install(self, latency):
            return latency

    def test_crash_stop_aborts_and_rolls_back(self):
        instance, sim, plane, controller = make_world(
            0, network_delay=ConstantDelayModel(0.01),
            install_delay=ConstantDelayModel(0.05),
        )
        schedule = greedy_schedule(instance).schedule
        rounds = schedule.rounds()
        victim = next(iter(rounds[-1][1]))  # last round: earlier rounds apply first
        controller.managed(victim).faults = self.CrashAt(0.0)
        trace = perform_resilient_update(
            controller, plane, instance, schedule,
            strategy="rounds", time_unit=1.0, retry_timeout=2.0, max_retries=2,
        )
        sim.run(until=300.0)
        assert trace.aborted
        assert victim in trace.gave_up
        assert trace.rolled_back  # every switch updated before the crash
        sim.run(until=sim.now + 20.0)  # let rollback messages land
        for node in trace.rolled_back:
            if node == victim:
                continue  # a crashed switch processes nothing, including rollback
            rule = rule_of(plane, node, instance.flow.name)
            assert rule.out_port == plane.port_of(node, instance.old_config[node])
        # Waiter hygiene even though the crashed switch never replied.
        assert pending_barriers(controller) == 0

    def test_rollback_is_newest_first(self):
        instance, sim, plane, controller = make_world(
            0, network_delay=ConstantDelayModel(0.01),
            install_delay=ConstantDelayModel(0.05),
        )
        schedule = greedy_schedule(instance).schedule
        rounds = schedule.rounds()
        assert len(rounds) >= 2
        victim = next(iter(rounds[-1][1]))
        controller.managed(victim).faults = self.CrashAt(0.0)
        trace = perform_resilient_update(
            controller, plane, instance, schedule,
            strategy="rounds", time_unit=1.0, retry_timeout=2.0, max_retries=1,
        )
        sim.run(until=300.0)
        assert trace.aborted
        # Touched-but-unconfirmed switches (the crashed one) are rolled back
        # too -- their FlowMod may still be in flight; among the *applied*
        # ones the unwind must run newest-first.
        confirmed = [n for n in trace.rolled_back if n in trace.applied]
        assert confirmed == sorted(
            confirmed, key=lambda n: trace.applied[n], reverse=True
        )
        assert len(confirmed) >= 2

    def test_deadline_abort_under_heavy_loss(self):
        spec = FaultSpec(drop_rate=0.9)
        instance, sim, plane, controller = make_world(3, spec=spec)
        schedule = greedy_schedule(instance).schedule
        trace = perform_resilient_update(
            controller, plane, instance, schedule,
            strategy="timed", time_unit=1.0, start_at=5.0,
            retry_timeout=3.0, max_retries=10, deadline=20.0,
        )
        sim.run(until=100.0)
        assert trace.aborted
        assert "deadline" in trace.abort_reason
        assert trace.finished_at == pytest.approx(20.0)
        assert pending_barriers(controller) == 0


class TestResilientTwoPhase:
    def test_fault_free_flip_lands_on_time(self):
        instance, sim, plane, controller = make_world(
            0, network_delay=ConstantDelayModel(0.01),
            install_delay=ConstantDelayModel(0.05),
        )
        trace = perform_resilient_two_phase(controller, plane, instance, flip_at=8.0)
        sim.run(until=60.0)
        assert not trace.aborted
        assert trace.applied[instance.source] == pytest.approx(8.0)
        ingress = rule_of(plane, instance.source, instance.flow.name)
        assert ingress.set_tag == 2
        assert pending_barriers(controller) == 0

    def test_abort_unflips_and_deletes_shadow_rules(self):
        class CrashAt:
            def __init__(self, at):
                self.at = at

            def crashed(self, now):
                return now >= self.at

            def apply_fails(self):
                return False

            def stretch_install(self, latency):
                return latency

        instance, sim, plane, controller = make_world(
            0, network_delay=ConstantDelayModel(0.01),
            install_delay=ConstantDelayModel(0.05),
        )
        victims = [n for n in instance.new_config if n != instance.source]
        victim = victims[0]
        controller.managed(victim).faults = CrashAt(0.0)
        trace = perform_resilient_two_phase(
            controller, plane, instance, flip_at=8.0,
            retry_timeout=2.0, max_retries=2,
        )
        sim.run(until=300.0)
        assert trace.aborted
        assert victim in trace.gave_up
        sim.run(until=sim.now + 20.0)
        shadow = f"{instance.flow.name}#v2"
        for node in trace.rolled_back:
            if node == victim:
                continue
            assert shadow not in plane.switch(node).table
        ingress = rule_of(plane, instance.source, instance.flow.name)
        assert ingress.set_tag is None
        assert ingress.out_port == plane.port_of(
            instance.source, instance.old_config[instance.source]
        )
        assert pending_barriers(controller) == 0
