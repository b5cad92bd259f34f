"""The fault-injection layer: plans, faulty channel, lateness, ablation."""

import random

import pytest

from repro.controller import (
    ConstantDelayModel,
    ControlChannel,
    Controller,
    perform_resilient_update,
)
from repro.controller.messages import FlowModModify, next_xid
from repro.core.greedy import greedy_schedule
from repro.core.instance import motivating_example
from repro.faults import FaultPlan, FaultSpec, FaultyChannel, severity_spec
from repro.pipeline import run_in_memory
from repro.simulator import Simulator, build_dataplane
from repro.simulator.dataplane import install_config


class TestFaultSpec:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(crash_window=(5.0, 1.0))

    def test_benign_default(self):
        assert FaultSpec().benign
        assert not FaultSpec(drop_rate=0.1).benign

    def test_scaled_clamps_to_one(self):
        spec = FaultSpec(drop_rate=0.4, straggler_factor=8.0)
        scaled = spec.scaled(5.0)
        assert scaled.drop_rate == 1.0
        assert scaled.straggler_factor == 8.0  # magnitudes untouched

    def test_severity_zero_is_benign(self):
        assert severity_spec(0.0).benign

    def test_severity_drift_requires_bound(self):
        assert severity_spec(1.0).drift_rate == 0.0
        assert severity_spec(1.0, drift_bound=0.5).drift_rate > 0.0


class TestFaultPlanDeterminism:
    def test_message_stream_reproducible(self):
        spec = FaultSpec(drop_rate=0.3, duplicate_rate=0.2)
        a = FaultPlan(spec, seed=42)
        b = FaultPlan(spec, seed=42)
        draws_a = [(a.drop_message(), a.duplicate_message()) for _ in range(200)]
        draws_b = [(b.drop_message(), b.duplicate_message()) for _ in range(200)]
        assert draws_a == draws_b
        assert a.stats.dropped == b.stats.dropped > 0

    def test_switch_fates_independent_of_query_order(self):
        spec = FaultSpec(crash_rate=0.5, straggler_rate=0.5, drift_rate=0.5, drift_bound=0.4)
        names = [f"v{i}" for i in range(12)]
        a = FaultPlan(spec, seed=9)
        b = FaultPlan(spec, seed=9)
        fates_a = {n: a.switch_state(n).crashed_at for n in names}
        fates_b = {n: b.switch_state(n).crashed_at for n in reversed(names)}
        assert fates_a == fates_b

    def test_different_seeds_diverge(self):
        spec = FaultSpec(drop_rate=0.5)
        a = FaultPlan(spec, seed=1)
        b = FaultPlan(spec, seed=2)
        assert [a.drop_message() for _ in range(64)] != [
            b.drop_message() for _ in range(64)
        ]


class TestFaultyChannel:
    def deliveries(self, spec, sends=50, seed=0):
        sim = Simulator()
        plan = FaultPlan(spec, seed=seed)
        channel = FaultyChannel(
            sim, plan, network_delay=ConstantDelayModel(0.01), rng=random.Random(seed)
        )
        arrived = []
        for i in range(sends):
            channel.send(lambda i=i: arrived.append(i), key=("to", "v1"))
        sim.run(until=10.0)
        return arrived, plan

    def test_drop_everything(self):
        arrived, plan = self.deliveries(FaultSpec(drop_rate=1.0))
        assert arrived == []
        assert plan.stats.dropped == 50

    def test_duplicate_everything(self):
        arrived, plan = self.deliveries(FaultSpec(duplicate_rate=1.0), sends=10)
        assert sorted(arrived) == sorted(list(range(10)) * 2)
        assert plan.stats.duplicated == 10

    def test_benign_plan_matches_plain_channel(self):
        sim = Simulator()
        plain = ControlChannel(
            sim, network_delay=ConstantDelayModel(0.01), rng=random.Random(3)
        )
        faulty = FaultyChannel(
            sim,
            FaultPlan(FaultSpec(), seed=7),
            network_delay=ConstantDelayModel(0.01),
            rng=random.Random(3),
        )
        delays_plain = [plain.send(lambda: None, key="k") for _ in range(20)]
        delays_faulty = [faulty.send(lambda: None, key="k") for _ in range(20)]
        assert delays_plain == delays_faulty

    def test_duplicates_stay_fifo(self):
        sim = Simulator()
        plan = FaultPlan(FaultSpec(duplicate_rate=1.0), seed=0)
        channel = FaultyChannel(
            sim, plan, network_delay=ConstantDelayModel(0.01), rng=random.Random(0)
        )
        order = []
        channel.send(lambda: order.append("a"), key="k")
        channel.send(lambda: order.append("b"), key="k")
        sim.run(until=1.0)
        assert order == ["a", "a", "b", "b"]


def build_world():
    instance = motivating_example()
    sim = Simulator()
    plane = build_dataplane(sim, instance.network, delay_scale=1.0)
    install_config(plane, instance)
    channel = ControlChannel(
        sim,
        network_delay=ConstantDelayModel(0.001),
        install_delay=ConstantDelayModel(0.01),
        rng=random.Random(0),
    )
    controller = Controller(sim, channel)
    for switch in plane.switches.values():
        controller.manage(switch)
    plane.inject_flow(instance.source, "h1", str(instance.destination), rate=1.0)
    return instance, sim, plane, controller


class TestLateFlowMods:
    """Satellite: a past ``execute_at`` is recorded, not silently clamped."""

    def test_switch_records_lateness(self):
        instance, sim, plane, controller = build_world()
        sim.run(until=5.0)
        xid = next_xid()
        controller.send_flow_mod(
            "v2",
            FlowModModify(
                xid=xid, rule_name="f", out_port=plane.port_of("v2", "v6"),
                execute_at=2.0,  # three seconds in the past on arrival
            ),
        )
        sim.run(until=10.0)
        applied = controller.apply_time("v2", xid)
        assert applied is not None
        # Fires on arrival (network latency past `now`), not at 2.0.
        assert applied == pytest.approx(5.001, abs=1e-6)
        lateness = controller.lateness("v2", xid)
        assert lateness == pytest.approx(3.001, abs=1e-6)

    def test_on_time_flowmod_not_marked_late(self):
        instance, sim, plane, controller = build_world()
        xid = next_xid()
        controller.send_flow_mod(
            "v2",
            FlowModModify(
                xid=xid, rule_name="f", out_port=plane.port_of("v2", "v6"),
                execute_at=5.0,
            ),
        )
        sim.run(until=10.0)
        assert controller.apply_time("v2", xid) == pytest.approx(5.0)
        assert controller.lateness("v2", xid) is None

    def test_trace_surfaces_late_nodes(self):
        # A control network slower than the shipping lead time: every
        # scheduled FlowMod arrives after its execution instant.
        instance = motivating_example()
        sim = Simulator()
        plane = build_dataplane(sim, instance.network, delay_scale=1.0)
        install_config(plane, instance)
        channel = ControlChannel(
            sim,
            network_delay=ConstantDelayModel(10.0),
            install_delay=ConstantDelayModel(0.01),
            rng=random.Random(0),
        )
        controller = Controller(sim, channel)
        for switch in plane.switches.values():
            controller.manage(switch)
        schedule = greedy_schedule(instance).schedule
        # Above the 20 s acknowledgement round trip: no spurious resend.
        trace = perform_resilient_update(
            controller, plane, instance, schedule,
            strategy="timed", time_unit=1.0, retry_timeout=30.0,
        )
        sim.run(until=60.0)
        assert trace.total_retries == 0
        assert set(trace.applied) == set(schedule.times)
        assert set(trace.late) == set(schedule.times)
        assert all(lateness > 0 for lateness in trace.late.values())


class TestFaultsAblation:
    def test_smoke_and_invariants(self):
        result = run_in_memory(
            "faults", {"severities": (0.0, 1.0), "instances_per_point": 2}
        )
        assert len(result.records) == 2 * 2 * 3
        assert result.oracle_ok

        benign = [r for r in result.records if r.severity == 0.0]
        assert all(r.completed and not r.aborted for r in benign)
        assert all(r.retries == 0 and r.rolled_back == 0 for r in benign)
        # Chronus on a perfect network never violates consistency.
        assert all(
            not r.violated for r in benign if r.scheme == "chronus"
        )
        # Completed runs carry an oracle verdict (the integer grid held).
        completed = [r for r in result.records if r.completed]
        assert all(r.verdict_ok is not None and not r.off_grid for r in completed)

    def test_deterministic(self):
        overrides = {"severities": (0.5,), "instances_per_point": 2}
        assert (
            run_in_memory("faults", overrides).records
            == run_in_memory("faults", overrides).records
        )

    def test_render_mentions_every_scheme(self):
        result = run_in_memory(
            "faults", {"severities": (0.0,), "instances_per_point": 1}
        )
        text = result.render()
        for scheme in ("chronus", "or", "tp"):
            assert scheme in text
        assert "oracle cross-check" in text

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_in_memory("faults", {"schemes": ("chronus", "nope")})
