"""Property-style tests for the fluid data plane (conservation, determinism)."""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.core.instance import random_instance
from repro.network.graph import Network
from repro.simulator import (
    BandwidthMonitor,
    DataSwitch,
    FlowRule,
    Match,
    PacketContext,
    Simulator,
    build_dataplane,
    dataplane,
)
from repro.simulator.dataplane import install_config
from repro.simulator.switch import HOST_PORT

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build(instance, delay_scale=1.0):
    sim = Simulator()
    plane = build_dataplane(sim, instance.network, delay_scale=delay_scale)
    install_config(plane, instance)
    return sim, plane


class TestConservation:
    @given(
        count=st.integers(min_value=3, max_value=10),
        seed=st.integers(min_value=0, max_value=2_000),
        rate=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=25, **COMMON)
    def test_steady_state_delivers_injected_rate(self, count, seed, rate):
        """Flow in equals flow out once the pipeline fills."""
        instance = random_instance(count, seed=seed)
        sim, plane = build(instance)
        plane.inject_flow(
            instance.source, "h", str(instance.destination), rate=rate
        )
        sim.run(until=instance.old_path_delay + 2.0)
        assert plane.switch(instance.destination).delivered == pytest.approx(rate)
        assert plane.total_blackholed() == 0.0

    @given(
        count=st.integers(min_value=3, max_value=8),
        seed=st.integers(min_value=0, max_value=2_000),
    )
    @settings(max_examples=15, **COMMON)
    def test_stopping_the_flow_drains_the_network(self, count, seed):
        instance = random_instance(count, seed=seed)
        sim, plane = build(instance)
        context = plane.inject_flow(
            instance.source, "h", str(instance.destination), rate=1.0
        )
        sim.run(until=instance.old_path_delay + 1.0)
        plane.switch(instance.source).inject(context, 0.0)
        sim.run(until=2 * instance.old_path_delay + 3.0)
        assert plane.switch(instance.destination).delivered == 0.0
        assert all(link.utilization == 0.0 for link in plane.links.values())


class TestDeterminism:
    def test_identical_runs_identical_counters(self):
        instance = random_instance(8, seed=11)

        def run():
            sim, plane = build(instance)
            plane.inject_flow(instance.source, "h", str(instance.destination), 1.0)
            monitor = BandwidthMonitor(plane, interval=0.5)
            monitor.start()
            sim.run(until=9.0)
            return [
                (link, plane.links[link].byte_counter()) for link in sorted(plane.links)
            ]

        assert run() == run()


class TestMonitorMethodology:
    def test_bandwidth_equals_counter_delta_over_interval(self):
        """The Fig. 6 measurement methodology, verified against ground truth."""
        instance = random_instance(5, seed=2)
        sim, plane = build(instance)
        monitor = BandwidthMonitor(plane, interval=2.0)
        monitor.start()
        plane.inject_flow(instance.source, "h", str(instance.destination), 3.0)
        sim.run(until=8.5)
        first_link = (instance.old_path[0], instance.old_path[1])
        samples = monitor.series[first_link]
        # After the first interval the link runs at the injected rate.
        assert samples[-1].mbps == pytest.approx(3.0)
        # Counter delta over the window matches rate * time.
        link = plane.links[first_link]
        assert link.byte_counter(8.0) - link.byte_counter(6.0) == pytest.approx(6.0)

    def test_peak_series_takes_max_across_links(self):
        instance = random_instance(5, seed=3)
        sim, plane = build(instance)
        monitor = BandwidthMonitor(plane, interval=1.0)
        monitor.start()
        plane.inject_flow(instance.source, "h", str(instance.destination), 2.0)
        sim.run(until=6.0)
        peaks = monitor.peak_series()
        assert peaks
        assert max(sample.mbps for sample in peaks) == pytest.approx(2.0)

    def test_monitor_start_twice_rejected(self):
        instance = random_instance(4, seed=4)
        sim, plane = build(instance)
        monitor = BandwidthMonitor(plane, interval=1.0)
        monitor.start()
        with pytest.raises(RuntimeError):
            monitor.start()

    def test_invalid_interval_rejected(self):
        instance = random_instance(4, seed=5)
        sim, plane = build(instance)
        with pytest.raises(ValueError):
            BandwidthMonitor(plane, interval=0.0)


# --- delta re-forwarding == the full pass --------------------------------

#: Hypothesis' explain phase trips an internal assertion on the flat-mapped
#: step lists, hiding the shrunk counterexample; everything else stays on.
NO_EXPLAIN = [phase for phase in Phase if phase is not Phase.explain]


class FullPassSwitch(DataSwitch):
    """The oracle: every arrival re-forwards everything, as a table change does."""

    def receive(self, context, rate):
        self._forwarded_version = None  # pretend the table moved
        super().receive(context, rate)


PORTS = st.sampled_from([None, HOST_PORT, 1, 2, 3, 9])  # None drops, 9 is never attached
TAGS = st.sampled_from([None, 1, 2])
RULES = st.builds(
    dict,
    match=st.builds(
        Match,
        in_port=st.sampled_from([None, HOST_PORT, 1]),
        src_prefix=st.sampled_from(["*", "h1", "h2"]),
        dst_prefix=st.just("d"),
        tag=TAGS,
    ),
    out_port=PORTS,
    set_tag=TAGS,
    priority=st.integers(min_value=0, max_value=2),
)
SWITCH = st.sampled_from([0, 0, 0, 1, 1, 2, 3])  # mostly upstream, where streams start
SOURCE = st.sampled_from(["h1", "h2"])
STREAM_TAG = st.sampled_from([None, None, 1])
RATES = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7])  # sums that depend on their order


def steps_on(switch, source, tag):
    """One step: a rate change (likeliest), a table change, or time passing."""
    inject = st.tuples(st.just("inject"), switch, source, tag, RATES)
    return st.one_of(
        inject,
        inject,
        st.tuples(st.just("add"), switch, RULES),
        st.tuples(st.just("modify"), switch, st.integers(min_value=0), PORTS, TAGS),
        st.tuples(st.just("delete"), switch, st.integers(min_value=0)),
        st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
    )


#: Steps that keep hitting one switch and one stream -- stop it, change the
#: table under it, restart it -- which scattered steps almost never do.
BURSTS = st.tuples(SWITCH, SOURCE, STREAM_TAG).flatmap(
    lambda focus: st.lists(
        steps_on(*(st.just(value) for value in focus)), min_size=3, max_size=8
    )
)
PROGRAMS = st.lists(
    st.one_of(steps_on(SWITCH, SOURCE, STREAM_TAG).map(lambda step: [step]), BURSTS),
    min_size=1,
    max_size=10,
).map(lambda chunks: [step for chunk in chunks for step in chunk])


@st.composite
def small_planes(draw):
    """A DAG of 2-4 switches (no loop can feed a stream back into itself)."""
    size = draw(st.integers(min_value=2, max_value=4))
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    delays = draw(st.lists(st.integers(1, 3), min_size=len(chosen), max_size=len(chosen)))
    network = Network()
    for index in range(size):
        network.add_switch(f"s{index}")
    for (i, j), delay in zip(sorted(chosen), delays):
        network.add_link(f"s{i}", f"s{j}", capacity=10.0, delay=delay)
    return network


class World:
    """One plane driven by the shared step list."""

    def __init__(self, network, switch_class):
        self.sim = Simulator()
        with mock.patch.object(dataplane, "DataSwitch", switch_class):
            self.plane = build_dataplane(self.sim, network, delay_scale=0.5)
        self.switches = [self.plane.switch(name) for name in sorted(network.switches)]
        self.events = 0
        self.rule_names = 0
        # Something to forward with from the start: every switch sends d out
        # of its first port, the last one delivers.
        for switch in self.switches:
            self.add(switch, dict(
                match=Match(dst_prefix="d"),
                out_port=1 if switch is not self.switches[-1] else HOST_PORT,
            ))

    def add(self, switch, fields):
        self.rule_names += 1
        switch.table.add(FlowRule(name=f"r{self.rule_names}", **fields))
        switch.on_table_changed()

    def apply(self, step):
        kind = step[0]
        if kind == "run":
            self.events += self.sim.run(until=self.sim.now + step[1])
            return
        switch = self.switches[step[1] % len(self.switches)]
        if kind == "inject":
            _, _, src, tag, rate = step
            switch.inject(PacketContext(HOST_PORT, src, "d", tag), rate)
        elif kind == "add":
            self.add(switch, step[2])
        elif switch.table.rules:
            rule = switch.table.rules[step[2] % len(switch.table.rules)]
            if kind == "modify":
                switch.table.modify(rule.name, out_port=step[3], set_tag=step[4])
            else:
                switch.table.delete(rule.name)
            switch.on_table_changed()

    def state(self):
        return {
            "now": self.sim.now,
            "events": self.events,
            "pending": len(self.sim._queue),
            "links": {
                link.name: (
                    dict(link._rates),
                    [(s.time, s.rate) for s in link.utilization_timeline()],
                    link.byte_counter(),
                )
                for link in self.plane.links.values()
            },
            "rates": [(s.delivered, s.blackholed) for s in self.switches],
            "inputs": [list(s._in_rates.items()) for s in self.switches],
            "volumes": [
                volume
                for s in self.switches
                for volume in (s.dropped_volume(), s.delivered_volume())
            ],
        }


class TestDeltaForwardingEqualsFullPass:
    @given(network=small_planes(), steps=PROGRAMS)
    @settings(max_examples=250, phases=NO_EXPLAIN, **COMMON)
    def test_every_step_matches_the_full_pass_bit_for_bit(self, network, steps):
        """Rates, breakpoints, counters, volumes and event counts: all equal."""
        delta = World(network, DataSwitch)
        oracle = World(network, FullPassSwitch)
        for step in [*steps, ("run", 10.0)]:
            delta.apply(step)
            oracle.apply(step)
            assert delta.state() == oracle.state(), step

    @given(network=small_planes(), steps=PROGRAMS)
    @settings(max_examples=250, phases=NO_EXPLAIN, **COMMON)
    def test_a_full_pass_after_any_step_is_a_no_op(self, network, steps):
        """``reevaluate()`` finds nothing to fix: no event, no rate, no breakpoint."""
        world = World(network, DataSwitch)
        for step in [*steps, ("run", 10.0)]:
            world.apply(step)
            before = world.state()
            for switch in world.switches:
                switch.reevaluate()
            after = world.state()
            # The extra pass accrues the volume integrals at an extra instant,
            # which may move their last bits; everything else is untouched.
            assert after.pop("volumes") == pytest.approx(before.pop("volumes")), step
            assert after == before, step

    def test_table_moved_without_notice_is_seen_by_the_next_arrival(self):
        """``receive`` falls back to the full pass when the table's version moved."""
        network = Network()
        for name in ("s0", "s1", "s2"):
            network.add_switch(name)
        network.add_link("s0", "s1", capacity=10.0, delay=1)
        network.add_link("s0", "s2", capacity=10.0, delay=1)
        world = World(network, DataSwitch)
        s0 = world.switches[0]
        s0.inject(PacketContext(HOST_PORT, "h1", "d"), 1.0)
        s0.inject(PacketContext(HOST_PORT, "h2", "d"), 2.0)
        assert world.plane.link("s0", "s1").utilization == 3.0
        s0.table.modify("r1", out_port=2)  # nobody calls on_table_changed()
        s0.inject(PacketContext(HOST_PORT, "h2", "d"), 2.5)
        # Both streams moved, not just the one whose rate changed.
        assert world.plane.link("s0", "s1").utilization == 0.0
        assert world.plane.link("s0", "s2").utilization == 3.5
