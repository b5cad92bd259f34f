"""Unit tests for the discrete-event fluid data plane."""

import pytest

from repro.core.instance import motivating_example
from repro.simulator import (
    BandwidthMonitor,
    DataLink,
    FlowRule,
    FlowTable,
    Match,
    PacketContext,
    Simulator,
    build_dataplane,
)
from repro.simulator.dataplane import install_config
from repro.simulator.events import EventQueue
from repro.simulator.switch import HOST_PORT


class TestEventQueue:
    def test_fifo_at_equal_times(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append("a"))
        queue.push(1.0, lambda: order.append("b"))
        queue.pop().callback()
        queue.pop().callback()
        assert order == ["a", "b"]

    def test_cancellation(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.cancel(handle)
        assert queue.pop() is None
        assert not queue

    def test_len_and_bool_ignore_cancelled_entries(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(2.0, lambda: None)
        assert len(queue) == 2 and queue
        queue.cancel(first)
        assert len(queue) == 1 and queue
        assert queue.peek_time() == 2.0
        queue.cancel(second)
        assert len(queue) == 0 and not queue

    def test_heap_entries_never_compare_events(self):
        # Equal times are decided by the sequence number, so the handles
        # (which define no ordering) are never reached by the heap.
        queue = EventQueue()
        handles = [queue.push(1.0, lambda: None) for _ in range(20)]
        assert [queue.pop() for _ in handles] == handles


class TestSimulator:
    def test_runs_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append(2.0))
        sim.schedule_at(1.0, lambda: seen.append(1.0))
        sim.run()
        assert seen == [1.0, 2.0]
        assert sim.now == 2.0

    def test_until_advances_clock(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: sim.schedule_after(1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]

    def test_equal_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            # Scheduled for the same instant from inside it: after everything
            # already queued for that instant.
            sim.schedule_after(0.0, lambda: seen.append("nested"))

        sim.schedule_at(1.0, first)
        for index in range(10):
            sim.schedule_at(1.0, lambda index=index: seen.append(index))
        assert sim.run() == 12
        assert seen == ["first", *range(10), "nested"]

    def test_cancelled_head_is_skipped_without_passing_until(self):
        sim = Simulator()
        seen = []
        early = sim.schedule_at(1.0, lambda: seen.append("early"))
        beyond = sim.schedule_at(3.0, lambda: seen.append("beyond"))
        sim.schedule_at(5.0, lambda: seen.append("late"))
        sim.cancel(early)
        sim.cancel(beyond)
        assert sim.run(until=2.0) == 0
        assert sim.now == 2.0 and seen == []
        assert sim.run(until=4.0) == 0
        assert sim.now == 4.0
        assert sim.run() == 1
        assert sim.now == 5.0 and seen == ["late"]

    def test_max_events_allows_a_run_that_ends_on_the_limit(self):
        # Regression: the valve used to fire whenever processed == max_events,
        # even when those events drained the queue or the next one was not due.
        sim = Simulator()
        seen = []
        for time in (1.0, 2.0, 3.0):
            sim.schedule_at(time, lambda time=time: seen.append(time))
        assert sim.run(max_events=3) == 3
        for time in (4.0, 5.0, 9.0):
            sim.schedule_at(time, lambda time=time: seen.append(time))
        assert sim.run(until=6.0, max_events=2) == 2  # 9.0 is not due
        assert seen == [1.0, 2.0, 3.0, 4.0, 5.0] and sim.now == 6.0

    def test_max_events_raises_only_when_a_further_event_is_due(self):
        sim = Simulator()
        seen = []
        for time in (1.0, 2.0, 3.0, 4.0):
            sim.schedule_at(time, lambda time=time: seen.append(time))
        with pytest.raises(RuntimeError, match="exceeded 3 events"):
            sim.run(max_events=3)
        assert seen == [1.0, 2.0, 3.0]  # the fourth stays queued, unfired
        assert sim.run() == 1
        assert seen == [1.0, 2.0, 3.0, 4.0]


class TestFlowTable:
    def test_priority_wins(self):
        table = FlowTable()
        table.add(FlowRule("low", Match(dst_prefix="d"), out_port=1, priority=0))
        table.add(FlowRule("high", Match(dst_prefix="d", tag=2), out_port=2, priority=5))
        tagged = PacketContext(in_port=1, src_prefix="s", dst_prefix="d", tag=2)
        plain = PacketContext(in_port=1, src_prefix="s", dst_prefix="d")
        assert table.lookup(tagged).name == "high"
        assert table.lookup(plain).name == "low"

    def test_miss_returns_none(self):
        table = FlowTable()
        context = PacketContext(in_port=1, src_prefix="s", dst_prefix="d")
        assert table.lookup(context) is None

    def test_modify_rewrites_action(self):
        table = FlowTable()
        table.add(FlowRule("r", Match(dst_prefix="d"), out_port=1))
        table.modify("r", out_port=7)
        assert table.rules[0].out_port == 7
        assert table.occupancy == 1

    def test_delete(self):
        table = FlowTable()
        table.add(FlowRule("r", Match(), out_port=1))
        table.delete("r")
        assert table.occupancy == 0
        with pytest.raises(KeyError):
            table.delete("r")

    def test_duplicate_rule_name_rejected(self):
        table = FlowTable()
        table.add(FlowRule("r", Match(), out_port=1))
        with pytest.raises(ValueError):
            table.add(FlowRule("r", Match(), out_port=2))

    def test_in_port_matching(self):
        table = FlowTable()
        table.add(FlowRule("host", Match(in_port=HOST_PORT), out_port=3))
        from_host = PacketContext(in_port=HOST_PORT, src_prefix="s", dst_prefix="d")
        from_wire = PacketContext(in_port=2, src_prefix="s", dst_prefix="d")
        assert table.lookup(from_host) is not None
        assert table.lookup(from_wire) is None

    def test_render_table2_layout(self):
        table = FlowTable()
        table.add(FlowRule("r", Match(dst_prefix="v12"), out_port=1))
        rows = table.render()
        assert "InPort" in rows[0] and "Output:1" in rows[1]


class TestDataPlane:
    def build(self):
        instance = motivating_example()
        sim = Simulator()
        plane = build_dataplane(sim, instance.network, delay_scale=1.0)
        install_config(plane, instance)
        return instance, sim, plane

    def test_steady_state_flow_delivery(self):
        instance, sim, plane = self.build()
        plane.inject_flow("v1", "h1", "v6", rate=1.0)
        sim.run(until=10.0)
        assert plane.switch("v6").delivered == pytest.approx(1.0)
        assert plane.total_blackholed() == 0.0

    def test_rate_propagates_with_link_delays(self):
        instance, sim, plane = self.build()
        plane.inject_flow("v1", "h1", "v6", rate=1.0)
        sim.run(until=2.5)  # delay v1->..->v6 is 5 seconds
        assert plane.switch("v6").delivered == 0.0
        sim.run(until=5.5)
        assert plane.switch("v6").delivered == pytest.approx(1.0)

    def test_rule_change_reroutes_traffic(self):
        instance, sim, plane = self.build()
        plane.inject_flow("v1", "h1", "v6", rate=1.0)
        sim.run(until=10.0)
        switch = plane.switch("v2")
        switch.table.modify(instance.flow.name, out_port=plane.port_of("v2", "v6"))
        switch.on_table_changed()
        sim.run(until=20.0)
        assert plane.link("v2", "v6").utilization == pytest.approx(1.0)
        assert plane.link("v2", "v3").utilization == 0.0
        assert plane.switch("v6").delivered == pytest.approx(1.0)

    def test_byte_counters_integrate_rates(self):
        instance, sim, plane = self.build()
        plane.inject_flow("v1", "h1", "v6", rate=2.0)
        sim.run(until=11.0)
        link = plane.link("v1", "v2")
        # 2 Mbps since t=0 -> 20 Mbit by t=10.
        assert link.byte_counter(10.0) == pytest.approx(20.0)

    def test_monitor_measures_bandwidth(self):
        instance, sim, plane = self.build()
        monitor = BandwidthMonitor(plane, interval=1.0, links=[("v1", "v2")])
        monitor.start()
        plane.inject_flow("v1", "h1", "v6", rate=1.5)
        sim.run(until=5.5)
        series = monitor.link_series("v1", "v2")
        assert series
        assert series[-1].mbps == pytest.approx(1.5)

    def test_congested_seconds(self):
        instance, sim, plane = self.build()
        plane.inject_flow("v1", "h1", "v6", rate=1.0)
        plane.inject_flow("v1", "h2", "v6", rate=1.0)
        sim.run(until=4.0)
        assert plane.link("v1", "v2").congested_seconds() == pytest.approx(4.0)
        assert plane.link("v1", "v2").peak_utilization() == pytest.approx(2.0)


class TestPeakUtilizationWindow:
    """Regressions for ``peak_utilization(since)`` window clipping."""

    def build(self):
        instance = motivating_example()
        sim = Simulator()
        plane = build_dataplane(sim, instance.network, delay_scale=1.0)
        install_config(plane, instance)
        return instance, sim, plane

    def test_future_window_is_empty(self):
        """A window starting after `now` must report zero, not the final rate."""
        instance, sim, plane = self.build()
        plane.inject_flow("v1", "h1", "v6", rate=2.0)
        sim.run(until=5.0)
        link = plane.link("v1", "v2")
        assert link.utilization == pytest.approx(2.0)
        assert link.peak_utilization(since=10.0) == 0.0

    def test_straddling_interval_counts(self):
        """A rate set before `since` but still active inside the window counts."""
        instance, sim, plane = self.build()
        plane.inject_flow("v1", "h1", "v6", rate=1.5)  # breakpoint at t=0
        sim.run(until=8.0)
        link = plane.link("v1", "v2")
        # The t=0 segment straddles since=4 (it runs to `now`), so the
        # window [4, 8] sees the full 1.5 Mbps.
        assert link.peak_utilization(since=4.0) == pytest.approx(1.5)

    def test_window_excludes_finished_segments(self):
        """Segments that end before `since` stay out of the window."""
        instance, sim, plane = self.build()
        plane.inject_flow("v1", "h1", "v6", rate=3.0)
        sim.run(until=4.0)
        plane.switches["v1"].receive(
            PacketContext(in_port=HOST_PORT, src_prefix="h1", dst_prefix="v6"),
            rate=0.5,
        )
        sim.run(until=10.0)
        link = plane.link("v1", "v2")
        assert link.peak_utilization() == pytest.approx(3.0)  # full history
        assert link.peak_utilization(since=6.0) == pytest.approx(0.5)

    def test_exactly_now_window(self):
        instance, sim, plane = self.build()
        plane.inject_flow("v1", "h1", "v6", rate=1.0)
        sim.run(until=3.0)
        link = plane.link("v1", "v2")
        assert link.peak_utilization(since=3.0) == pytest.approx(1.0)


class TestMonitorStop:
    """Regression: the poll loop must stop rescheduling once stopped."""

    def build(self):
        instance = motivating_example()
        sim = Simulator()
        plane = build_dataplane(sim, instance.network, delay_scale=1.0)
        install_config(plane, instance)
        return instance, sim, plane

    def test_stop_drains_event_queue(self):
        instance, sim, plane = self.build()
        plane.inject_flow("v1", "h1", "v6", rate=1.0)
        monitor = BandwidthMonitor(plane, interval=1.0, links=[("v1", "v2")])
        monitor.start()
        sim.run(until=5.5)
        monitor.stop()
        # An open-ended run must now drain instead of polling forever and
        # tripping the max_events safety valve.
        processed = sim.run(max_events=50)
        assert processed < 50
        assert len(monitor.link_series("v1", "v2")) == 5

    def test_stop_is_idempotent_and_restartable(self):
        instance, sim, plane = self.build()
        monitor = BandwidthMonitor(plane, interval=1.0, links=[("v1", "v2")])
        monitor.start()
        sim.run(until=2.5)
        monitor.stop()
        monitor.stop()  # no-op
        sim.run(until=4.5)
        assert len(monitor.link_series("v1", "v2")) == 2  # nothing polled late
        monitor.start()  # allowed again after a stop
        sim.run(until=7.0)
        assert len(monitor.link_series("v1", "v2")) == 4

    def test_double_start_rejected(self):
        instance, sim, plane = self.build()
        monitor = BandwidthMonitor(plane, interval=1.0)
        monitor.start()
        with pytest.raises(RuntimeError):
            monitor.start()

    def test_restart_rebaselines_counters(self):
        """The first sample after a restart must not integrate the gap.

        Traffic keeps flowing while the monitor is stopped; ``start`` must
        re-read the byte counters so the gap's volume is not folded into
        the first post-restart interval's rate.
        """
        instance, sim, plane = self.build()
        plane.inject_flow("v1", "h1", "v6", rate=2.0)
        monitor = BandwidthMonitor(plane, interval=1.0, links=[("v1", "v2")])
        monitor.start()
        sim.run(until=3.5)
        monitor.stop()
        sim.run(until=8.0)  # 4.5 unmonitored seconds at 2 Mbps
        monitor.start()
        sim.run(until=10.5)
        series = monitor.link_series("v1", "v2")
        assert len(series) == 5  # 3 before the gap + 2 after
        # Every sample reads the steady rate; the 9 Mbit gap volume never
        # shows up as a spike.
        assert all(s.mbps == pytest.approx(2.0) for s in series)
        assert series[3].time == pytest.approx(9.0)

    def test_restart_after_rate_change_measures_new_rate(self):
        instance, sim, plane = self.build()
        plane.inject_flow("v1", "h1", "v6", rate=3.0)
        monitor = BandwidthMonitor(plane, interval=1.0, links=[("v1", "v2")])
        monitor.start()
        sim.run(until=2.5)
        monitor.stop()
        plane.switches["v1"].receive(
            PacketContext(in_port=HOST_PORT, src_prefix="h1", dst_prefix="v6"),
            rate=0.5,
        )
        sim.run(until=6.0)
        monitor.start()
        sim.run(until=8.5)
        series = monitor.link_series("v1", "v2")
        assert [s.mbps for s in series[:2]] == [pytest.approx(3.0)] * 2
        assert [s.mbps for s in series[-2:]] == [pytest.approx(0.5)] * 2
