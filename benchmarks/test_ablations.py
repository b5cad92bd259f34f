"""Ablation benchmarks for the design choices DESIGN.md calls out.

* greedy decision mode: the paper's Algorithm 3/4 machinery vs. the exact
  interval-tracker previews;
* Algorithm 4's backward walk vs. the exact forward revisit check;
* OR round minimisation: greedy maximal rounds vs. exact branch and bound;
* clock synchronisation accuracy vs. timed-update consistency (the Time4
  motivation: how much skew can Chronus' schedules tolerate?).
"""

import random

import pytest

from repro.analysis.timeseries import render_table
from repro.core.greedy import EXACT, PAPER, greedy_schedule
from repro.core.instance import motivating_example, random_instance
from repro.core.loops import creates_forwarding_loop, new_route_revisits
from repro.core.rounds import greedy_loop_free_rounds
from repro.core.trace import trace_schedule
from repro.updates.order_replacement import minimize_rounds

SEEDS = range(40)


class TestGreedyModeAblation:
    def test_paper_mode_vs_exact_mode(self, benchmark, once):
        def run():
            rows = []
            for seed in SEEDS:
                instance = random_instance(4 + seed % 9, seed=seed)
                exact = greedy_schedule(instance, mode=EXACT)
                paper = greedy_schedule(instance, mode=PAPER)
                rows.append(
                    (
                        exact.feasible,
                        paper.feasible,
                        exact.schedule.makespan,
                        paper.schedule.makespan,
                        trace_schedule(instance, paper.schedule).ok,
                    )
                )
            return rows

        rows = once(benchmark, run)
        exact_feasible = sum(r[0] for r in rows)
        paper_feasible = sum(r[1] for r in rows)
        paper_truthful = sum(r[1] == r[4] for r in rows)
        print()
        print(
            render_table(
                ["metric", "exact", "paper"],
                [
                    ["feasible instances", exact_feasible, paper_feasible],
                    ["avg makespan", _avg(r[2] for r in rows), _avg(r[3] for r in rows)],
                ],
                title="Ablation: greedy decision mode (40 random instances)",
            )
        )
        # Paper-mode claims must be truthful on at least the vast majority.
        assert paper_truthful >= len(rows) - 2
        # Exact mode never schedules fewer instances than the heuristics.
        assert exact_feasible >= paper_feasible


class TestLoopCheckAblation:
    def test_backward_walk_vs_exact_forward(self, benchmark, once):
        def run():
            checked = disagreements = missed = 0
            for seed in SEEDS:
                instance = random_instance(4 + seed % 9, seed=1000 + seed)
                for node in instance.switches_to_update:
                    checked += 1
                    backward = creates_forwarding_loop(instance, {}, node, 0)
                    forward = new_route_revisits(instance, {}, node, 0) is not None
                    if backward != forward:
                        disagreements += 1
                        if forward and not backward:
                            missed += 1
            return checked, disagreements, missed

        checked, disagreements, missed = once(benchmark, run)
        print()
        print(
            f"Ablation: Algorithm 4 backward walk vs exact forward check -- "
            f"{checked} decisions, {disagreements} disagreements, "
            f"{missed} loops only the forward check caught"
        )
        # The backward walk checks only the immediate next hop, so it may
        # miss multi-hop revisits, but it must agree most of the time.
        assert disagreements <= checked * 0.2


class TestOrRoundsAblation:
    def test_greedy_vs_exact_rounds(self, benchmark, once):
        def run():
            greedy_total = exact_total = proven = 0
            for seed in range(20):
                instance = random_instance(8, seed=seed)
                greedy_rounds = len(greedy_loop_free_rounds(instance))
                result = minimize_rounds(instance, time_budget=2.0)
                greedy_total += greedy_rounds
                exact_total += result.round_count
                proven += result.proven
            return greedy_total, exact_total, proven

        greedy_total, exact_total, proven = once(benchmark, run)
        print()
        print(
            f"Ablation: OR rounds -- greedy {greedy_total} vs exact "
            f"{exact_total} total rounds over 20 instances ({proven} proven)"
        )
        assert exact_total <= greedy_total


class TestClockSkewAblation:
    def test_consistency_degrades_with_clock_skew(self, benchmark, once):
        """How much Time4 synchronisation error can the schedules take?

        A Chronus schedule separates conflicting updates by at least one
        time unit, so skew well below half a unit must stay consistent,
        while skew approaching a full unit may reorder updates.
        """
        from repro.controller import (
            ConstantDelayModel,
            ControlChannel,
            Controller,
            perform_resilient_update,
            synchronized_clocks,
        )
        from repro.simulator import Simulator, build_dataplane
        from repro.simulator.dataplane import install_config

        def run_with_skew(max_offset: float, seed: int) -> bool:
            instance = motivating_example()
            sim = Simulator()
            plane = build_dataplane(sim, instance.network, delay_scale=1.0)
            install_config(plane, instance)
            rng = random.Random(seed)
            channel = ControlChannel(
                sim, ConstantDelayModel(0.001), ConstantDelayModel(0.01), rng=rng
            )
            clocks = synchronized_clocks(
                instance.network.switches, max_offset=max_offset, rng=rng
            )
            controller = Controller(sim, channel, clocks)
            for switch in plane.switches.values():
                controller.manage(switch)
            plane.inject_flow(instance.source, "h1", "v6", rate=1.0)
            sim.run(until=3.0)
            schedule = greedy_schedule(instance).schedule
            perform_resilient_update(
                controller, plane, instance, schedule,
                strategy="timed", time_unit=1.0, start_at=4.0,
            )
            sim.run(until=25.0)
            peak = max(plane.links[l].peak_utilization() for l in plane.links)
            return peak <= 1.0 + 1e-9

        def run():
            rows = []
            for max_offset in (1e-6, 1e-3, 0.1, 0.45, 0.9):
                clean = sum(run_with_skew(max_offset, seed) for seed in range(5))
                rows.append([f"{max_offset:g}", f"{clean}/5"])
            return rows

        rows = once(benchmark, run)
        print()
        print(
            render_table(
                ["max clock offset (s)", "consistent runs"],
                rows,
                title="Ablation: Time4 synchronisation accuracy (1 s time unit)",
            )
        )
        # Microsecond synchronisation (Time4's regime) is always safe.
        assert rows[0][1] == "5/5"
        assert rows[1][1] == "5/5"


class TestSlackCapacityAblation:
    def test_swan_slack_condition(self, benchmark, once):
        """SWAN's observation, cited in Section VI: with enough slack
        capacity on every link, a congestion-free sequence always exists.

        Sweeping the capacity factor on the adversarial permutation
        workload: at factor >= 2 every link can hold old and new flow
        simultaneously, so feasibility must reach 100%; at factor 1 (the
        tight regime Chronus targets) a large share of instances has no
        congestion-free schedule at all.
        """

        def run():
            rows = []
            for factor in (1.0, 1.5, 2.0, 3.0):
                feasible = 0
                total = 20
                for seed in range(total):
                    instance = random_instance(
                        10, seed=3_000 + seed, capacity=factor, demand=1.0
                    )
                    result = greedy_schedule(instance)
                    ok = result.feasible and trace_schedule(
                        instance, result.schedule
                    ).ok
                    feasible += ok
                rows.append([f"{factor:g}x", f"{100 * feasible / total:.0f}%"])
            return rows

        rows = once(benchmark, run)
        print()
        print(
            render_table(
                ["capacity factor", "feasible instances"],
                rows,
                title="Ablation: slack capacity (SWAN condition) vs feasibility",
            )
        )
        by_factor = dict((row[0], row[1]) for row in rows)
        assert by_factor["2x"] == "100%"
        assert by_factor["3x"] == "100%"
        assert by_factor["1x"] != "100%"


class TestMultiFlowExtension:
    def test_sequential_composition_stays_consistent(self, benchmark, once):
        """Extension bench: several flows on one fabric, scheduled jointly."""
        from repro.core.instance import instance_from_paths
        from repro.core.multiflow import MultiFlowUpdate, greedy_multiflow
        from repro.network.graph import Network

        def run():
            net = Network()
            # Three flows share a 2-capacity spine; each detours via its own
            # side path with slack delays.
            for src, dst, cap, delay in [
                ("s1", "m", 3.0, 1), ("s2", "m", 3.0, 1), ("s3", "m", 3.0, 1),
                ("m", "t", 3.0, 1),
                ("s1", "d1", 3.0, 2), ("d1", "m", 3.0, 2),
                ("s2", "d2", 3.0, 2), ("d2", "m", 3.0, 2),
                ("s3", "d3", 3.0, 2), ("d3", "m", 3.0, 2),
            ]:
                net.add_link(src, dst, capacity=cap, delay=delay)
            instances = [
                instance_from_paths(
                    net,
                    [f"s{i}", "m", "t"],
                    [f"s{i}", f"d{i}", "m", "t"],
                    demand=1.0,
                    flow_name=f"f{i}",
                )
                for i in (1, 2, 3)
            ]
            update = MultiFlowUpdate(network=net, instances=instances)
            return greedy_multiflow(update)

        result = once(benchmark, run)
        print()
        print(
            f"Multi-flow extension: {len(result.results)} flows, joint "
            f"makespan {result.makespan}, consistent: {result.feasible}"
        )
        assert result.feasible


class TestApproximationAblation:
    def test_tree_walk_makespan_vs_greedy_and_opt(self, benchmark, once):
        """The paper's future-work direction: approximation quality.

        The tree algorithm's witness schedule updates one branch crossing at
        a time and lets each settle -- a simple, provably safe strategy whose
        makespan we compare against the greedy and the exact optimum.
        """
        from repro.core.optimal import optimal_schedule
        from repro.core.tree import check_update_feasibility

        def run():
            rows = []
            for seed in range(15):
                instance = random_instance(7, seed=2_000 + seed)
                tree = check_update_feasibility(instance)
                if not tree.feasible:
                    continue
                greedy = greedy_schedule(instance)
                opt = optimal_schedule(instance, time_budget=5)
                if opt.schedule is None:
                    continue
                rows.append(
                    (tree.schedule.makespan, greedy.schedule.makespan, opt.makespan)
                )
            return rows

        rows = once(benchmark, run)
        tree_avg = _avg(r[0] for r in rows)
        greedy_avg = _avg(r[1] for r in rows)
        opt_avg = _avg(r[2] for r in rows)
        print()
        print(
            render_table(
                ["scheduler", "avg makespan"],
                [["tree walk", tree_avg], ["greedy", greedy_avg], ["OPT", opt_avg]],
                title=f"Ablation: approximation gap ({len(rows)} feasible instances)",
            )
        )
        for tree_span, greedy_span, opt_span in rows:
            assert opt_span <= greedy_span  # OPT is optimal
            assert tree_span >= opt_span    # and a valid upper bound
        # The settle-everything walk pays at most a small constant factor.
        assert tree_avg <= 4 * max(opt_avg, 1)


class TestStragglerAblation:
    def test_single_straggler_switch(self, benchmark, once):
        """A switch whose clock lags applies its scheduled update late.

        With a lag well under the schedule's one-time-unit separation the
        update stays consistent; large lags reorder updates and break the
        guarantee -- quantifying how production deployments must bound
        switch-side scheduling error.
        """
        from repro.controller import (
            ConstantDelayModel,
            ControlChannel,
            Controller,
            perform_resilient_update,
        )
        from repro.controller.clock import SwitchClock
        from repro.core.instance import motivating_example
        from repro.simulator import Simulator, build_dataplane
        from repro.simulator.dataplane import install_config

        def run_with_straggler(lag: float) -> bool:
            instance = motivating_example()
            sim = Simulator()
            plane = build_dataplane(sim, instance.network, delay_scale=1.0)
            install_config(plane, instance)
            channel = ControlChannel(
                sim, ConstantDelayModel(0.001), ConstantDelayModel(0.01),
                rng=random.Random(1),
            )
            # v2 (the first update) lags behind true time by `lag` seconds.
            clocks = {
                name: SwitchClock(-lag if name == "v2" else 0.0)
                for name in instance.network.switches
            }
            controller = Controller(sim, channel, clocks)
            for switch in plane.switches.values():
                controller.manage(switch)
            plane.inject_flow(instance.source, "h1", "v6", rate=1.0)
            sim.run(until=3.0)
            schedule = greedy_schedule(instance).schedule
            perform_resilient_update(
                controller, plane, instance, schedule,
                strategy="timed", time_unit=1.0, start_at=4.0,
            )
            sim.run(until=25.0)
            peak = max(plane.links[l].peak_utilization() for l in plane.links)
            return peak <= 1.0 + 1e-9

        def run():
            return [(lag, run_with_straggler(lag)) for lag in (0.0, 0.2, 0.5, 1.5, 3.0)]

        rows = once(benchmark, run)
        print()
        print(
            render_table(
                ["straggler lag (s)", "within capacity"],
                [[f"{lag:g}", str(ok)] for lag, ok in rows],
                title="Ablation: one straggler switch (1 s time unit)",
            )
        )
        assert rows[0][1] and rows[1][1]  # small lags are safe


def _avg(values) -> float:
    values = list(values)
    return round(sum(values) / len(values), 2) if values else 0.0
