"""Integration tests: every experiment module runs and shows the paper's shape.

Tiny scales keep the suite fast; the assertions target the *direction* of
each result (who wins), not absolute numbers.
"""

import hashlib
import json

import pytest

from repro.core.instance import segmented_instance
from repro.experiments import fig6, fig10
from repro.experiments.sweep import (
    local_reroute_share,
    mixed_instance,
    run_instance,
)
from repro.pipeline import RunContext, run_in_memory
from repro.updates import get_planner
from tests.test_resilient import pending_barriers

TRIO = ("chronus", "or", "opt")


class TestTable2:
    def test_tables_render(self):
        result = run_in_memory("table2", {"switch_count": 8, "seed": 2})
        text = result.render()
        assert "InPort" in text
        assert "Output" in text
        # The two-phase transition keeps both rule versions resident.
        assert len(result.source_rows_two_phase) > len(result.source_rows)


class TestFig6:
    def test_or_congests_while_chronus_stays_within_capacity(self):
        result = run_in_memory("fig6", {"duration": 25.0})
        assert result.peaks["chronus"] <= result.capacity + 1e-6
        assert result.peaks["or"] > result.capacity + 1e-6
        assert "Fig. 6" in result.render()

    def test_series_cover_all_schemes(self):
        result = run_in_memory("fig6", {"duration": 12.0})
        assert set(result.series) == {"chronus", "tp", "or"}
        assert all(points for points in result.series.values())

    @pytest.mark.parametrize("scheme", fig6.SCHEMES)
    def test_fault_severity_resolves_every_update(self, scheme):
        """Over a lossy channel the run retries, and whatever is still
        unacknowledged at the horizon is aborted -- no barrier waiter leaks
        (the plain executors this scenario used to call leaked them)."""
        params = fig6.SCENARIO.defaults
        _, testbed, trace = fig6._run_scheme(
            scheme, fig6._instance(params), params["seed"], params["duration"],
            params["update_at"], params["delay_scale"], fault_severity=1.0,
        )
        assert trace.finished_at is not None
        assert trace.completed != trace.aborted
        assert pending_barriers(testbed.controller) == 0

    def test_record_reports_the_outcome_only_under_faults(self):
        item = {"key": "or", "scheme": "or"}
        params = fig6.SCENARIO.defaults
        plain = fig6.SCENARIO.evaluate(item, params)
        faulted = fig6.SCENARIO.evaluate(item, {**params, "fault_severity": 1.0})
        assert set(plain) == {"key", "scheme", "series", "peak", "capacity"}
        assert set(faulted) - set(plain) == {"completed", "aborted", "retries"}
        assert faulted["completed"] != faulted["aborted"]
        assert faulted["retries"] > 0


class TestSweep:
    def test_mixed_workload_is_reproducible(self):
        a = mixed_instance(20, seed=9)
        b = mixed_instance(20, seed=9)
        assert a.new_path == b.new_path

    @pytest.mark.parametrize("count", range(3, 10))
    def test_small_mixed_instances_all_build(self, count, engine_goldens):
        # A reversed segment used to swallow the destination on short
        # chains (a bare ValueError for most seeds below 8 switches).
        # Every seed must now build -- UpdateInstance validates both paths
        # -- and every instance that built before is bit-identical.
        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()

        frozen = engine_goldens["mixed_instances"][str(count)]
        built_before = {}
        for seed in range(200):
            instance = mixed_instance(count, seed)
            assert len(instance.network) == count
            assert instance.new_path[-1] == instance.old_path[-1]
            if seed in frozen["seeds"]:
                links = sorted(
                    (l.src, l.dst, l.capacity, l.delay) for l in instance.network.links
                )
                paths = [list(instance.old_path), list(instance.new_path)]
                built_before[str(seed)] = digest(
                    json.dumps([*paths, links, instance.demand])
                )
        assert len(built_before) == frozen["built"]
        assert digest(json.dumps(built_before, sort_keys=True)) == frozen["sha256"]

    def test_local_share_decreases_with_size(self):
        assert local_reroute_share(10) > local_reroute_share(60)
        assert 0.0 < local_reroute_share(1000) <= 1.0

    def test_run_instance_produces_all_schemes(self, fig1_instance):
        outcomes = run_instance(fig1_instance, 1, {"schemes": TRIO, "opt_budget": 5.0})
        assert set(outcomes) == {"chronus", "or", "opt"}
        assert outcomes["chronus"]["congestion_free"]
        assert outcomes["opt"]["congestion_free"]

    def test_run_instance_without_verify_leaves_flag_unset(self, fig1_instance):
        outcomes = run_instance(fig1_instance, 1, {"schemes": TRIO, "opt_budget": 5.0})
        assert all(o["verifier_agrees"] is None for o in outcomes.values())

    def test_run_instance_verify_flags_conformance(self, fig1_instance):
        outcomes = run_instance(
            fig1_instance, 1, {"schemes": TRIO, "opt_budget": 5.0, "verify": True}
        )
        assert all(o["verifier_agrees"] is True for o in outcomes.values())

    def test_sweep_threads_verify_flag(self):
        records = run_in_memory(
            "sweep",
            {
                "switch_counts": (10,),
                "instances_per_size": 3,
                "schemes": ("chronus", "or"),
                "opt_node_budget": 5_000,
                "or_node_budget": 5_000,
                "verify": True,
            },
        ).records
        flags = [
            outcome["verifier_agrees"]
            for record in records
            for outcome in record["outcomes"].values()
        ]
        assert flags and all(flag is True for flag in flags)


class TestFig7:
    def test_chronus_at_least_matches_or(self):
        result = run_in_memory(
            "fig7",
            {"switch_counts": (10, 30), "instances_per_size": 4, "opt_budget": 0.3},
        )
        for index in range(2):
            assert (
                result.percentages["chronus"][index]
                >= result.percentages["or"][index]
            )
        assert "Fig. 7" in result.render()


class TestFig8:
    def test_chronus_congests_fewer_timed_links(self):
        result = run_in_memory("fig8", {"switch_counts": (30,), "instances_per_size": 5})
        assert result.congested["chronus"][0] <= result.congested["or"][0]
        assert "Fig. 8" in result.render()


class TestFig9:
    def test_chronus_saves_over_half_the_rules(self):
        result = run_in_memory(
            "fig9", {"switch_counts": (100, 300), "instances_per_size": 4}
        )
        for count in (100, 300):
            assert result.chronus_boxes[count].mean < 0.5 * result.tp_means[count]
        assert "Fig. 9" in result.render()

    def test_matches_paper_magnitudes_at_300(self):
        result = run_in_memory(
            "fig9", {"switch_counts": (300,), "instances_per_size": 6}
        )
        # Paper: ~190 (Chronus) vs ~596 (TP) rule operations.
        assert 150 <= result.chronus_boxes[300].mean <= 230
        assert 540 <= result.tp_means[300] <= 660


class TestFig10:
    def test_chronus_fast_exact_solvers_cut_off(self):
        result = run_in_memory("fig10", {"switch_counts": (60, 600), "cutoff": 1.0})
        assert result.seconds["chronus"][0] is not None
        assert result.seconds["chronus"][1] is not None
        # OPT no longer runs into the cutoff at 600 switches: on this local
        # reroute its loop-freedom bound proves Chronus' schedule optimal at
        # the root (EXPERIMENTS.md, Fig. 10 and faithfulness note 5).
        assert result.seconds["opt"][1] is not None
        instance = segmented_instance(600, seed=4 * 31 + 600, segments=fig10._segments_for(600))
        chronus = get_planner("chronus").plan(instance)
        opt = get_planner("opt").plan(instance, time_budget=1.0)
        assert opt.proven and opt.schedule.makespan == chronus.schedule.makespan
        assert "cutoff" in result.render()

    def test_scheme_selection_skips_exact_solvers(self):
        result = run_in_memory(
            "fig10", {"switch_counts": (60,), "cutoff": 1.0, "schemes": ("chronus",)}
        )
        assert set(result.seconds) == {"chronus"}
        assert result.seconds["chronus"][0] is not None
        rendered = result.render()
        assert "chronus" in rendered and "opt" not in rendered

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_in_memory(
                "fig10", {"switch_counts": (20,), "schemes": ("chronus", "magic")}
            )

    def test_timed_schemes_are_warm_and_plan_their_own_instance(self, monkeypatch):
        # What each cell times, not how long it takes: every scheme plans a
        # small instance untimed once per process, then each timed plan
        # gets a freshly built instance of its own.
        calls = []

        class Plan:
            elapsed, proven = 0.0, True

        class Planner:
            def __init__(self, name):
                self.name, self.exact = name, name == "opt"

            def plan(self, instance, time_budget):
                calls.append((self.name, instance))
                return Plan()

        monkeypatch.setattr(fig10, "get_planner", Planner)
        fig10._warm_up.cache_clear()
        try:
            item = {"switch_count": 120, "seed": 5, "segments": 1}
            params = {"cutoff": 1.0, "schemes": fig10.SCHEMES}
            fig10._time_one(item, params)
            fig10._time_one(item, params)
        finally:
            fig10._warm_up.cache_clear()
        schemes = list(params["schemes"])
        assert [name for name, _ in calls] == [
            name for name in schemes for _ in range(2)
        ] + schemes
        warm = [instance for _, instance in calls[: 2 * len(schemes) : 2]]
        timed = [instance for _, instance in calls[1 : 2 * len(schemes) : 2]]
        timed += [instance for _, instance in calls[2 * len(schemes) :]]
        assert all(len(instance.old_path) == fig10._WARM_UP_SWITCHES for instance in warm)
        assert all(len(instance.old_path) == 120 for instance in timed)
        assert len({id(instance) for instance in warm + timed}) == len(calls)


class TestFig11:
    def test_chronus_near_optimal_update_time(self):
        result = run_in_memory(
            "fig11", {"switch_count": 40, "instances": 5, "opt_budget": 1.0}
        )
        assert len(result.chronus_times) == 5
        for chronus, opt in zip(result.chronus_times, result.opt_times):
            assert opt <= chronus
        cdfs = result.cdfs()
        assert cdfs["chronus"][-1][1] == pytest.approx(1.0)
        assert "Fig. 11" in result.render()
