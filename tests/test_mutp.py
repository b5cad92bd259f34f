"""Unit tests for the MUTP integer program (program (3))."""

import pytest

from repro.core.mutp import build_mutp_model, solve_mutp
from repro.core.optimal import optimal_schedule
from repro.core.instance import random_instance
from repro.validate import verify_schedule


class TestModelShape:
    def test_one_assignment_per_switch(self, fig1_instance):
        built = build_mutp_model(fig1_instance, horizon=4)
        for node in fig1_instance.switches_to_update:
            names = [f"z[{node},{k}]" for k in range(4)]
            assert all(name in built.model.variables for name in names)
        assignments = [
            c for c in built.model.constraints if c.name.startswith("assign")
        ]
        assert len(assignments) == len(fig1_instance.switches_to_update)

    def test_route_constraint_per_emission(self, fig1_instance):
        built = build_mutp_model(fig1_instance, horizon=4)
        routes = [c for c in built.model.constraints if c.name.startswith("route")]
        assert len(routes) == len(built.emissions)

    def test_invalid_horizon(self, fig1_instance):
        with pytest.raises(ValueError):
            build_mutp_model(fig1_instance, horizon=0)


class TestSolving:
    def test_fig1_optimum_is_four_steps(self, fig1_instance):
        schedule, result = solve_mutp(fig1_instance, horizon=4, time_budget=60)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(3.0)  # last step index => 4 steps
        assert schedule is not None
        assert schedule.makespan == 4
        assert verify_schedule(fig1_instance, schedule).ok

    def test_infeasible_below_optimum_horizon(self, fig1_instance):
        schedule, result = solve_mutp(fig1_instance, horizon=3, time_budget=60)
        assert schedule is None
        assert result.status == "infeasible"

    def test_agrees_with_search_opt(self):
        instance = random_instance(5, seed=3)
        opt = optimal_schedule(instance, time_budget=20)
        assert opt.proven and opt.schedule is not None
        schedule, result = solve_mutp(instance, horizon=opt.makespan, time_budget=60)
        assert result.status == "optimal"
        assert schedule.makespan == opt.makespan
        assert verify_schedule(instance, schedule).ok

    def test_infeasible_instance(self, shortcut_instance):
        schedule, result = solve_mutp(shortcut_instance, horizon=4, time_budget=60)
        assert schedule is None
        assert result.status == "infeasible"

    def test_slow_detour_one_step(self, tiny_instance):
        schedule, result = solve_mutp(tiny_instance, horizon=1, time_budget=60)
        assert result.status == "optimal"
        assert schedule.makespan == 1
        assert verify_schedule(tiny_instance, schedule).ok
