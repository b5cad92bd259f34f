"""Unit tests for the MUTP integer program (program (3)).

Besides the model's shape and small solves, the ILP is a third opinion on
OPT (``repro.core.optimal``), judged by brute force: the ILP optimum equals
:func:`exhaustive_schedule`'s, and OPT -- the minimum over schedules whose
every round previews clean -- can only be longer.  The seeds below are
``random_instance(n, seed=seed, max_delay=3)`` with ``n = seed // 10_000``.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.greedy import greedy_schedule
from repro.core.mutp import ILPScheduleRejected, MUTPModel, build_mutp_model, solve_mutp
from repro.core.optimal import exhaustive_schedule, optimal_schedule
from repro.core.instance import random_instance
from repro.core.schedule import UpdateSchedule
from repro.validate import verify_schedule

OPT_NODES = 20_000

#: Seeds where the builder accepts horizon ``makespan - 1`` and the solver
#: itself proves it infeasible.
LOWER_BOUND_SEEDS = (40005, 50034, 60000, 70002)

#: Seeds where the true optimum lets a later round reroute traffic before
#: an earlier round's transient overload happens: ``(seed, OPT, ILP)``.
OPT_OVERSHOOT = ((60192, 7, 6), (70029, 8, 7), (70116, 5, 3))


def _seeded(seed):
    return random_instance(seed // 10_000, seed=seed, max_delay=3)


def _proven_opt(instance):
    opt = optimal_schedule(instance, node_budget=OPT_NODES)
    assert opt.proven
    return opt


def _round_clean_minimum(instance, max_makespan):
    """The least makespan of a schedule whose every round is clean.

    A round is clean when the schedule cut after it -- every later switch
    left on its old rule -- has no loop, black hole or congestion by the
    verifier; rounds are tried step by step from ``t = 0``.
    """
    nodes = tuple(instance.switches_to_update)

    def clean(times):
        verdict = verify_schedule(instance, UpdateSchedule(times=times, start_time=0))
        return not (verdict.loops or verdict.blackholes or verdict.congestion)

    def extend(times, t, last):
        pending = [node for node in nodes if node not in times]
        if not pending:
            return True
        if t > last:
            return False
        for size in range(len(pending), -1, -1):
            for batch in itertools.combinations(pending, size):
                step = dict(times, **{node: t for node in batch})
                if (not batch or clean(step)) and extend(step, t + 1, last):
                    return True
        return False

    for makespan in range(1, max_makespan + 1):
        if extend({}, 0, makespan - 1):
            return makespan
    return None


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

    def test_presolve_infeasible_verdict_is_certified(self):
        # HiGHS' presolve calls this model infeasible; with presolve off
        # it is optimal at makespan 7.
        instance = random_instance(14, seed=9)
        schedule, result = solve_mutp(instance, horizon=8, time_budget=60)
        assert result.status == "optimal"
        assert schedule is not None
        assert schedule.makespan == 7
        assert verify_schedule(instance, schedule).ok

    def test_a_schedule_the_verifier_refuses_is_an_error(self, fig1_instance, monkeypatch):
        # Decode every switch at t0: Fig. 2's three transient loops.
        def everything_at_once(model, solution):
            return UpdateSchedule(
                times={node: model.t0 for node in model.updatable}, start_time=model.t0
            )

        monkeypatch.setattr(MUTPModel, "decode", everything_at_once)
        with pytest.raises(ILPScheduleRejected, match="LoopViolation") as refused:
            solve_mutp(fig1_instance, horizon=4, time_budget=60)
        assert refused.value.verdict.loops and not refused.value.verdict.ok

    def test_slow_detour_one_step(self, tiny_instance):
        schedule, result = solve_mutp(tiny_instance, horizon=1, time_budget=60)
        assert result.status == "optimal"
        assert schedule.makespan == 1
        assert verify_schedule(tiny_instance, schedule).ok


class TestThirdOpinion:
    """The ILP against brute force and OPT on ``max_delay=3`` instances."""

    #: Brute force runs where ``makespan ** switches`` assignments stay few.
    BRUTE_FORCE_ASSIGNMENTS = 3_000

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(count=st.integers(4, 7), seed=st.integers(0, 2**20))
    def test_ilp_is_the_brute_force_optimum_and_opt_no_shorter(self, count, seed):
        instance = random_instance(count, seed=seed, max_delay=3)
        switches = len(instance.switches_to_update)
        assume(switches > 0)
        opt = optimal_schedule(instance, node_budget=OPT_NODES)
        assume(opt.proven and opt.schedule is not None)
        schedule, result = solve_mutp(instance, horizon=opt.makespan)
        assert result.status == "optimal"
        assert verify_schedule(instance, schedule).ok
        assert opt.makespan >= schedule.makespan
        if schedule.makespan ** switches <= self.BRUTE_FORCE_ASSIGNMENTS:
            brute = exhaustive_schedule(instance, max_makespan=schedule.makespan)
            assert brute.makespan == schedule.makespan

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        count=st.integers(4, 7),
        seed=st.integers(0, 2**20),
        below=st.sampled_from([0, 1]),
    )
    def test_presolve_off_gives_the_same_verdict(self, count, seed, below):
        """``solve_ilp`` with HiGHS' presolve on (as shipped) and off (every
        ``milp`` call wrapped) agrees on status and objective, at the greedy
        makespan and one step below it."""
        import scipy.optimize

        instance = random_instance(count, seed=seed, max_delay=3)
        greedy = greedy_schedule(instance)
        assume(instance.switches_to_update and greedy.feasible)
        horizon = greedy.makespan - below
        _, shipped = solve_mutp(instance, horizon=horizon)
        milp = scipy.optimize.milp

        def presolve_off(*args, options=None, **kwargs):
            return milp(*args, options=dict(options or {}, presolve=False), **kwargs)

        with mock.patch.object(scipy.optimize, "milp", presolve_off):
            _, off = solve_mutp(instance, horizon=horizon)
        assert off.status == shipped.status
        if shipped.objective is None:
            assert off.objective is None
        else:
            assert off.objective == pytest.approx(shipped.objective)

    @pytest.mark.parametrize("seed", LOWER_BOUND_SEEDS)
    def test_solver_proves_one_step_below_opt_infeasible(self, seed):
        instance = _seeded(seed)
        opt = _proven_opt(instance)
        build_mutp_model(instance, horizon=opt.makespan - 1)  # the builder accepts it
        schedule, result = solve_mutp(instance, horizon=opt.makespan - 1)
        assert schedule is None
        assert result.status == "infeasible"

    @pytest.mark.xfail(
        strict=True,
        reason="OPT searches only round-clean schedules; the optimum here is not one",
    )
    @pytest.mark.parametrize("seed,opt_makespan,ilp_makespan", OPT_OVERSHOOT)
    def test_opt_proven_makespan_is_the_ilp_optimum(self, seed, opt_makespan, ilp_makespan):
        instance = _seeded(seed)
        opt = _proven_opt(instance)
        schedule, result = solve_mutp(instance, horizon=opt.makespan)
        assert result.status == "optimal"
        assert opt.makespan == schedule.makespan

    @pytest.mark.parametrize("seed,opt_makespan,ilp_makespan", OPT_OVERSHOOT)
    def test_opt_is_the_round_clean_minimum(self, seed, opt_makespan, ilp_makespan):
        instance = _seeded(seed)
        opt = _proven_opt(instance)
        assert opt.makespan == opt_makespan
        assert _round_clean_minimum(instance, opt.makespan) == opt_makespan

    @pytest.mark.parametrize("seed,opt_makespan,ilp_makespan", OPT_OVERSHOOT)
    def test_ilp_schedule_is_shorter_and_verified(self, seed, opt_makespan, ilp_makespan):
        instance = _seeded(seed)
        schedule, result = solve_mutp(instance, horizon=opt_makespan)
        assert result.status == "optimal"
        assert schedule.makespan == ilp_makespan
        assert verify_schedule(instance, schedule).ok
