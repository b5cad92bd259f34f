"""Tests for the planner registry (DESIGN.md §15).

The load-bearing suite is the lockstep block: a frozen copy of the
pre-registry ``run_instance`` if-chain runs next to the registry dispatch
on pinned seeds, and the outcome records must be *byte-identical* (compared
as canonical JSON).  All schemes share one per-instance RNG stream, so any
drift in evaluation order, PRNG consumption or fallback handling shows up
here immediately.

The same if-chain, grown by the ``tp`` and ``aug`` branches in the same
style, is the *unshared oracle* of the sweep item's sharing
(``SharedEvaluation``, DESIGN.md 15.1): every scheme runs its own greedy,
its own replay and its own verifier call there, and ``run_instance`` must
say the same thing about every hypothesis-drawn item.
"""

import json
import random
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import evaluate_schedule
from repro.core.greedy import greedy_schedule
from repro.core.instance import reversal_instance, segmented_instance
from repro.core.optimal import optimal_schedule
from repro.experiments.sweep import (
    InstanceOutcome,
    mixed_instance,
    run_instance,
    sweep_seed,
)
from repro.core.rounds import greedy_loop_free_rounds
from repro.trace import TraceSession, aggregate
from repro.updates.order_replacement import minimize_rounds, realize_round_times
from repro.updates.registry import (
    DEFAULT_SCHEMES,
    DuplicateSchemeError,
    Planner,
    UnknownSchemeError,
    available_schemes,
    find_planner,
    get_planner,
    planners_for,
    register_planner,
    sweep_planners,
)
from tests.test_trace_goldens import calls_and_counters

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Deterministic node budgets so the lockstep pins cannot flake on machine
#: load: both exact searches stop on explored nodes, never on wall clock.
#: The wall-clock budgets are set far above any plausible runtime for the
#: same reason -- the node budget must be the binding constraint.
NODE_BUDGET = 20_000
TIME_BUDGET = 600.0
BUDGETS = dict(
    opt_budget=TIME_BUDGET,
    or_budget=TIME_BUDGET,
    opt_node_budget=NODE_BUDGET,
    or_node_budget=NODE_BUDGET,
)


def legacy_run_instance(
    instance,
    seed: int,
    schemes=("chronus", "or", "opt"),
    opt_budget: float = 1.0,
    or_budget: float = 0.5,
    or_skew: int = 3,
    opt_node_budget: Optional[int] = None,
    or_node_budget: Optional[int] = None,
    verify: bool = False,
    aug_epsilon: float = 0.0,
) -> Dict[str, InstanceOutcome]:
    """Frozen copy of the pre-registry if-chain (the byte-identity oracle).

    This is the dispatch code the registry replaced, kept verbatim minus
    the engine knobs (pinned to the ``"array"`` default).  Do not "fix" or
    modernise it -- its job is to stay exactly what shipped.  The ``tp``
    and ``aug`` branches at the end are not from that revision: they spell
    out, in the same direct-call style, what those two planners do, so
    that the whole chain evaluates every scheme on its own -- no answer of
    one branch is handed to another.
    """
    from repro.updates.augmented import augmented_instance
    from repro.updates.two_phase import two_phase_congestion_spans
    from repro.validate.verifier import verify_schedule, verify_two_phase

    rng = random.Random(seed ^ 0x5EED)
    outcomes: Dict[str, InstanceOutcome] = {}

    def conformance(schedule, metrics) -> Optional[bool]:
        if not verify:
            return None
        verdict = verify_schedule(instance, schedule)
        return (
            verdict.congestion_free == metrics.congestion_free
            and verdict.congested_timed_links == metrics.congested_timed_links
            and verdict.loop_free == metrics.loop_free
            and verdict.drop_free == (metrics.blackhole_events == 0)
        )

    if "chronus" in schemes:
        result = greedy_schedule(instance)
        metrics = evaluate_schedule(instance, result.schedule)
        outcomes["chronus"] = InstanceOutcome(
            scheme="chronus",
            congestion_free=metrics.congestion_free and result.feasible,
            congested_timed_links=metrics.congested_timed_links,
            makespan=metrics.makespan,
            verifier_agrees=conformance(result.schedule, metrics),
        )

    if "opt" in schemes:
        result = optimal_schedule(
            instance, time_budget=opt_budget, node_budget=opt_node_budget
        )
        if result.schedule is not None:
            metrics = evaluate_schedule(instance, result.schedule)
            outcomes["opt"] = InstanceOutcome(
                scheme="opt",
                congestion_free=metrics.congestion_free,
                congested_timed_links=metrics.congested_timed_links,
                makespan=metrics.makespan,
                verifier_agrees=conformance(result.schedule, metrics),
            )
        else:
            rounds = greedy_loop_free_rounds(instance)
            fallback = realize_round_times(rounds, rng=rng, max_skew=0)
            metrics = evaluate_schedule(instance, fallback)
            outcomes["opt"] = InstanceOutcome(
                scheme="opt",
                congestion_free=False,
                congested_timed_links=metrics.congested_timed_links,
                makespan=metrics.makespan,
                verifier_agrees=conformance(fallback, metrics),
            )

    if "or" in schemes:
        rounds = minimize_rounds(
            instance, time_budget=or_budget, node_budget=or_node_budget
        ).rounds
        realized = realize_round_times(rounds, rng=rng, max_skew=or_skew)
        metrics = evaluate_schedule(instance, realized)
        outcomes["or"] = InstanceOutcome(
            scheme="or",
            congestion_free=metrics.congestion_free,
            congested_timed_links=metrics.congested_timed_links,
            makespan=metrics.makespan,
            verifier_agrees=conformance(realized, metrics),
        )

    if "tp" in schemes:
        spans = two_phase_congestion_spans(instance, 1)
        links = sum(span.timed_link_count for span in spans)
        agrees = None
        if verify:
            verdict = verify_two_phase(instance, 1, t0=0)
            agrees = (
                verdict.congestion_free == (not spans)
                and verdict.congested_timed_links == links
                and verdict.loop_free
                and verdict.drop_free
            )
        outcomes["tp"] = InstanceOutcome(
            scheme="tp",
            congestion_free=not spans,
            congested_timed_links=links,
            makespan=2,
            verifier_agrees=agrees,
        )

    if "aug" in schemes:
        result = greedy_schedule(augmented_instance(instance, aug_epsilon))
        metrics = evaluate_schedule(instance, result.schedule)
        feasible = result.feasible
        if feasible and aug_epsilon > 0.0:
            feasible = evaluate_schedule(instance, result.schedule).congestion_free
        outcomes["aug"] = InstanceOutcome(
            scheme="aug",
            congestion_free=metrics.congestion_free and feasible,
            congested_timed_links=metrics.congested_timed_links,
            makespan=metrics.makespan,
            verifier_agrees=conformance(result.schedule, metrics),
        )

    return outcomes


def canonical(outcomes: Dict[str, InstanceOutcome]) -> str:
    """Byte-stable JSON rendering of a full outcome record."""
    return json.dumps(
        {name: asdict(outcome) for name, outcome in sorted(outcomes.items())},
        sort_keys=True,
    )


class TestRegistryApi:
    def test_all_schemes_registered(self):
        assert set(available_schemes()) == {"chronus", "or", "tp", "opt", "aug"}

    def test_default_schemes_are_registered(self):
        assert set(DEFAULT_SCHEMES) <= set(available_schemes())
        assert DEFAULT_SCHEMES == ("chronus", "or", "opt")

    def test_get_planner_roundtrip(self):
        for name in available_schemes():
            planner = get_planner(name)
            assert planner.name == name

    def test_unknown_scheme_error(self):
        with pytest.raises(UnknownSchemeError) as info:
            get_planner("chrnous")
        assert info.value.name == "chrnous"
        assert "chronus" in info.value.valid
        # The message is what the CLI prints on exit 2.
        assert "registered planners" in str(info.value)
        assert isinstance(info.value, ValueError)

    def test_find_planner_is_total(self):
        assert find_planner("chronus") is get_planner("chronus")
        assert find_planner("chrnous") is None

    def test_planners_for_preserves_caller_order(self):
        names = [p.name for p in planners_for(("tp", "chronus"))]
        assert names == ["tp", "chronus"]

    def test_sweep_planners_uses_legacy_order(self):
        # The legacy if-chain evaluated chronus -> opt -> or on a shared
        # RNG stream; sweep_order pins that order forever.
        names = [p.name for p in sweep_planners(("or", "opt", "chronus"))]
        assert names == ["chronus", "opt", "or"]

    def test_duplicate_registration_rejected(self):
        class Impostor(Planner):
            name = "chronus"

            def _plan(self, instance, *, rng=None, background=None, t0=0, **options):
                raise NotImplementedError

        with pytest.raises(DuplicateSchemeError):
            register_planner(Impostor())

    def test_reregistration_of_same_class_allowed(self):
        # Module reloads re-execute register_planner calls; same
        # implementation class must not explode.
        register_planner(type(get_planner("chronus"))())

    def test_capability_flags(self):
        assert get_planner("tp").two_phase
        assert not get_planner("chronus").two_phase
        assert get_planner("opt").exact
        assert get_planner("or").exact
        assert not get_planner("aug").exact


class TestLockstepByteIdentity:
    """Registry dispatch must reproduce the legacy if-chain bit for bit."""

    SEEDS = [sweep_seed(0, 12, index) for index in range(6)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_default_trio_matches_legacy(self, seed):
        instance = mixed_instance(12, seed)
        new = run_instance(instance, seed, verify=True, **BUDGETS)
        old = legacy_run_instance(instance, seed, verify=True, **BUDGETS)
        assert canonical(new) == canonical(old)

    def test_opt_fallback_path_matches_legacy(self):
        """A congestion-infeasible instance: OPT falls back to best-effort
        rounds, consuming PRNG draws *before* OR's skewed realisation --
        the subtlest byte-identity hazard in the chain.

        Of ``sweep_seed(3, 16, 0..39)`` only index 14 takes the fallback,
        so that one seed is pinned.  Dispatch on feasible instances is
        held by ``test_default_trio_matches_legacy``,
        ``test_subset_dispatch_matches_legacy`` and the hypothesis
        property :class:`TestSharingIsInvisible`.
        """
        seed = sweep_seed(3, 16, 14)
        instance = mixed_instance(16, seed)
        new = run_instance(instance, seed, **BUDGETS)
        old = legacy_run_instance(instance, seed, **BUDGETS)
        assert not new["opt"].congestion_free, "the pinned seed no longer falls back"
        assert canonical(new) == canonical(old)

    def test_subset_dispatch_matches_legacy(self):
        seed = sweep_seed(1, 12, 0)
        instance = mixed_instance(12, seed)
        for schemes in [("chronus",), ("or",), ("opt",), ("chronus", "or")]:
            new = run_instance(instance, seed, schemes=schemes, **BUDGETS)
            old = legacy_run_instance(instance, seed, schemes=schemes, **BUDGETS)
            assert canonical(new) == canonical(old)


ALL_SCHEMES = ("chronus", "or", "opt", "tp", "aug")
#: The ``sweep-paper`` node budgets: items of a few milliseconds.
SMALL_BUDGETS = dict(BUDGETS, opt_node_budget=60, or_node_budget=60)


class TestSharingIsInvisible:
    """One item's shared answers change nothing an outcome says."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        count=st.integers(min_value=4, max_value=12),
        seed=st.integers(0, 10_000),
        aug_epsilon=st.sampled_from([0.0, 1.0]),
        schemes=st.sets(st.sampled_from(ALL_SCHEMES), min_size=1),
        verify=st.booleans(),
    )
    def test_run_instance_equals_each_scheme_alone(
        self, count, seed, aug_epsilon, schemes, verify
    ):
        instance = mixed_instance(count, seed)
        knobs = dict(SMALL_BUDGETS, verify=verify, aug_epsilon=aug_epsilon)
        schemes = tuple(sorted(schemes))
        shared = run_instance(instance, seed, schemes=schemes, **knobs)
        alone = legacy_run_instance(instance, seed, schemes=schemes, **knobs)
        assert canonical(shared) == canonical(alone)

    def test_every_distinct_schedule_is_judged_exactly_once(self, monkeypatch):
        # The pinned item of TestAugPlanner: AUG's relaxed schedule differs
        # from Chronus', OPT returns the incumbent.  Whatever is shared, each
        # distinct schedule still goes through the tracker replay and the
        # independent verifier once -- and TP through its own pair.
        seed = sweep_seed(0, 8, 17)
        instance = mixed_instance(8, seed)
        measured, verified = [], []

        def spy(planner, method, log):
            original = getattr(planner, method)

            def spied(inst, subject, **options):
                schedule = getattr(subject, "schedule", subject)
                log.append((type(planner).measure, tuple(schedule.items())))
                return original(inst, subject, **options)

            # An item in the instance dict shadows the method and is
            # removed again on undo (setattr would leave a bound copy).
            monkeypatch.setitem(vars(planner), method, spied)

        for name in ALL_SCHEMES:
            spy(get_planner(name), "measure", measured)
            spy(get_planner(name), "verify", verified)
        outcomes = run_instance(
            instance, seed, schemes=ALL_SCHEMES, verify=True, aug_epsilon=1.0, **SMALL_BUDGETS
        )
        plans = {
            name: get_planner(name).plan(
                instance, rng=random.Random(0), epsilon=1.0, node_budget=60
            )
            for name in ("chronus", "opt", "tp", "aug")
        }
        assert plans["opt"].schedule == plans["chronus"].schedule
        assert plans["aug"].schedule != plans["chronus"].schedule
        assert all(outcome.verifier_agrees for outcome in outcomes.values())
        assert len(measured) == len(set(measured)) == 4  # chronus=opt, or, tp, aug
        assert measured == verified
        assert (type(get_planner("tp")).measure, tuple(plans["tp"].schedule.items())) in measured


def _profile(run):
    """``(timer calls by path, counters)`` of ``run()`` under a trace session."""
    with TraceSession(scenario="test", run_id="registry") as session:
        run()
    return calls_and_counters(session.tape)


class TestNothingOutlivesTheItem:
    """The guard against memoising the benchmark: what an item shares dies
    with ``run_instance``'s frame; a plain ``plan(instance)`` never sees it."""

    SEED = sweep_seed(7, 9, 3)
    KNOBS = dict(SMALL_BUDGETS, schemes=ALL_SCHEMES, verify=True, aug_epsilon=1.0)

    def test_consecutive_plans_each_run_their_greedy(self):
        instance = mixed_instance(9, self.SEED)
        chronus, opt = get_planner("chronus"), get_planner("opt")
        once, _ = _profile(lambda: chronus.plan(instance))
        twice, _ = _profile(lambda: [chronus.plan(instance), chronus.plan(instance)])
        assert once["greedy"] == 1 and twice["greedy"] == 2
        assert twice == {path: 2 * calls for path, calls in once.items()}
        # ... and OPT its own seed, after an item has shared one on this object.
        run_instance(instance, self.SEED, **self.KNOBS)
        seeded, _ = _profile(lambda: opt.plan(instance, node_budget=60))
        assert seeded["opt.seed"] == seeded["opt.seed.greedy"] == 1

    def test_two_items_cost_twice_one_item(self):
        instance = mixed_instance(9, self.SEED)
        run = lambda: run_instance(instance, self.SEED, **self.KNOBS)  # noqa: E731
        run()  # the instance's own lazy fields (path delays, array encoding)
        held = set(vars(instance))
        planners = {name: dict(vars(get_planner(name))) for name in available_schemes()}
        one_calls, one_counters = _profile(run)
        two_calls, two_counters = _profile(lambda: [run(), run()])
        assert one_counters["sweep.incumbent.reused"] == 1
        assert one_counters["sweep.judged.reused"] >= 1
        assert not any(path.startswith("opt.seed") for path in one_calls)
        assert two_calls == {path: 2 * calls for path, calls in one_calls.items()}
        assert two_counters == {name: 2 * n for name, n in one_counters.items()}
        assert set(vars(instance)) == held
        for name in available_schemes():
            assert vars(get_planner(name)) == planners[name], name

    def test_fig10_times_opt_with_its_own_seed(self):
        # Fig. 10's OPT running time is the solver's own clock; it must keep
        # covering the greedy seed (nothing shares an incumbent there).
        from repro.experiments.fig10 import _TimingItem, _time_one

        item = _TimingItem(switch_count=200, seed=4, segments=1, cutoff=30.0)
        with TraceSession(scenario="test", run_id="fig10") as session:
            fields = _time_one(item)
        view = aggregate(session.tape)
        seed = view["spans"]["opt.seed"]
        assert seed["calls"] == 1 and view["spans"]["opt.seed.greedy"]["calls"] == 1
        assert fields["opt_proven"]
        assert fields["opt_elapsed"] >= seed["seconds"]
        assert "sweep.incumbent.reused" not in view["counters"]


class TestVerifyAdapters:
    def test_tp_verify_routes_through_two_phase(self):
        from repro.validate.verifier import verify_two_phase

        instance = reversal_instance(6)
        planner = get_planner("tp")
        result = planner.plan(instance)
        verdict = planner.verify(instance, result.schedule)
        direct = verify_two_phase(
            instance,
            result.schedule.time_of(instance.source),
            t0=result.schedule.t0,
        )
        assert verdict.congested_timed_links == direct.congested_timed_links
        assert verdict.congestion_free == direct.congestion_free
        assert verdict.check_start == direct.check_start
        assert verdict.check_end == direct.check_end

    def test_timed_verify_routes_through_schedule(self):
        from repro.validate.verifier import verify_schedule

        instance = reversal_instance(6)
        planner = get_planner("chronus")
        result = planner.plan(instance)
        verdict = planner.verify(instance, result.schedule)
        direct = verify_schedule(instance, result.schedule)
        assert verdict.congested_timed_links == direct.congested_timed_links
        assert verdict.loop_free == direct.loop_free

    def test_gate_routes_tp_by_flag_not_name(self):
        # The gate's two-phase branch keys off planner.two_phase; a tp run
        # through the registry-built protocol list must come back clean.
        from repro.validate import run_gate

        report = run_gate(
            instance_count=2, switch_count=8, protocols=("tp",), replay=False
        )
        assert report.ok, report.describe()
        assert report.checked == 2


class TestAugPlanner:
    def test_epsilon_zero_matches_chronus_exactly(self):
        for index in range(4):
            seed = sweep_seed(2, 12, index)
            instance = mixed_instance(12, seed)
            outcomes = run_instance(
                instance, seed, schemes=("chronus", "aug"), verify=True
            )
            chronus, aug = outcomes["chronus"], outcomes["aug"]
            assert aug.congestion_free == chronus.congestion_free
            assert aug.congested_timed_links == chronus.congested_timed_links
            assert aug.makespan == chronus.makespan
            assert aug.verifier_agrees is True

    def test_epsilon_rescues_stalled_instances(self):
        # Unit-demand / unit-capacity workload: transient headroom only
        # binds at epsilon >= 1, and what it buys is plan *completeness* --
        # instances where the strict greedy stalls into best-effort now
        # plan end to end (the Henzinger & Pourdamghani trade: a complete,
        # faster update in exchange for bounded transient overload).  The
        # plan itself claims feasibility on the *true* capacities only, so
        # completeness is read off the relaxed greedy.
        from repro.updates.augmented import augmented_instance

        chronus = get_planner("chronus")
        aug = get_planner("aug")
        rescued = 0
        for index in range(40):
            seed = sweep_seed(4, 14, index)
            instance = mixed_instance(14, seed)
            strict = chronus.plan(instance)
            completed = greedy_schedule(augmented_instance(instance, 1.0))
            relaxed = aug.plan(instance, epsilon=1.0)
            assert relaxed.schedule == completed.schedule
            # Headroom never makes planning stall where strict planning
            # succeeded.
            if strict.feasible:
                assert completed.feasible
            else:
                rescued += int(completed.feasible)
            # The claim is the relaxed completion judged on the true network.
            assert relaxed.feasible == (
                completed.feasible
                and evaluate_schedule(instance, relaxed.schedule).congestion_free
            )
        assert rescued > 0, "epsilon=1.0 never completed a stalled plan"

    def test_augmented_instance_preserves_true_capacities(self):
        from repro.updates.augmented import augmented_instance

        instance = segmented_instance(10, seed=7)
        relaxed = augmented_instance(instance, 0.5)
        assert relaxed is not instance
        for link in instance.network.links:
            assert relaxed.network.capacity(link.src, link.dst) == pytest.approx(
                link.capacity * 1.5
            )
        assert augmented_instance(instance, 0.0) is instance

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            get_planner("aug").plan(segmented_instance(10, seed=7), epsilon=-0.1)

    def test_positive_epsilon_claim_is_judged_on_true_capacities(self):
        # Pinned: mixed_instance(8, sweep_seed(0, 8, 17)).  At epsilon=1 the
        # relaxed greedy completes a 5-step schedule that congests three
        # timed links of the true network.  The plan used to report the
        # relaxed greedy's claim, so a service configured with scheme="aug"
        # dispatched on a consistency claim nobody made.
        from repro.updates.augmented import augmented_instance

        seed = sweep_seed(0, 8, 17)
        assert seed == 80_073
        instance = mixed_instance(8, seed)
        assert greedy_schedule(augmented_instance(instance, 1.0)).feasible
        plan = get_planner("aug").plan(instance, epsilon=1.0)
        assert not plan.feasible
        assert "transiently congested" in plan.notes
        assert not get_planner("aug").verify(instance, plan.schedule).ok
        # The sweep record cannot tell (congestion_free = metrics and feasible).
        outcome = run_instance(
            instance, seed, schemes=("aug",), aug_epsilon=1.0, verify=True
        )["aug"]
        assert asdict(outcome) == {
            "scheme": "aug",
            "congestion_free": False,
            "congested_timed_links": 3,
            "makespan": 5,
            "verifier_agrees": True,
        }

    def test_aug_verifier_agrees_at_positive_epsilon(self):
        # The planner relaxes capacities for *planning* only; conformance
        # is judged on the true instance, so the flag must stay coherent.
        for index in range(6):
            seed = sweep_seed(5, 12, index)
            instance = mixed_instance(12, seed)
            outcome = run_instance(
                instance, seed, schemes=("aug",), aug_epsilon=1.0, verify=True
            )["aug"]
            assert outcome.verifier_agrees is True


class TestCliFailFast:
    def test_typo_exits_2_with_registered_names(self):
        # A misspelt scheme names the registered planners; a stale or
        # misspelt --set key names the scenario's valid parameters.
        cases = {
            "schemes=chrnous": ("chrnous", "chronus", "or", "tp", "opt", "aug"),
            "opt_engine=reference": ("opt_engine", "opt_node_budget", "schemes"),
        }
        for override, expected in cases.items():
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.experiments",
                    "run",
                    "sweep",
                    "--set",
                    override,
                ],
                capture_output=True,
                text=True,
                cwd=REPO_ROOT,
                env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            )
            assert proc.returncode == 2, override
            assert "Traceback" not in proc.stderr, override
            for name in expected:
                assert name in proc.stderr, override
