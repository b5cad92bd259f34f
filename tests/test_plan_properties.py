"""Properties of the one plan type over seeded ``mixed_instance`` draws.

* Rule accounting is derived on read from ``(instance, two_phase)``; it
  must equal the per-scheme formula every deleted ``UpdateProtocol`` class
  wrote out by hand (frozen below as the protocols had it).
* ``plan_from_json(plan_to_json(p))`` round-trips the dispatched schedule,
  the rounds, the rule accounting and the consistency claim for all five
  schemes, and re-serialises to the same bytes.
* ``mixed_instance`` at 4-7 switches -- sizes that once crashed the
  generator -- builds, is planned by every registered scheme, and every
  plan that claims consistency is judged clean.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.serialization import plan_from_json, plan_to_json
from repro.experiments.sweep import mixed_instance
from repro.updates import RuleAccounting, available_schemes, get_planner
from repro.updates.registry import TWO_PHASE

NODE_BUDGET = 300


def frozen_in_place_accounting(instance):
    """Chronus / AUG / OPT / OR, as ``ChronusProtocol.plan`` counted."""
    baseline = len(instance.old_config)
    installs = 0
    modifies = 0
    for node in instance.switches_to_update:
        if instance.old_next_hop(node) is None:
            installs += 1  # brand-new rule on a new-path-only switch
        else:
            modifies += 1  # in-place action modification
    return RuleAccounting(
        installs=installs,
        modifies=modifies,
        deletes=0,
        baseline_rules=baseline,
        peak_rules=baseline + installs,
    )


def frozen_two_phase_accounting(instance):
    """TP, as ``TwoPhaseProtocol.plan`` counted."""
    baseline = len(instance.old_config)
    union = {}
    for node in instance.old_config:
        union.setdefault(node)
    for node in instance.new_config:
        union.setdefault(node)
    installs = len(union)
    stamping = 1
    return RuleAccounting(
        installs=installs + stamping,
        modifies=0,
        deletes=baseline,  # old-version rules removed after the flip
        baseline_rules=baseline,
        peak_rules=baseline + installs + stamping,
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(count=st.integers(min_value=6, max_value=14), seed=st.integers(0, 10_000))
def test_rules_match_the_frozen_formulas_and_documents_round_trip(count, seed):
    instance = mixed_instance(count, seed)
    for scheme in available_schemes():
        planner = get_planner(scheme)
        plan = planner.plan(instance, node_budget=NODE_BUDGET)

        frozen = (
            frozen_two_phase_accounting(instance)
            if planner.executor == TWO_PHASE
            else frozen_in_place_accounting(instance)
        )
        assert plan.rules == frozen, scheme

        text = plan_to_json(plan)
        parsed = plan_from_json(text)
        assert parsed.scheme == scheme
        assert parsed.instance is None
        assert parsed.schedule == plan.dispatched, scheme
        assert list(parsed.rounds) == list(plan.rounds), scheme
        assert parsed.rules == plan.rules, scheme
        assert parsed.feasible == plan.claims_consistency, scheme
        assert parsed.notes == plan.notes
        assert plan_to_json(parsed) == text, scheme


@pytest.mark.parametrize("count", (4, 5, 6, 7))
def test_tiny_mixed_instances_build_plan_and_verify(count):
    """``mixed_instance`` below 8 switches, 20 seeds a size, all five schemes."""
    schemes = available_schemes()
    assert len(schemes) == 5
    for seed in range(20):
        instance = mixed_instance(count, seed)
        assert len(instance.old_path) >= 2 and instance.old_path[-1] == instance.destination
        for scheme in schemes:
            planner = get_planner(scheme)
            plan = planner.plan(instance, node_budget=NODE_BUDGET)
            if planner.executor != TWO_PHASE:  # TP times its ingress flip instead
                assert set(plan.dispatched.times) == set(instance.switches_to_update), (
                    scheme,
                    seed,
                )
            if plan.claims_consistency:
                assert planner.verify(instance, plan.dispatched).ok, (scheme, count, seed)
