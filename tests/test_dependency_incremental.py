"""Property tests: incremental ``DependencyState`` == from-scratch Alg. 3.

The incremental engine's whole claim is *observational equivalence*: at
every time step of any commit trajectory, :meth:`DependencyState.relations`
must return the same chains, the same deferred set and the same cycle
verdict as :func:`dependency_relations` recomputed from scratch on the
identical pending/applied state.  These tests drive both implementations
in lockstep over hundreds of seeded instances and three commit policies
(greedy-like "commit all heads", randomised subsets, and idle steps where
time passes with no commit -- the case that exercises verdict expiry).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dependency import (
    DependencyState,
    dependency_relations,
    drain_table,
)
from repro.core.instance import (
    random_instance,
    reversal_instance,
    segmented_instance,
)
from tests.test_chain_goldens import rebuilt

MAX_STEPS = 200


def _assert_same(fresh, inc, context):
    assert inc.chains == fresh.chains, context
    assert inc.deferred == fresh.deferred, context
    assert inc.has_cycle == fresh.has_cycle, context


def _drive(instance, rng, policy):
    """Run one commit trajectory, checking equivalence at every step."""
    pending = [node for node in instance.switches_to_update]
    applied = {}
    state = DependencyState(instance, pending)
    t = 0
    while pending and t < MAX_STEPS:
        fresh = dependency_relations(instance, pending, applied, t)
        inc = state.relations(t)
        _assert_same(fresh, inc, f"t={t} applied={applied}")
        assert state.pending == pending, f"t={t}"

        heads = fresh.heads
        if policy == "heads":
            chosen = heads
        elif policy == "random":
            chosen = [node for node in heads if rng.random() < 0.6]
        else:  # "idle": commit nothing every third step
            chosen = [] if t % 3 == 2 else heads
        if not chosen and not heads and fresh.has_cycle:
            # Stuck on a cycle: nothing Algorithm 2 could do either.
            break
        for node in chosen:
            applied[node] = t
            pending.remove(node)
        state.commit(chosen, t)
        t += 1
    return t


@pytest.mark.parametrize("seed", range(120))
def test_random_instances_match(seed):
    rng = random.Random(10_000 + seed)
    instance = random_instance(4 + seed % 13, seed=500 + seed, max_delay=3)
    policy = ("heads", "random", "idle")[seed % 3]
    _drive(instance, rng, policy)


@pytest.mark.parametrize("seed", range(60))
def test_segmented_instances_match(seed):
    rng = random.Random(20_000 + seed)
    instance = segmented_instance(
        20 + seed % 21, seed=900 + seed, segments=2 + seed % 3, max_segment_length=8
    )
    policy = ("heads", "random", "idle")[seed % 3]
    _drive(instance, rng, policy)


@pytest.mark.parametrize("count", range(4, 14))
@pytest.mark.parametrize("policy", ["heads", "random"])
def test_reversal_instances_match(count, policy):
    rng = random.Random(30_000 + count)
    instance = reversal_instance(count)
    _drive(instance, rng, policy)


class TestDrainTableIncremental:
    """The internal incremental drain table tracks :func:`drain_table`."""

    @pytest.mark.parametrize("seed", range(20))
    def test_drains_match_after_random_commits(self, seed):
        rng = random.Random(40_000 + seed)
        instance = random_instance(6 + seed % 9, seed=1300 + seed)
        pending = list(instance.switches_to_update)
        state = DependencyState(instance, pending)
        applied = {}
        t = 0
        while pending and t < 50:
            chosen = [node for node in pending if rng.random() < 0.3]
            for node in chosen:
                applied[node] = t
                pending.remove(node)
            state.commit(chosen, t)
            expected = drain_table(instance, applied)
            for node, value in expected.items():
                assert state.drain(node) == value, f"t={t} node={node}"
            t += 1


class TestStaircaseAtScale:
    """The staircase drain table on long paths (DESIGN.md 7.4).

    The parametrised trajectories above draw 4-40 switches, where a
    staircase and a materialised table are the same few entries.  Here the
    path is 300-2 000 switches: the relation sets must still equal the
    from-scratch function's at every step, and ``drain(v)`` the table the
    engine used to materialise, rebuilt here by the hop walk it replaced.
    """

    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        size=st.integers(300, 2000),
        seed=st.integers(0, 10_000),
        segments=st.integers(1, 12),
        policy=st.sampled_from(("heads", "random", "idle")),
        unit_delays=st.booleans(),
    )
    def test_relations_and_drains_match(self, size, seed, segments, policy, unit_delays):
        instance = segmented_instance(size, seed=seed, segments=segments)
        if unit_delays:
            instance = rebuilt(instance, unit_delays=True)
        rng = random.Random(seed)
        path = instance.old_path
        offsets = instance.old_path_offsets
        prefix_min = [float("inf")] * len(path)
        drains = {node: float("inf") for node in path}
        position = {node: i for i, node in enumerate(path)}

        pending = list(instance.switches_to_update)
        applied = {}
        state = DependencyState(instance, pending)
        for t in range(MAX_STEPS):
            if not pending:
                break
            fresh = dependency_relations(instance, pending, applied, t)
            _assert_same(fresh, state.relations(t), f"t={t} applied={applied}")
            heads = fresh.heads
            if policy == "heads":
                chosen = heads
            elif policy == "random":
                chosen = [node for node in heads if rng.random() < 0.6]
            else:
                chosen = [] if t % 3 == 2 else heads
            if not heads and fresh.has_cycle:
                break
            for node in chosen:
                applied[node] = t
                pending.remove(node)
                # The materialised table's update, hop by hop.
                key = t - offsets[node]
                for j in range(position[node], len(path)):
                    if prefix_min[j] <= key:
                        break
                    prefix_min[j] = key
                    drains[path[j]] = key - 1 + offsets[path[j]]
            state.commit(chosen, t)
            assert all(state.drain(node) == drains[node] for node in path), f"t={t}"
            assert drains == drain_table(instance, applied), f"t={t}"
        assert state.drain("not-a-switch") is None


class TestCacheFastPath:
    def test_unchanged_state_returns_cached_object(self):
        instance = reversal_instance(6)
        state = DependencyState(instance, list(instance.switches_to_update))
        first = state.relations(0)
        # No commit between the calls and no verdict can expire at t=0
        # again: the exact same DependencySet object must come back.
        assert state.relations(0) is first

    def test_commit_invalidates_cache(self):
        instance = reversal_instance(6)
        pending = list(instance.switches_to_update)
        state = DependencyState(instance, pending)
        first = state.relations(0)
        heads = first.heads
        assert heads
        state.commit(heads[:1], 0)
        second = state.relations(1)
        assert second is not first
