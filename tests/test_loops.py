"""Unit tests for Algorithm 4 (forwarding-loop check)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import motivating_example, random_instance, segmented_instance
from repro.core.loops import LoopGates, new_route_revisits
from tests.test_intervals import preview


def creates_forwarding_loop(instance, applied, v, t):
    """Algorithm 4 in closed form over a committed mapping: ``True`` iff
    ``v'`` is upstream of ``v`` on the old path and no committed switch
    between them has cut its solid line by ``t - off(v)``.  The scan the
    greedy used before :class:`LoopGates`; the walk below is its
    reference, and it is the gates'."""
    v_prime = instance.new_next_hop(v)
    if v_prime is None:
        return False
    index = instance.old_path_index
    here = index.get(v)
    there = index.get(v_prime)
    if here is None or there is None or there >= here:
        return False
    offsets = instance.old_path_offsets
    deadline = t - offsets[v]
    for p, when in applied.items():
        position = index.get(p)
        if (
            position is not None
            and there <= position < here
            and when - offsets[p] <= deadline
        ):
            return False
    return True


class TestBackwardWalk:
    def test_v3_at_t0_loops(self, fig1_instance):
        # v3's new hop v2 is its live old-path predecessor's predecessor:
        # deflected units return through v2.
        assert creates_forwarding_loop(fig1_instance, {}, "v3", 0)

    def test_v2_at_t0_safe(self, fig1_instance):
        # v2's new hop v6 is downstream -- no loop.
        assert not creates_forwarding_loop(fig1_instance, {}, "v2", 0)

    def test_v4_with_live_v3_loops(self, fig1_instance):
        # The paper's t1 decision: updating v4 while v3 still feeds it sends
        # units back into v3.
        assert creates_forwarding_loop(fig1_instance, {"v2": 0, "v3": 1}, "v4", 1)

    def test_v4_after_drain_is_safe(self, fig1_instance):
        # At t2, v3's old departures ended at t=0 < t2 - sigma: the solid
        # line into v4 is gone, so the deflection cannot loop.
        assert not creates_forwarding_loop(fig1_instance, {"v2": 0, "v3": 1}, "v4", 2)

    def test_v5_at_t0_loops_via_v2(self, fig1_instance):
        assert creates_forwarding_loop(fig1_instance, {}, "v5", 0)

    def test_source_update_never_loops(self, fig1_instance):
        # v1 has no old-path predecessor.
        assert not creates_forwarding_loop(fig1_instance, {}, "v1", 0)

    def test_switch_without_new_rule_is_safe(self, tiny_instance):
        assert not creates_forwarding_loop(tiny_instance, {}, "b", 0)


def _backward_walk(instance, applied, v, t):
    """Algorithm 4 as printed: hop by hop up the old path from ``v``."""
    v_prime = instance.new_next_hop(v)
    if v_prime is None:
        return False
    x, tau = v, t
    while True:
        p = instance.old_predecessor(x)
        if p is None:
            return False
        tau -= instance.network.delay(p, x)
        when = applied.get(p)
        if when is not None and when <= tau:
            return False  # the solid line into x is gone at this depth
        if p == v_prime:
            return True
        x = p


class TestClosedFormEqualsTheWalk:
    """``creates_forwarding_loop`` scans the committed switches between
    ``v'`` and ``v``, ``LoopGates`` bisects them; the hop walk both
    replaced is the reference."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(("random", "random-delays", "segmented", "fig1")),
        size=st.integers(4, 40),
        seed=st.integers(0, 10_000),
        share=st.floats(0.0, 1.0),
        horizon=st.integers(1, 30),
    )
    def test_every_pending_switch_at_several_times(self, kind, size, seed, share, horizon):
        if kind == "fig1":
            instance = motivating_example()
        elif kind == "segmented":
            instance = segmented_instance(size + 8, seed=seed, segments=1 + seed % 3)
        else:
            instance = random_instance(
                size, seed=seed, max_delay=3 if kind == "random-delays" else None
            )
        rng = random.Random(seed)
        switches = list(instance.switches_to_update)
        applied = {
            node: rng.randint(0, horizon) for node in switches if rng.random() < share
        }
        gates = LoopGates(instance)
        for node, when in applied.items():
            gates.commit(node, when)
        for v in switches:
            if v in applied:
                continue
            for t in (0, horizon // 2, horizon, horizon + rng.randint(1, 2 * size)):
                walk = _backward_walk(instance, applied, v, t)
                assert creates_forwarding_loop(instance, applied, v, t) == walk, (v, t, applied)
                assert gates.creates_loop(v, t) == walk, (v, t, applied)


class TestForwardVariant:
    def test_agrees_on_fig1_hazards(self, fig1_instance):
        assert new_route_revisits(fig1_instance, {}, "v3", 0) == "v2"
        assert new_route_revisits(fig1_instance, {}, "v2", 0) is None

    def test_detects_multi_hop_revisit(self, fig1_instance):
        # Updating v4 at t1 (v3 updated same step): the deflected unit goes
        # v4 -> v3 -> v2 ... having already crossed v3.
        revisit = new_route_revisits(fig1_instance, {"v2": 0, "v3": 1}, "v4", 1)
        assert revisit == "v3"

    def test_clean_after_drain(self, fig1_instance):
        applied = {"v2": 0, "v3": 1}
        assert new_route_revisits(fig1_instance, applied, "v4", 2) is None


class TestAgainstExactPreview:
    """Algorithm 4's verdicts match the exact tracker on random instances."""

    @pytest.mark.parametrize("seed", range(20))
    def test_no_false_negatives_at_t0(self, seed):
        from repro.core.instance import random_instance
        from repro.core.intervals import IntervalTracker

        instance = random_instance(7, seed=seed)
        tracker = IntervalTracker(instance)
        for node in instance.switches_to_update:
            exact_loops = bool(preview(tracker, [node], 0).loops)
            claimed = creates_forwarding_loop(instance, {}, node, 0)
            if exact_loops:
                # The backward walk checks only the immediate next hop; the
                # exact forward variant must catch everything.
                forward = new_route_revisits(instance, {}, node, 0)
                assert forward is not None
