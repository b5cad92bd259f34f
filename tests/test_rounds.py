"""Unit tests for round-based loop-freedom (OR machinery)."""

import pytest

from repro.core.rounds import (
    greedy_loop_free_rounds,
    has_cycle,
    round_is_loop_free,
    rounds_are_loop_free,
    union_forwarding_edges,
)


class TestHasCycle:
    def test_acyclic(self):
        assert not has_cycle({"a": ["b"], "b": ["c"], "c": []})

    def test_two_cycle(self):
        assert has_cycle({"a": ["b"], "b": ["a"]})

    def test_self_reference_via_branch(self):
        assert has_cycle({"a": ["b", "c"], "b": [], "c": ["a"]})

    def test_disconnected_components(self):
        assert has_cycle({"a": ["b"], "b": [], "x": ["y"], "y": ["x"]})


class TestUnionGraph:
    def test_round_node_keeps_both_edges(self, fig1_instance):
        edges = union_forwarding_edges(fig1_instance, set(), {"v3"})
        assert sorted(edges["v3"]) == ["v2", "v4"]

    def test_updated_node_uses_new_edge(self, fig1_instance):
        edges = union_forwarding_edges(fig1_instance, {"v2"}, set())
        assert edges["v2"] == ["v6"]

    def test_pending_node_uses_old_edge(self, fig1_instance):
        edges = union_forwarding_edges(fig1_instance, set(), set())
        assert edges["v4"] == ["v5"]


class TestRoundSafety:
    def test_v3_alone_is_unsafe_first(self, fig1_instance):
        # v3 -> v2 (new) + v2 -> v3 (old) forms a cycle.
        assert not round_is_loop_free(fig1_instance, set(), {"v3"})

    def test_v3_safe_after_v2(self, fig1_instance):
        assert round_is_loop_free(fig1_instance, {"v2"}, {"v3"})

    def test_v1_v2_safe_together(self, fig1_instance):
        assert round_is_loop_free(fig1_instance, set(), {"v1", "v2"})

    def test_adjacent_swap_pair_never_joint(self, fig1_instance):
        # v3 and v4 swap direction: both-edged together they always cycle.
        assert not round_is_loop_free(fig1_instance, {"v2"}, {"v3", "v4"})


class TestGreedyRounds:
    def test_covers_all_switches(self, fig1_instance):
        rounds = greedy_loop_free_rounds(fig1_instance)
        flat = [node for r in rounds for node in r]
        assert sorted(flat) == sorted(fig1_instance.switches_to_update)

    def test_rounds_validate(self, fig1_instance):
        rounds = greedy_loop_free_rounds(fig1_instance)
        assert rounds_are_loop_free(fig1_instance, rounds)

    def test_respects_already_updated(self, fig1_instance):
        rounds = greedy_loop_free_rounds(
            fig1_instance, pending=["v3"], updated={"v1", "v2"}
        )
        assert rounds == [["v3"]]

    def test_deadline_dumps_remaining(self, fig1_instance):
        import time

        rounds = greedy_loop_free_rounds(fig1_instance, deadline=time.monotonic() - 1)
        assert len(rounds) == 1  # everything dumped into one unchecked round

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances_round_partitions_are_safe(self, seed):
        from repro.core.instance import random_instance

        instance = random_instance(5 + seed % 7, seed=seed * 3)
        rounds = greedy_loop_free_rounds(instance)
        assert rounds_are_loop_free(instance, rounds)

    @pytest.mark.parametrize("seed", range(8))
    def test_no_static_cycle_at_any_execution_instant(self, seed):
        """The union-graph criterion prevents *infinite* forwarding loops.

        (Packets may still transiently revisit a switch they crossed before
        an update -- Definition 2 is stronger, which is exactly why OR is
        not enough for Chronus' goals -- but no packet can cycle forever.)
        """
        import random

        from repro.core.instance import random_instance
        from repro.core.rounds import union_forwarding_edges
        from repro.updates.order_replacement import realize_round_times

        instance = random_instance(6 + seed % 5, seed=seed * 7)
        rounds = greedy_loop_free_rounds(instance)
        realized = realize_round_times(rounds, rng=random.Random(seed), max_skew=2)
        times = realized.as_dict()
        checkpoints = sorted(set(times.values()))
        for t in checkpoints:
            updated = {node for node, when in times.items() if when <= t}
            edges = union_forwarding_edges(instance, updated, set())
            assert not has_cycle(edges)


def _reference_rounds(instance, pending=None, updated=None):
    """``greedy_loop_free_rounds`` as the module docstring defines it: one
    full dict-graph check per candidate."""
    remaining = list(instance.switches_to_update if pending is None else pending)
    done = set(updated or ())
    rounds = []
    while remaining:
        current = []
        for node in list(remaining):
            if round_is_loop_free(instance, done, set(current) | {node}):
                current.append(node)
        if not current:
            current = [remaining[0]]
        for node in current:
            remaining.remove(node)
        done.update(current)
        rounds.append(current)
    return rounds


def _drain_cycle_instance():
    """Two drain rules that point at each other in the new configuration.

    ``x`` and ``y`` carry no rule today and point at one another afterwards:
    whichever updates second closes ``x <-> y``, so it is forced through and
    leaves a cyclic base in which no later candidate is safe either.
    """
    from repro.core.instance import instance_from_paths
    from repro.network.graph import Network

    network = Network()
    for src, dst in [
        ("s", "a"), ("a", "b"), ("b", "d"), ("s", "b"), ("a", "d"),
        ("x", "y"), ("y", "x"),
    ]:
        network.add_link(src, dst, capacity=1.0, delay=1)
    return instance_from_paths(
        network,
        old_path=["s", "a", "b", "d"],
        new_path=["s", "b", "d"],
        extra_new_rules={"x": "y", "y": "x", "a": "d"},
    )


class TestIdSpaceOracle:
    """The id-space oracle every planner runs on against the definition."""

    @staticmethod
    def _instances():
        from repro.core.instance import random_instance, reversal_instance, segmented_instance
        from repro.experiments.sweep import mixed_instance

        for seed in range(25):
            yield random_instance(5 + seed % 9, seed=seed * 11)
            yield mixed_instance(8 + seed % 6, seed)
        yield reversal_instance(9)
        for seed in range(4):
            yield segmented_instance(120, seed=seed, segments=8, max_segment_length=6)
        yield _drain_cycle_instance()

    def test_rounds_equal_the_definition(self):
        for instance in self._instances():
            assert greedy_loop_free_rounds(instance) == _reference_rounds(instance)

    def test_forced_round_leaves_every_later_candidate_unsafe(self):
        instance = _drain_cycle_instance()
        rounds = greedy_loop_free_rounds(instance)
        assert rounds == _reference_rounds(instance)
        assert not rounds_are_loop_free(instance, rounds)
        forced = next(
            index
            for index in range(len(rounds))
            if not rounds_are_loop_free(instance, rounds[: index + 1])
        )
        # The forced switch goes alone, and so does everything after it.
        assert all(len(r) == 1 for r in rounds[forced:])

    def test_respects_updated_and_pending_like_the_definition(self):
        import random

        for instance in self._instances():
            nodes = list(instance.switches_to_update)
            random.Random(len(nodes)).shuffle(nodes)
            done, pending = set(nodes[: len(nodes) // 3]), nodes[len(nodes) // 3 :]
            assert greedy_loop_free_rounds(instance, pending, done) == _reference_rounds(
                instance, pending, done
            )

    def test_maximal_round_is_what_full_checks_accept(self):
        from repro.core.rounds import UnionGraphIds

        for instance in self._instances():
            graph = UnionGraphIds(instance)
            pending = [graph.id_of[node] for node in instance.switches_to_update]
            updated = bytearray(graph.n)
            expected, mask = [], bytearray(graph.n)
            for node in pending:
                mask[node] = 1
                if graph.round_is_safe(updated, mask):
                    expected.append(node)
                else:
                    mask[node] = 0
            assert graph.maximal_safe_round(updated, pending) == expected
            if pending:
                assert graph.maximal_safe_round(updated, pending, deadline=0.0) is None
