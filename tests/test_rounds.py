"""Unit tests for round-based loop-freedom (OR machinery)."""

from typing import Dict, Iterable, List, Set, Tuple

import pytest

from repro.core.instance import UpdateInstance
from repro.core.rounds import greedy_loop_free_rounds
from repro.network.graph import Node

# The union-graph criterion as the module docstring of ``repro.core.rounds``
# states it, on a dict graph: the reference that ``greedy_loop_free_rounds``
# (on ``UnionGraphIds``) and every OR partition are held to.


def union_forwarding_edges(
    instance: UpdateInstance,
    updated: Set[Node],
    in_round: Set[Node],
) -> Dict[Node, List[Node]]:
    """Out-edges of the union forwarding graph for one round.

    Args:
        instance: The update instance.
        updated: Switches already running their new rule.
        in_round: Switches updating in the round under test.
    """
    edges: Dict[Node, List[Node]] = {}
    nodes = set(instance.old_config) | set(instance.new_config)
    for node in nodes:
        outs: List[Node] = []
        old_hop = instance.old_next_hop(node)
        new_hop = instance.new_next_hop(node)
        if node in updated:
            if new_hop is not None:
                outs.append(new_hop)
        elif node in in_round:
            outs.extend(hop for hop in (old_hop, new_hop) if hop is not None)
        else:
            if old_hop is not None:
                outs.append(old_hop)
        edges[node] = outs
    return edges


def has_cycle(edges: Dict[Node, List[Node]]) -> bool:
    """Iterative three-colour cycle detection on a small digraph."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[Node, int] = {}

    for start in edges:
        if colour.get(start, WHITE) != WHITE:
            continue
        stack: List[Tuple[Node, int]] = [(start, 0)]
        colour[start] = GREY
        while stack:
            node, index = stack[-1]
            children = edges.get(node, ())
            if index < len(children):
                stack[-1] = (node, index + 1)
                child = children[index]
                state = colour.get(child, WHITE)
                if state == GREY:
                    return True
                if state == WHITE:
                    colour[child] = GREY
                    stack.append((child, 0))
            else:
                colour[node] = BLACK
                stack.pop()
    return False


def round_is_loop_free(
    instance: UpdateInstance,
    updated: Set[Node],
    in_round: Iterable[Node],
) -> bool:
    """Whether updating ``in_round`` together (after ``updated``) is safe
    against transient forwarding loops under *every* interleaving."""
    return not has_cycle(union_forwarding_edges(instance, updated, set(in_round)))


def rounds_are_loop_free(instance, rounds):
    """A full round partition, checked round by round against the
    union-graph criterion."""
    done = set()
    for round_nodes in rounds:
        if not round_is_loop_free(instance, done, set(round_nodes)):
            return False
        done.update(round_nodes)
    return True


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
        from repro.core.rounds import union_graph_ids

        for instance in self._instances():
            graph = union_graph_ids(instance)
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

    def test_tables_are_the_configs_and_shared_by_the_array_tracker(self):
        from repro.core.intervals_array import instance_arrays
        from repro.core.rounds import union_graph_ids

        for instance in self._instances():
            graph = union_graph_ids(instance)
            assert union_graph_ids(instance) is graph
            assert graph.names == instance.network.switches
            for name, config in (("next_old", instance.old_config), ("next_new", instance.new_config)):
                table = getattr(graph, name)
                assert {graph.names[i]: graph.names[hop] for i, hop in enumerate(table) if hop >= 0} == config
            arrays = instance_arrays(instance)
            for name in ("names", "id_of", "next_old", "next_new"):
                assert getattr(arrays, name) is getattr(graph, name)

    def test_round_search_encodes_the_instance_once(self):
        from unittest import mock

        from repro.core import rounds
        from repro.core.instance import reversal_instance
        from repro.core.search import run_round_search

        instance = reversal_instance(8)
        with mock.patch.object(rounds, "UnionGraphIds", wraps=rounds.UnionGraphIds) as built:
            rounds_found, explored, *_ = run_round_search(instance, None, 12, 500)
            run_round_search(instance, None, 12, 500)
        assert built.call_count == 1
        assert explored > 0 and rounds_are_loop_free(instance, rounds_found)
