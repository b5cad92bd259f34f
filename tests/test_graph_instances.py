"""Tests for instances generated on arbitrary graphs (fat tree, Waxman)."""

import heapq
import random

import pytest

from repro.core.greedy import greedy_schedule
from repro.core.instance import instance_from_paths, random_instance
from repro.core.mutp import solve_mutp
from repro.core.optimal import optimal_schedule
from repro.network.topology import waxman_topology
from repro.validate import verify_schedule
from tests.test_network_topology import fat_tree_topology


def shortest_delay_path(network, source, destination, forbidden_nodes=()):
    """Dijkstra over link delays, avoiding the given transit switches."""
    banned = set(forbidden_nodes) - {source, destination}
    delays = network.delay_map()
    heads = {}  # out-neighbours in link insertion order
    for src, dst in delays:
        heads.setdefault(src, []).append(dst)
    distances = {source: 0}
    previous = {}
    heap = [(0, source)]
    visited = set()
    while heap:
        dist, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == destination:
            path = [node]
            while node in previous:
                node = previous[node]
                path.append(node)
            return list(reversed(path))
        for head in heads.get(node, ()):
            if head in banned:
                continue
            candidate = dist + delays[(node, head)]
            if candidate < distances.get(head, float("inf")):
                distances[head] = candidate
                previous[head] = node
                heapq.heappush(heap, (candidate, head))
    return None


def random_reroute_instance(network, source, destination, rng=None):
    """A maintenance-style reroute on an arbitrary graph: the old route is
    the delay-shortest path, the new one avoids one random transit switch
    of it.  ``None`` when the path has no transit switch or no detour
    exists."""
    rng = rng or random.Random()
    old_path = shortest_delay_path(network, source, destination)
    if old_path is None or len(old_path) < 3:
        return None
    victim = rng.choice(old_path[1:-1])
    new_path = shortest_delay_path(
        network, source, destination, forbidden_nodes=[victim]
    )
    if new_path is None or new_path == old_path:
        return None
    return instance_from_paths(network, old_path, new_path)


class TestGeneratorOnFatTree:
    def test_produces_valid_instances(self):
        net = fat_tree_topology(4)
        instance = random_reroute_instance(
            net, "edge0_0", "edge3_1", rng=random.Random(1)
        )
        assert instance is not None
        assert instance.old_path != instance.new_path
        assert instance.old_path[0] == instance.new_path[0] == "edge0_0"

    @pytest.mark.parametrize("seed", range(6))
    def test_schedulers_handle_fabric_instances(self, seed):
        net = fat_tree_topology(4)
        rng = random.Random(seed)
        edges = [n for n in net.switches if n.startswith("edge")]
        src, dst = rng.sample(edges, 2)
        instance = random_reroute_instance(net, src, dst, rng=rng)
        if instance is None:
            pytest.skip("no reroute for this pair")
        result = greedy_schedule(instance)
        assert verify_schedule(instance, result.schedule).ok == result.feasible

    def test_too_short_path_returns_none(self):
        net = fat_tree_topology(4)
        # Adjacent switches: the shortest path has no transit node.
        assert random_reroute_instance(net, "edge0_0", "agg0_0") is None


class TestGeneratorOnWaxman:
    @pytest.mark.parametrize("seed", range(5))
    def test_instances_are_consistent_when_feasible(self, seed):
        net = waxman_topology(25, rng=random.Random(100 + seed), alpha=0.7, beta=0.7)
        instance = random_reroute_instance(net, "v1", "v25", rng=random.Random(seed))
        if instance is None:
            pytest.skip("disconnected or no alternative route")
        result = greedy_schedule(instance)
        oracle = verify_schedule(instance, result.schedule)
        assert result.feasible == oracle.ok


def _updating_instance(seed: int):
    """A 5-switch random reroute with at least one switch to update.

    Draws from one seeded stream until the detour differs from the chain, so
    a seed whose first draw has something to update keeps that instance.
    """
    rng = random.Random(700 + seed)
    while True:
        instance = random_instance(5, max_delay=2, rng=rng)
        if instance.switches_to_update:
            return instance


class TestMutpCrossValidation:
    """Program (3)'s ILP agrees with the OPT search, including on graphs
    with non-uniform delays.

    OPT runs under a node budget and the ILP to completion, so what each
    proves is the same on every machine; no case skips (seed 10 draws an
    infeasible instance).  The "one step below" check is the path
    builder's: on every feasible seed here no loop-free space-time path
    exists at ``makespan - 1``, so the solver never runs.  Lower bounds the
    solver itself proves are in ``tests/test_mutp.py``.
    """

    OPT_NODES = 20_000

    @pytest.mark.parametrize("seed", range(12))
    def test_ilp_matches_search(self, seed):
        instance = _updating_instance(seed)
        opt = optimal_schedule(instance, node_budget=self.OPT_NODES)
        assert opt.proven
        if opt.schedule is None:
            schedule, result = solve_mutp(instance, horizon=6)
            assert schedule is None
            assert result.status == "infeasible"
            return
        assert opt.makespan >= 1
        schedule, result = solve_mutp(instance, horizon=opt.makespan)
        assert result.status == "optimal"
        assert schedule.makespan == opt.makespan
        assert verify_schedule(instance, schedule).ok
        if opt.makespan > 1:
            below, result_below = solve_mutp(instance, horizon=opt.makespan - 1)
            assert below is None  # the optimum really is the minimum
            assert result_below.status == "infeasible"
