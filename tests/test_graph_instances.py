"""Tests for instances generated on arbitrary graphs (fat tree, Waxman)."""

import random

import pytest

from repro.core.greedy import greedy_schedule
from repro.core.instance import random_instance
from repro.core.mutp import solve_mutp
from repro.core.optimal import optimal_schedule
from repro.core.trace import trace_schedule
from repro.network.topology import fat_tree_topology, waxman_topology
from repro.planning import random_reroute_instance


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
        assert trace_schedule(instance, result.schedule).ok == result.feasible

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
        oracle = trace_schedule(instance, result.schedule)
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
    infeasible instance).
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
        assert trace_schedule(instance, schedule).ok
        if opt.makespan > 1:
            below, result_below = solve_mutp(instance, horizon=opt.makespan - 1)
            assert below is None  # the optimum really is the minimum
            assert result_below.status == "infeasible"
