"""Unit and property tests for topology generators.

The classic fabrics below (linear, ring, fat-tree) and the Mininet-sized
two-path draw are test fixtures: graph-instance tests and the build pins
run on them, no system path does.
"""

import random
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.flows import Flow
from repro.network.graph import DEFAULT_CAPACITY, DEFAULT_DELAY, Network
from repro.network.paths import Path, as_path, path_delay, path_links
from repro.network.topology import (
    TwoPathTopology,
    missing_links,
    reversal_topology,
    segmented_reversal_topology,
    switch_names,
    two_path_topology,
    waxman_topology,
)


def validate_path(network, path):
    """``path`` is simple and every hop of it is a link of ``network``."""
    assert len(set(path)) == len(path), path
    assert not missing_links(network, path), path


def linear_topology(
    count: int,
    capacity: float = DEFAULT_CAPACITY,
    delay: int = DEFAULT_DELAY,
) -> Tuple[Network, Path]:
    """A chain ``v1 -> v2 -> ... -> vn`` and the path along it."""
    nodes = switch_names(count)
    net = Network()
    net.add_links(path_links(nodes), capacity=capacity, delay=delay)
    return net, as_path(nodes)


def ring_topology(
    count: int,
    capacity: float = DEFAULT_CAPACITY,
    delay: int = DEFAULT_DELAY,
    bidirectional: bool = True,
) -> Network:
    """A ring over ``count`` switches, optionally with both directions."""
    nodes = switch_names(count)
    net = Network()
    for i, src in enumerate(nodes):
        dst = nodes[(i + 1) % count]
        net.add_link(src, dst, capacity=capacity, delay=delay)
        if bidirectional:
            net.add_link(dst, src, capacity=capacity, delay=delay)
    return net


def fat_tree_topology(k: int, capacity: float = DEFAULT_CAPACITY, delay: int = DEFAULT_DELAY) -> Network:
    """A ``k``-ary fat-tree (``k`` even): the canonical data-center fabric.

    Switch naming: ``core<i>``, ``agg<pod>_<i>``, ``edge<pod>_<i>``.  All
    links are bidirectional.
    """
    if k % 2 != 0 or k < 2:
        raise ValueError("fat-tree arity k must be a positive even number")
    half = k // 2
    net = Network()
    cores = [f"core{i}" for i in range(half * half)]
    for pod in range(k):
        aggs = [f"agg{pod}_{i}" for i in range(half)]
        edges = [f"edge{pod}_{i}" for i in range(half)]
        for agg in aggs:
            for edge in edges:
                net.add_link(agg, edge, capacity=capacity, delay=delay)
                net.add_link(edge, agg, capacity=capacity, delay=delay)
        for i, agg in enumerate(aggs):
            for j in range(half):
                core = cores[i * half + j]
                net.add_link(core, agg, capacity=capacity, delay=delay)
                net.add_link(agg, core, capacity=capacity, delay=delay)
    return net


def emulation_topology(rng: random.Random) -> TwoPathTopology:
    """The Mininet-experiment analogue (Section V-A): ten switches, 5 Mbps
    links, delays drawn from 1-4 steps, fixed initial path, random final
    path."""
    return two_path_topology(10, rng=rng, capacity=5.0, max_delay=4)


class TestFlow:
    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            Flow("f", "a", "a")

    def test_rejects_nonpositive_demand(self):
        with pytest.raises(ValueError):
            Flow("f", "a", "b", demand=0)


class TestSwitchNames:
    def test_naming(self):
        assert switch_names(3) == ["v1", "v2", "v3"]

    def test_minimum(self):
        with pytest.raises(ValueError):
            switch_names(1)


class TestLinear:
    def test_chain_structure(self):
        net, path = linear_topology(5)
        assert path == ("v1", "v2", "v3", "v4", "v5")
        assert len(net.links) == 4
        validate_path(net, path)


class TestRing:
    def test_bidirectional_ring(self):
        net = ring_topology(4)
        assert len(net.links) == 8
        assert net.has_link("v4", "v1") and net.has_link("v1", "v4")

    def test_unidirectional_ring(self):
        net = ring_topology(4, bidirectional=False)
        assert len(net.links) == 4


class TestTwoPath:
    @given(count=st.integers(min_value=3, max_value=40), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_paths_share_endpoints_and_exist(self, count, seed):
        topo = two_path_topology(count, rng=random.Random(seed))
        assert topo.old_path[0] == topo.new_path[0] == "v1"
        assert topo.old_path[-1] == topo.new_path[-1] == f"v{count}"
        validate_path(topo.network, topo.old_path)
        validate_path(topo.network, topo.new_path)

    def test_detour_fraction_zero_is_direct(self):
        topo = two_path_topology(6, rng=random.Random(1), detour_fraction=0.0)
        assert topo.new_path == ("v1", "v6")

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            two_path_topology(5, detour_fraction=1.5)

    def test_mismatched_endpoints_rejected(self):
        net, path = linear_topology(4)
        with pytest.raises(ValueError):
            TwoPathTopology(network=net, old_path=path, new_path=("v2", "v3", "v4"))

    def test_max_delay_draws_in_range(self):
        topo = two_path_topology(10, rng=random.Random(3), max_delay=4)
        assert all(1 <= link.delay <= 4 for link in topo.network.links)


class TestReversal:
    def test_new_path_reverses_middle(self):
        topo = reversal_topology(5)
        assert topo.old_path == ("v1", "v2", "v3", "v4", "v5")
        assert topo.new_path == ("v1", "v4", "v3", "v2", "v5")


class TestSegmentedReversal:
    @given(count=st.integers(20, 200), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_valid_paths(self, count, seed):
        topo = segmented_reversal_topology(count, rng=random.Random(seed))
        validate_path(topo.network, topo.old_path)
        validate_path(topo.network, topo.new_path)
        assert topo.old_path[0] == topo.new_path[0]
        assert topo.old_path[-1] == topo.new_path[-1]

    @given(count=st.integers(20, 120), seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_new_path_not_faster(self, count, seed):
        """phi(new) >= phi(old): the Algorithm 1 feasibility condition."""
        topo = segmented_reversal_topology(count, rng=random.Random(seed))
        assert path_delay(topo.network, topo.new_path) >= path_delay(
            topo.network, topo.old_path
        )


class TestWaxman:
    def test_links_are_bidirectional(self):
        net = waxman_topology(20, rng=random.Random(7))
        for link in net.links:
            assert net.has_link(link.dst, link.src)

    def test_switch_count(self):
        net = waxman_topology(15, rng=random.Random(1))
        assert len(net) == 15


class TestFatTree:
    def test_k4_shape(self):
        net = fat_tree_topology(4)
        cores = [s for s in net.switches if s.startswith("core")]
        aggs = [s for s in net.switches if s.startswith("agg")]
        edges = [s for s in net.switches if s.startswith("edge")]
        assert len(cores) == 4 and len(aggs) == 8 and len(edges) == 8

    def test_odd_arity_rejected(self):
        with pytest.raises(ValueError):
            fat_tree_topology(3)


class TestEmulation:
    def test_matches_paper_setup(self):
        topo = emulation_topology(rng=random.Random(2))
        assert len([n for n in topo.network.switches]) == 10
        assert all(link.capacity == 5.0 for link in topo.network.links)
