"""Unit tests for the directed network graph."""

import pytest

from repro.network.graph import DEFAULT_CAPACITY, Link, Network, network_from_links


class TestLink:
    def test_endpoints(self):
        link = Link("a", "b", capacity=2.0, delay=3)
        assert (link.src, link.dst) == ("a", "b")
        assert link.capacity == 2.0
        assert link.delay == 3

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Link("a", "a")

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            Link("a", "b", capacity=0.0)

    def test_rejects_zero_delay(self):
        with pytest.raises(ValueError, match="delay"):
            Link("a", "b", delay=0)

    def test_rejects_fractional_delay(self):
        with pytest.raises(ValueError, match="delay"):
            Link("a", "b", delay=1.5)


class TestNetwork:
    def test_add_link_registers_switches(self):
        net = Network()
        net.add_link("a", "b")
        assert "a" in net and "b" in net
        assert len(net) == 2

    def test_duplicate_link_rejected(self):
        net = Network()
        net.add_link("a", "b")
        with pytest.raises(ValueError, match="duplicate"):
            net.add_link("a", "b")

    def test_antiparallel_links_allowed(self):
        net = Network()
        net.add_link("a", "b", capacity=1.0)
        net.add_link("b", "a", capacity=2.0)
        assert net.capacity("a", "b") == 1.0
        assert net.capacity("b", "a") == 2.0

    def test_missing_link_raises_keyerror(self):
        net = Network()
        net.add_switch("a")
        with pytest.raises(KeyError):
            net.link("a", "b")

    def test_copy_is_independent(self):
        net = network_from_links([("a", "b")])
        clone = net.copy()
        clone.add_link("b", "c")
        assert not net.has_link("b", "c")
        assert clone.has_link("b", "c")

    def test_delay_lookup(self):
        net = Network()
        net.add_link("a", "b", delay=4)
        assert net.delay("a", "b") == 4

    def test_switch_insertion_order_preserved(self):
        net = Network()
        for name in ("z", "a", "m"):
            net.add_switch(name)
        assert net.switches == ["z", "a", "m"]

    def test_network_from_links_uniform_attributes(self):
        net = network_from_links([("a", "b"), ("b", "c")], capacity=7.0, delay=2)
        assert net.capacity("b", "c") == 7.0
        assert net.delay("a", "b") == 2


class TestBulkInsertion:
    """``add_links`` / ``network_from_links`` against ``add_link`` link by link."""

    BASE = [("a", "b"), ("b", "c")]

    @staticmethod
    def _add_link_error(base, batch, capacity, delay):
        """The error ``add_link`` raises on ``batch`` after ``base``, link by link."""
        net = network_from_links(base)
        capacities = capacity if isinstance(capacity, list) else [capacity] * len(batch)
        delays = delay if isinstance(delay, list) else [delay] * len(batch)
        with pytest.raises(ValueError) as raised:
            for (src, dst), cap, hop_delay in zip(batch, capacities, delays):
                net.add_link(src, dst, capacity=cap, delay=hop_delay)
        return str(raised.value)

    @pytest.mark.parametrize(
        "batch, capacity, delay, link",
        [
            ([("c", "d"), ("d", "e"), ("c", "d")], 1.0, 1, "'c' -> 'd'"),
            ([("c", "d"), ("b", "c")], 1.0, 1, "'b' -> 'c'"),
            ([("c", "d"), ("d", "d"), ("d", "e")], 1.0, 1, "'d' -> 'd'"),
            ([("c", "d"), ("d", "e")], [1.0, 0.0], 1, "'d' -> 'e'"),
            ([("c", "d"), ("d", "e")], -2.0, 1, "'c' -> 'd'"),
            ([("c", "d"), ("d", "e")], 1.0, [1, 1.5], "'d' -> 'e'"),
            ([("c", "d"), ("d", "e")], 1.0, [1, 0], "'d' -> 'e'"),
        ],
        ids=["duplicate-in-batch", "duplicate-of-existing", "self-loop",
             "zero-capacity", "negative-capacity", "fractional-delay", "zero-delay"],
    )
    def test_a_fault_raises_add_links_error_and_adds_nothing(self, batch, capacity, delay, link):
        expected = self._add_link_error(self.BASE, batch, capacity, delay)
        assert link in expected
        net = network_from_links(self.BASE)
        with pytest.raises(ValueError) as raised:
            net.add_links(batch, capacity=capacity, delay=delay)
        assert str(raised.value) == expected
        assert net.switches == ["a", "b", "c"]
        assert list(net.delay_map()) == self.BASE == list(net.capacity_map())
        if ("b", "c") not in batch:  # a fault of the batch alone
            with pytest.raises(ValueError) as built:
                network_from_links(batch, capacity=capacity, delay=delay)
            assert str(built.value) == self._add_link_error([], batch, capacity, delay)

    def test_bulk_equals_link_by_link(self):
        links = [("x", "y"), ("a", "b"), ("y", "a"), ("b", "x"), ("a", "y")]
        delays = [3, 1, 2, 5, 1]
        capacities = [1.0, 2.0, 0.5, 1.0, 4.0]
        one_by_one = Network()
        one_by_one.add_switch("z")
        for (src, dst), cap, delay in zip(links, capacities, delays):
            one_by_one.add_link(src, dst, capacity=cap, delay=delay)
        bulk = Network()
        bulk.add_switch("z")
        bulk.add_links(iter(links), capacity=capacities, delay=tuple(delays))
        assert bulk.switches == one_by_one.switches == ["z", "x", "y", "a", "b"]
        assert list(bulk.delay_map().items()) == list(one_by_one.delay_map().items())
        assert list(bulk.capacity_map().items()) == list(one_by_one.capacity_map().items())

    def test_attribute_lists_must_match_the_links(self):
        with pytest.raises(ValueError, match="2 link attributes for 3 links"):
            network_from_links([("a", "b"), ("b", "c"), ("c", "d")], delay=[1, 2])
