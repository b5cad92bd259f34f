"""Unit tests for path utilities."""

import pytest

from repro.network.graph import network_from_links
from repro.network.paths import (
    arrival_offsets,
    as_path,
    path_delay,
    path_links,
)
from repro.network.topology import missing_links


@pytest.fixture
def chain():
    return network_from_links([("a", "b"), ("b", "c"), ("c", "d")], delay=2)


class TestAsPath:
    def test_normalises_to_tuple(self):
        assert as_path(["a", "b"]) == ("a", "b")

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            as_path(["a"])

    def test_rejects_consecutive_repeat(self):
        with pytest.raises(ValueError):
            as_path(["a", "a", "b"])


class TestPathLinks:
    def test_links(self):
        assert list(path_links(("a", "b", "c"))) == [("a", "b"), ("b", "c")]

    def test_empty_for_short(self):
        assert list(path_links(("a", "b"))) == [("a", "b")]


class TestValidatePath:
    def test_valid(self, chain):
        assert missing_links(chain, ("a", "b", "c", "d")) == []

    def test_missing_link(self, chain):
        assert missing_links(chain, ("a", "c", "d", "b")) == [("a", "c"), ("d", "b")]


class TestDelays:
    def test_path_delay(self, chain):
        assert path_delay(chain, ("a", "b", "c", "d")) == 6

    def test_arrival_offsets(self, chain):
        assert arrival_offsets(chain, ("a", "b", "c", "d")) == [0, 2, 4, 6]
