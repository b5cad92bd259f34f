"""Property tests for flow-table lookup semantics (OpenFlow behaviour)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulator.flowtable import ANY, FlowRule, FlowTable, Match, PacketContext

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

prefixes = st.sampled_from(["a", "b", "c", ANY])
ports = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
tags = st.one_of(st.none(), st.integers(min_value=1, max_value=3))


@st.composite
def tables(draw):
    table = FlowTable()
    for index in range(draw(st.integers(min_value=0, max_value=6))):
        table.add(
            FlowRule(
                name=f"r{index}",
                match=Match(
                    in_port=draw(ports),
                    src_prefix=draw(prefixes),
                    dst_prefix=draw(prefixes),
                    tag=draw(tags),
                ),
                out_port=draw(st.integers(min_value=0, max_value=3)),
                priority=draw(st.integers(min_value=0, max_value=3)),
            )
        )
    return table


@st.composite
def contexts(draw):
    return PacketContext(
        in_port=draw(st.integers(min_value=0, max_value=3)),
        src_prefix=draw(st.sampled_from(["a", "b", "c"])),
        dst_prefix=draw(st.sampled_from(["a", "b", "c"])),
        tag=draw(tags),
    )


class TestLookupSemantics:
    @given(table=tables(), context=contexts())
    @settings(max_examples=150, **COMMON)
    def test_result_actually_matches(self, table, context):
        rule = table.lookup(context)
        if rule is not None:
            assert rule.match.covers(context)

    @given(table=tables(), context=contexts())
    @settings(max_examples=150, **COMMON)
    def test_no_higher_priority_match_exists(self, table, context):
        rule = table.lookup(context)
        matching = [r for r in table.rules if r.match.covers(context)]
        if rule is None:
            assert not matching
        else:
            assert rule.priority == max(r.priority for r in matching)

    @given(table=tables(), context=contexts())
    @settings(max_examples=100, **COMMON)
    def test_ties_break_by_insertion_order(self, table, context):
        rule = table.lookup(context)
        if rule is None:
            return
        same_priority = [
            r
            for r in table.rules
            if r.match.covers(context) and r.priority == rule.priority
        ]
        assert same_priority[0].name == rule.name

    @given(context=contexts())
    @settings(max_examples=30, **COMMON)
    def test_wildcard_rule_matches_everything(self, context):
        table = FlowTable()
        table.add(FlowRule("any", Match(), out_port=1))
        assert table.lookup(context).name == "any"

    @given(table=tables())
    @settings(max_examples=50, **COMMON)
    def test_occupancy_equals_rule_count(self, table):
        rendered = table.render()
        assert len(rendered) == len(table.rules) + 1  # header row
