"""White-box tests for the interval tracker's splitting machinery."""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.greedy import greedy_schedule
from repro.core.instance import motivating_example, random_instance
from repro.core.intervals import (
    BLACKHOLE,
    DELIVERED,
    LOOPED,
    FlowClass,
    IntervalTracker,
    RoundReport,
    _deflect,
    _drained,
    _LinkTable,
    _make_class,
    _round_rules,
    _split_class,
    _sweep_link,
)
from repro.core.intervals_array import ArrayIntervalTracker
from repro.core.loops import LoopGates
from repro.core.tracker import replay_schedule
from repro.experiments.sweep import mixed_instance
from repro.network.paths import arrival_offsets
from tests.test_intervals import link_departure_spans, preview
from tests.test_loops import creates_forwarding_loop


@pytest.fixture
def instance():
    return motivating_example()


def make_report():
    return RoundReport(time=0, nodes=())


def rules_of(instance, config):
    """``config`` as the ``switch -> (next hop, link id, delay)`` lookup the
    tracker's link table gives (every rule is an old or a new one)."""
    table = _LinkTable(instance, {})
    return {
        node: (nxt, table.ids[(node, nxt)], instance.network.delay(node, nxt))
        for node, nxt in config.items()
    }.get


class TestRouteFrom:
    """The deflection walk: a parent's prefix, then ``config`` onwards."""

    def deflect(self, instance, config, index):
        parent = _make_class(instance, _LinkTable(instance, {}))
        return _deflect(instance, rules_of(instance, config), parent, index, 0, None)

    def test_links_name_the_trajectory(self, instance):
        table = _LinkTable(instance, {})
        piece = _deflect(
            instance, rules_of(instance, instance.config_at({"v2": 0}, 0)),
            _make_class(instance, table), 1, 0, None,
        )
        assert [table.keys[link] for link in piece.links] == list(
            zip(piece.nodes, piece.nodes[1:])
        )

    def test_reaches_destination(self, instance):
        piece = self.deflect(instance, instance.old_config, 0)
        assert piece.nodes == ("v1", "v2", "v3", "v4", "v5", "v6")
        assert piece.outcome == DELIVERED and piece.loop_node is None

    def test_detects_revisit_of_prefix(self, instance):
        config = dict(instance.old_config)
        config["v4"] = "v3"  # v4's new rule while v3 still points forward
        piece = self.deflect(instance, config, 3)
        assert piece.outcome == LOOPED
        assert piece.loop_node == "v3"
        assert piece.nodes[-1] == "v3"  # truncated right after the revisit
        assert piece.fresh_from == 3

    def test_blackhole_on_missing_rule(self, instance):
        config = {"v1": "v2"}  # nothing beyond v2
        piece = self.deflect(instance, config, 0)
        assert piece.outcome == BLACKHOLE
        assert piece.nodes == ("v1", "v2")


class TestSplitClass:
    def old_class(self, instance):
        return _make_class(instance, _LinkTable(instance, {}))

    def test_unaffected_class_returns_none(self, instance):
        cls = self.old_class(instance)
        pieces = _split_class(
            instance, cls, {"zz"}, 0, rules_of(instance, instance.old_config), make_report()
        )
        assert pieces is None

    def test_split_partitions_emissions(self, instance):
        cls = self.old_class(instance)
        config = rules_of(instance, instance.config_at({"v2": 0}, 0))
        split = _split_class(instance, cls, {"v2"}, 0, config, make_report())
        assert split is not None
        keep, fresh = split
        (deflected,) = fresh
        # v2 sits at offset 1: emissions >= -1 deflect.
        assert (keep.lo, keep.hi) == (None, -2)
        assert (deflected.lo, deflected.hi) == (-1, None)
        assert deflected.nodes == ("v1", "v2", "v6")
        assert deflected.fresh_from == 1

    def test_threshold_beyond_interval_is_ignored(self, instance):
        cls = FlowClass(
            lo=0, hi=0,
            nodes=instance.old_path,
            offsets=tuple(range(len(instance.old_path))),
        )
        # Updating v5 at time 100: emission 0 passes v5 at t=4 < 100.
        config = rules_of(instance, instance.config_at({"v5": 100}, 100))
        pieces = _split_class(instance, cls, {"v5"}, 100, config, make_report())
        assert pieces is None

    def test_looped_class_not_extended_past_kill_point(self, instance):
        looped = FlowClass(
            lo=0, hi=5,
            nodes=("v1", "v2", "v3", "v4", "v3"),
            offsets=(0, 1, 2, 3, 4),
            outcome=LOOPED,
            loop_node="v3",
        )
        # Updating v3 (the final, revisited position) must not resurrect
        # the already-killed units...
        config = rules_of(instance, instance.config_at({"v3": 0}, 0))
        split = _split_class(instance, looped, {"v3"}, 0, config, make_report())
        # ...but the first v3 occurrence (offset 2) still deflects them.
        assert split is not None
        _trim, fresh = split
        for piece in fresh:
            if piece.outcome == DELIVERED:
                assert piece.nodes[:3] == ("v1", "v2", "v3")

    def test_multiple_hits_partition_by_first_deflection(self, instance):
        cls = self.old_class(instance)
        config = rules_of(instance, instance.config_at({"v2": 0, "v4": 0}, 0))
        report = make_report()
        split = _split_class(instance, cls, {"v2", "v4"}, 0, config, report)
        # Three pieces: keep, deflect-at-v4 (older emissions), deflect-at-v2.
        assert split is not None
        keep, fresh = split
        assert keep is not None and len(fresh) == 2
        assert keep.nodes == instance.old_path
        assert keep.hi == -4  # emissions reaching v4 before t=0


class TestSweepLink:
    def test_disjoint_intervals_no_congestion(self):
        spans = _sweep_link(("a", "b"), 1.0, [(0, 4, 1.0), (5, 9, 1.0)], 0)
        assert spans == []

    def test_overlap_reports_span(self):
        spans = _sweep_link(("a", "b"), 1.0, [(0, 4, 1.0), (3, 9, 1.0)], 0)
        assert len(spans) == 1
        assert (spans[0].start, spans[0].end) == (3, 4)
        assert spans[0].load == pytest.approx(2.0)

    def test_demand_below_capacity_tolerated(self):
        spans = _sweep_link(("a", "b"), 2.0, [(0, 4, 1.0), (3, 9, 1.0)], 0)
        assert spans == []

    def test_open_ended_intervals_clamped(self):
        spans = _sweep_link(("a", "b"), 1.0, [(None, 5, 1.0), (3, None, 1.0)], 0)
        assert len(spans) == 1
        assert (spans[0].start, spans[0].end) == (3, 5)

    def test_heterogeneous_demands(self):
        spans = _sweep_link(
            ("a", "b"), 1.0, [(0, 9, 0.5), (2, 4, 0.4), (3, 3, 0.3)], 0
        )
        assert len(spans) == 1
        assert (spans[0].start, spans[0].end) == (3, 3)
        assert spans[0].load == pytest.approx(1.2)

    def test_single_oversized_interval(self):
        spans = _sweep_link(("a", "b"), 1.0, [(0, 2, 1.5)], 0)
        assert len(spans) == 1
        assert spans[0].load == pytest.approx(1.5)

    def test_span_clipped_at_t0(self):
        spans = _sweep_link(("a", "b"), 1.0, [(-5, 5, 1.0), (-5, 5, 1.0)], 0)
        assert len(spans) == 1
        assert spans[0].start == 0


class TestSweepFastPaths:
    """The sweep's early exits must never change its verdict."""

    def test_total_load_within_capacity_exits_even_with_overlap(self):
        spans = _sweep_link(("a", "b"), 3.0, [(0, 9, 1.0), (0, 9, 1.0), (0, 9, 1.0)], 0)
        assert spans == []

    def test_disjoint_open_ended_intervals_exit(self):
        # Total load exceeds capacity but the intervals never stack.
        spans = _sweep_link(("a", "b"), 1.0, [(None, 0, 1.0), (1, None, 1.0)], 0)
        assert spans == []

    def test_fully_open_overlap_reports_precise_clamps(self):
        # Two always-on streams: the slow path must clamp just outside the
        # finite coordinates (here: none, so +/-1), not at the sentinels.
        spans = _sweep_link(("a", "b"), 1.0, [(None, None, 1.0), (None, None, 1.0)], 0)
        assert len(spans) == 1
        assert (spans[0].start, spans[0].end) == (0, 1)
        assert spans[0].load == pytest.approx(2.0)

    def test_empty_intervals_are_ignored(self):
        spans = _sweep_link(("a", "b"), 1.0, [(5, 3, 1.0), (0, 2, 1.0), (1, 2, 1.0)], 0)
        assert len(spans) == 1
        assert (spans[0].start, spans[0].end) == (1, 2)

    def test_matches_brute_force_on_random_inputs(self):
        import random as _random

        rng = _random.Random(7)
        for _ in range(200):
            intervals = []
            # The sweep's clamping contract allows at most one minus- and
            # one plus-infinite interval per link (see its docstring).
            open_lo_left = open_hi_left = 1
            for _ in range(rng.randint(1, 6)):
                lo = rng.randint(-8, 8)
                hi = lo + rng.randint(0, 6)
                if open_lo_left and rng.random() < 0.15:
                    lo = None
                    open_lo_left = 0
                if open_hi_left and rng.random() < 0.15:
                    hi = None
                    open_hi_left = 0
                intervals.append((lo, hi, rng.choice([0.5, 1.0, 1.5])))
            capacity = rng.choice([1.0, 1.5, 2.0])
            spans = _sweep_link(("a", "b"), capacity, intervals, 0)
            # Brute force over the window the sweep reports in: open ends
            # are clamped one past the last finite coordinate (the load is
            # constant beyond it), so only check up to that point.
            finite = [x for lo, hi, _ in intervals for x in (lo, hi) if x is not None]
            pos = (max(finite) if finite else 0) + 1
            for t in range(0, pos + 1):
                load = sum(
                    demand
                    for lo, hi, demand in intervals
                    if (lo is None or lo <= t) and (hi is None or t <= hi)
                )
                covered = any(s.start <= t <= s.end for s in spans)
                assert covered == (load > capacity + 1e-9), (
                    f"t={t} load={load} capacity={capacity} intervals={intervals}"
                )


class TestTrimInPlace:
    """Narrowing commits replace the class object, keeping its id."""

    def test_trim_keeps_class_id_and_narrows_bounds(self, instance):
        tracker = IntervalTracker(instance)
        (initial_cid,) = tracker._alive
        before = tracker._classes[initial_cid]
        tracker.apply_round(["v2"], 0)
        # The initial class survives under the same id, trimmed to the
        # emissions that pass v2 before the update.
        assert initial_cid in tracker._alive
        trimmed = tracker._classes[initial_cid]
        assert trimmed is not before
        assert trimmed.nodes == before.nodes
        assert trimmed.hi == -2  # v2 sits at offset 1; threshold 0 - 1

    def test_warm_memo_agrees_with_cold_tracker(self, instance):
        warm = IntervalTracker(instance)
        preview(warm, ["v2"], 0)  # populate the per-link entry memos
        warm.apply_round(["v2"], 0)
        preview(warm, ["v3"], 1)
        warm.apply_round(["v3"], 1)
        cold = IntervalTracker(instance)
        cold.apply_round(["v2"], 0)
        cold.apply_round(["v3"], 1)
        assert warm.congestion_spans() == cold.congestion_spans()
        for link in instance.network.links:
            key = (link.src, link.dst)
            assert sorted(
                link_departure_spans(warm, *key), key=repr
            ) == sorted(link_departure_spans(cold, *key), key=repr)

    def test_probe_and_commit_matches_preview_apply(self, instance):
        a = IntervalTracker(instance)
        b = IntervalTracker(instance)
        report_a = a.probe_and_commit(["v2"], 0)
        full = preview(b, ["v2"], 0)
        report_b = b.apply_round(["v2"], 0)
        assert report_a.ok == full.ok == report_b.ok
        assert a.applied == b.applied
        assert a.congestion_spans() == b.congestion_spans()

    @pytest.mark.parametrize("layout", ["dict", "array"])
    def test_failed_probe_leaves_tracker_untouched(self, instance, layout):
        # The background fills v2's new link, so moving v2 overloads it.
        tracker = (IntervalTracker if layout == "dict" else ArrayIntervalTracker)(
            instance, background={("v2", "v6"): [(None, None, instance.demand)]}
        )
        spans_before = tracker.congestion_spans()
        report = tracker.probe_and_commit(["v2"], 0)
        assert not report.ok
        assert tracker.applied == {}
        assert tracker.congestion_spans() == spans_before


class TestNodeIndexConsistency:
    def test_indexes_track_class_lifecycle(self, instance):
        tracker = IntervalTracker(instance)
        tracker.apply_round(["v2"], 0)
        tracker.apply_round(["v3"], 1)
        # Every alive class id referenced by the indexes must exist; every
        # alive class must be findable through its nodes and links.
        for cid in tracker._alive:
            cls = tracker._classes[cid]
            for node in cls.nodes:
                assert cid in tracker._node_index[node]
            for link in cls.link_positions():
                assert cid in tracker._link_index[link]


def _drawn_world(kind, size, seed, background_seed):
    """An instance of ``kind`` with dyadic background loads on a few links
    (dyadic, so any summation order gives the same float)."""
    if kind == "random":
        instance = random_instance(size, seed=seed, capacity=2.0)
    else:
        instance = mixed_instance(size, seed)
    rng = random.Random(background_seed)
    links = [(link.src, link.dst) for link in instance.network.links]
    background = {}
    for link in rng.sample(links, min(len(links), rng.randint(0, 3))):
        lo = rng.choice([None, rng.randint(-4, 6)])
        hi = rng.choice([None, rng.randint(6, 16)])
        background[link] = [(lo, hi, rng.choice([0.25, 0.5, 1.0]))]
    return instance, background


def _random_rounds(instance, seed):
    """Chronological random rounds over every switch to update (any order,
    so loops and black holes occur)."""
    rng = random.Random(seed)
    pending = list(instance.switches_to_update)
    rng.shuffle(pending)
    time = rng.randint(-2, 2)
    while pending:
        size = rng.randint(1, min(3, len(pending)))
        yield pending[:size], time
        pending = pending[size:]
        time += rng.randint(0, 3)


class TestFastPathsEqualDefinitions:
    """The probe kernel's shortcuts against what they stand for, on drawn
    worlds driven through chronological random rounds."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.sampled_from(["random", "mixed"]),
        size=st.integers(8, 24),
        seed=st.integers(0, 10_000),
        background_seed=st.integers(0, 10_000),
        rounds_seed=st.integers(0, 10_000),
    )
    def test_fast_paths(self, kind, size, seed, background_seed, rounds_seed):
        instance, background = _drawn_world(kind, size, seed, background_seed)
        network = instance.network
        tracker = IntervalTracker(instance, background=background)
        for nodes, time in _random_rounds(instance, rounds_seed):
            # The lazy configuration reads the rules of what ``config_at``
            # builds: next hop, the id of the link to it, its delay.
            updated = dict(tracker.applied, **dict.fromkeys(nodes, time))
            config = instance.config_at(updated, time)
            table = tracker._links
            lazy = _round_rules(table, tracker._applied, set(nodes))
            for node in network.switches:
                rule = lazy(node)
                if rule is None:
                    assert config.get(node) is None, node
                else:
                    nxt, link, delay = rule
                    assert nxt == config.get(node), node
                    assert table.keys[link] == (node, nxt)
                    assert delay == network.delay(node, nxt)
            # Every deflected piece's offsets are its trajectory's delays.
            _pieces, _trims, deflected, _removed, _report = tracker._split(nodes, time)
            for piece in deflected:
                assert list(piece.offsets) == arrival_offsets(network, piece.nodes)
            tracker.apply_round(nodes, time)
            for cls in tracker.classes:
                scan = {}
                for index, node in enumerate(cls.nodes):
                    scan.setdefault(node, []).append(index)
                assert cls.node_positions() == scan
                assert list(cls.offsets) == arrival_offsets(network, cls.nodes)
                assert [table.keys[link] for link in cls.links] == list(
                    zip(cls.nodes, cls.nodes[1:])
                )
            # Links whose load fits skip the sweep: same spans as sweeping
            # every link's full interval list.
            swept = []
            loaded = {table.keys[link] for link in tracker._link_index}
            for link in sorted(loaded | set(background)):
                intervals = [
                    (lo, hi, instance.demand)
                    for lo, hi in link_departure_spans(tracker, *link)
                ]
                intervals += background.get(link, [])
                swept += _sweep_link(link, network.capacity(*link), intervals, tracker.t0)
            swept.sort(key=lambda span: (span.start, span.link))
            assert tracker.congestion_spans() == swept


class TestDrainedSkip:
    """A single-switch probe counts a class as untouched without splitting
    it exactly when splitting it would change nothing."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.sampled_from(["random", "mixed"]),
        size=st.integers(8, 24),
        seed=st.integers(0, 10_000),
        background_seed=st.integers(0, 10_000),
        rounds_seed=st.integers(0, 10_000),
    )
    def test_skip_taken_iff_split_is_none(self, kind, size, seed, background_seed, rounds_seed):
        instance, background = _drawn_world(kind, size, seed, background_seed)
        tracker = IntervalTracker(instance, background=background)
        skipped = split = 0
        for nodes, time in _random_rounds(instance, rounds_seed):
            for node in instance.switches_to_update:
                if node in tracker._applied:
                    continue
                config = _round_rules(tracker._links, tracker._applied, {node})
                for cls in tracker.classes:
                    if node not in cls.nodes:
                        continue
                    untouched = _split_class(
                        instance, cls, {node}, time, config, make_report()
                    ) is None
                    assert _drained(cls, node, time) == untouched, (cls, node, time)
                    skipped += untouched
                    split += not untouched
            tracker.apply_round(nodes, time)
        assert skipped + split > 0


class TestLoopGates:
    """Algorithm 4 as a range query over the committed gates answers what
    the scan over every committed switch answers."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["random", "mixed", "fig1"]),
        size=st.integers(6, 30),
        seed=st.integers(0, 10_000),
        horizon=st.integers(1, 30),
    )
    def test_gate_query_equals_the_scan(self, kind, size, seed, horizon):
        if kind == "fig1":
            instance = motivating_example()
        elif kind == "random":
            instance = random_instance(size, seed=seed)
        else:
            instance = mixed_instance(size, seed)
        rng = random.Random(seed)
        pending = list(instance.switches_to_update)
        rng.shuffle(pending)
        gates = LoopGates(instance)
        applied = {}
        while True:
            for v in pending:
                for t in (0, horizon // 2, horizon, horizon + rng.randint(1, 2 * size)):
                    assert gates.creates_loop(v, t) == creates_forwarding_loop(
                        instance, applied, v, t
                    ), (v, t, applied)
            if not pending:
                break
            node = pending.pop()
            applied[node] = rng.randint(0, horizon)
            gates.commit(node, applied[node])


class TestCongestedStart:
    """With a background that congests the initial state, greedy's
    ``feasible`` is the final state's verdict (no stall, no violation)."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.sampled_from(["random", "mixed"]),
        size=st.integers(6, 20),
        seed=st.integers(0, 10_000),
        background_seed=st.integers(0, 10_000),
    )
    def test_feasible_is_the_final_verdict(self, kind, size, seed, background_seed):
        instance, background = _drawn_world(kind, size, seed, background_seed)
        rng = random.Random(background_seed)
        path = instance.old_path
        link = rng.choice(list(zip(path, path[1:])))
        lo = rng.randint(-2, 12)
        hi = rng.choice([None, lo + rng.randint(0, 8)])
        # Dyadic, so every summation order gives the same float.
        background.setdefault(link, []).append((lo, hi, instance.network.capacity(*link)))
        assume(not IntervalTracker(instance, background=background).ok)
        result = greedy_schedule(instance, background=background)
        final = replay_schedule(instance, result.schedule, background=background)
        assert result.feasible == (
            result.stalled_at is None and not result.violations and final.ok
        )


class TestFlowClassValueSemantics:
    """Equality, hashing and ``repr`` over the public fields, as the
    dataclasses ``FlowClass`` (frozen) and ``RoundReport`` defined them."""

    def test_round_report(self):
        report = RoundReport(time=3, nodes=("v2",))
        assert repr(report) == (
            "RoundReport(time=3, nodes=('v2',), loops=[], blackholes=[], congestion=[])"
        )
        assert report == RoundReport(3, ("v2",), [], [], [])
        assert report != RoundReport(time=3, nodes=("v2",), loops=[(0, "v3")])
        assert report.ok and not RoundReport(time=3, nodes=(), blackholes=[(1, "v4")]).ok
        with pytest.raises(TypeError):
            hash(report)

    def test_keyword_constructions_used_by_the_tests(self):
        cls = FlowClass(lo=2, hi=5, nodes=("a", "b", "c"), offsets=(0, 1, 3))
        assert repr(cls) == (
            "FlowClass(lo=2, hi=5, nodes=('a', 'b', 'c'), offsets=(0, 1, 3), "
            "outcome='delivered', loop_node=None, fresh_from=0)"
        )
        looped = FlowClass(
            lo=0, hi=5, nodes=("v1", "v2", "v3", "v4", "v3"), offsets=(0, 1, 2, 3, 4),
            outcome=LOOPED, loop_node="v3",
        )
        assert repr(looped) == (
            "FlowClass(lo=0, hi=5, nodes=('v1', 'v2', 'v3', 'v4', 'v3'), "
            "offsets=(0, 1, 2, 3, 4), outcome='looped', loop_node='v3', fresh_from=0)"
        )
        assert cls != looped and cls.__eq__(object()) is NotImplemented

    @given(
        lo=st.one_of(st.none(), st.integers(-50, 50)),
        hi=st.one_of(st.none(), st.integers(-50, 50)),
        length=st.integers(1, 6),
        outcome=st.sampled_from([DELIVERED, BLACKHOLE, LOOPED]),
        loop_node=st.one_of(st.none(), st.sampled_from(["a", "b"])),
        fresh_from=st.integers(0, 6),
    )
    def test_value_semantics(self, lo, hi, length, outcome, loop_node, fresh_from):
        nodes = tuple("abcdef"[:length])
        offsets = tuple(range(length))
        fields = (lo, hi, nodes, offsets, outcome, loop_node, fresh_from)
        cls = FlowClass(
            lo=lo, hi=hi, nodes=nodes, offsets=offsets, outcome=outcome,
            loop_node=loop_node, fresh_from=fresh_from,
        )
        twin = FlowClass(*fields)
        twin.link_positions()  # the caches take no part in equality
        twin.node_positions()
        assert cls == twin and hash(cls) == hash(twin) == hash(fields)
        assert repr(cls) == (
            f"FlowClass(lo={lo!r}, hi={hi!r}, nodes={nodes!r}, offsets={offsets!r}, "
            f"outcome={outcome!r}, loop_node={loop_node!r}, fresh_from={fresh_from!r})"
        )
        assert cls != FlowClass(*fields[:-1], fresh_from + 1)
