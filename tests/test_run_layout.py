"""The run-length class layout of the array tracker, held to the dict tracker.

An :class:`~repro.core.intervals_array.ArrayFlowClass` keeps its trajectory
as a short list of runs (old-path slices and single switches) beside the
decisive tables a probe reads; nothing in it is as long as the path
(DESIGN.md 11.3).  ``tests/test_array_tracker.py`` and
``tests/test_chain_goldens.py`` pin what the tracker *reports*; this file
pins the layout itself:

* on hypothesis-drawn segmented worlds (200-2 000 hops, 4-32 segments,
  capacity 1.0 / 2.0, background on chain-interior links or none, a round
  that names an interior switch) applied round by round on both trackers,
  every live class's on-demand columns equal the dict class's tuples, its
  decisive tables equal what those columns say, and its runs tile the
  trajectory with no gap;
* one greedy plan allocates what its junctions need, not what its path is
  long (``tracemalloc`` at 2 000 and 20 000 hops).
"""

import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.greedy import greedy_schedule
from repro.core.instance import segmented_instance
from repro.core.intervals import IntervalTracker
from repro.core.intervals_array import ArrayIntervalTracker
from tests.test_chain_goldens import interior_positions


def _key(entry):
    lo, hi, nodes, _offsets = entry
    return (lo is None, lo or 0, hi is None, hi or 0, nodes)


def _assert_layout(dict_tracker, array_tracker, label):
    arrays = array_tracker.arrays
    names = arrays.names
    path_length = arrays.old_path_ids.size
    columns = []
    for cls in array_tracker.classes:
        view = cls.view()
        nodes, lids, offsets = view.nodes, view.lids, view.offsets
        columns.append(
            (cls.lo, cls.hi, tuple(names[i] for i in nodes.tolist()), tuple(offsets.tolist()))
        )

        # Runs tile [0, length): ascending from 0, each inside the old path
        # or one switch long, the next starting where the last ends.
        assert cls.length == nodes.size == offsets.size == lids.size + 1, label
        assert cls.run_pos[0] == 0, label
        ends = cls.run_pos[1:] + [cls.length]
        for pos, start, end in zip(cls.run_pos, cls.run_start, ends):
            assert pos < end, (label, cls.run_pos)
            if start < 0:
                assert end - pos == 1, label
            else:
                assert start + (end - pos) <= path_length, label
        assert len(cls.run_pos) == len(cls.run_start) == len(cls.run_off), label

        # Scalar readers agree with the columns.
        assert (cls.last_node, cls.last_offset) == (int(nodes[-1]), int(offsets[-1])), label
        for position in {0, cls.length - 1, cls.length // 2, *cls.run_pos}:
            assert cls.node_at(position) == int(nodes[position]), (label, position)
            assert cls.offset_at(position) == int(offsets[position]), (label, position)

        # The decisive tables are the flagged links of the columns.
        flagged = array_tracker._decisive[lids].nonzero()[0]
        assert cls.dec_pos.tolist() == flagged.tolist(), label
        assert cls.dec_lids.tolist() == lids[flagged].tolist(), label
        assert cls.dec_offsets.tolist() == offsets[cls.dec_pos].tolist(), label
        for node, position in cls.junction_positions().items():
            assert int(nodes[position]) == node, label
    expected = [
        (cls.lo, cls.hi, tuple(cls.nodes), tuple(cls.offsets))
        for cls in dict_tracker.classes
    ]
    assert sorted(columns, key=_key) == sorted(expected, key=_key), label


class TestRunsAgainstTheDictTracker:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def test_every_round_leaves_equal_classes(self, data):
        draw = data.draw
        capacity = draw(st.sampled_from((1.0, 2.0)), label="capacity")
        instance = segmented_instance(
            draw(st.integers(200, 2000), label="hops"),
            seed=draw(st.integers(0, 10_000), label="seed"),
            segments=draw(st.integers(4, 32), label="segments"),
            capacity=capacity,
        )
        path = instance.old_path
        interior = interior_positions(instance)
        background = None
        if draw(st.booleans(), label="background"):
            bound = st.none() | st.integers(-5, 60)
            picks = draw(
                st.lists(st.sampled_from(interior), min_size=1, max_size=3, unique=True),
                label="loaded links",
            )
            background = {
                (path[i], path[i + 1]): [
                    draw(st.tuples(bound, bound, st.sampled_from((0.25, 0.5))))
                ]
                for i in picks
            }
        dict_tracker = IntervalTracker(instance, background=background)
        array_tracker = ArrayIntervalTracker(instance, background=background)
        _assert_layout(dict_tracker, array_tracker, "initial")

        order = list(draw(st.permutations(instance.switches_to_update), label="order"))
        steps = draw(st.integers(2, 10), label="rounds")
        # One round names a switch whose rule stays: a split inside a run.
        interior_step = draw(st.integers(0, steps - 1), label="interior round")
        time = 0
        for step in range(steps):
            nodes = [order.pop() for _ in range(min(len(order), draw(st.integers(1, 3))))]
            if step == interior_step:
                nodes.append(path[draw(st.sampled_from(interior), label="interior switch")])
            if not nodes:
                break
            label = f"round {step} t={time} nodes={nodes}"
            expected = dict_tracker.apply_round(nodes, time)
            report = array_tracker.apply_round(nodes, time)
            assert (report.loops, report.blackholes, report.congestion) == (
                expected.loops,
                expected.blackholes,
                expected.congestion,
            ), label
            _assert_layout(dict_tracker, array_tracker, label)
            time += draw(st.integers(0, 3))

    def test_a_deflection_shares_its_parents_runs(self):
        """The piece's first runs *are* the parent's entries, cut by length alone."""
        instance = segmented_instance(1200, seed=5, segments=8)
        tracker = ArrayIntervalTracker(instance)
        for when, node in enumerate(instance.switches_to_update[:6]):
            tracker.apply_round([node], 3 * when)
        pieces = [cls for cls in tracker.classes if 0 < cls.fresh_from < cls.length]
        assert pieces
        for piece in pieces:
            shared = sum(1 for pos in piece.run_pos if pos <= piece.fresh_from)
            # Runs, not hops: every run but the first ends on its own junction.
            assert len(piece.run_pos) <= len(tracker.arrays.junctions) + 1
            assert any(
                other is not piece
                and other.run_pos[:shared] == piece.run_pos[:shared]
                and other.run_start[:shared] == piece.run_start[:shared]
                and other.run_off[:shared] == piece.run_off[:shared]
                for other in tracker._classes.values()
            )


def _plan_bytes(size, seed):
    """Peak bytes one greedy plan allocates on a warm instance."""
    instance = segmented_instance(size, seed=seed)
    result = greedy_schedule(instance)  # the instance's cached encodings
    assert result.feasible
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        greedy_schedule(instance)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def test_a_plan_allocates_for_its_junctions_not_its_path():
    """Ten times the path, the same four segments: about the same bytes.

    With full-length ``nodes`` / ``lids`` / ``offsets`` per deflected piece
    and a next-hop table per tracker and clone, the 20 000-hop plan
    allocated 7x what the 2 000-hop one did (11.8 MB against 1.7 MB).
    """
    for seed in (5, 11, 42):
        small = _plan_bytes(2000, seed)
        large = _plan_bytes(20000, seed)
        assert large <= 1.5 * small, (seed, small, large)


def test_view_is_exact_for_a_single_switch_off_the_old_path():
    """A run that is one switch the old path never visits."""
    from repro.core.instance import instance_from_paths
    from repro.network.graph import Network

    old_path = ["s", *[f"c{i}" for i in range(210)], "d"]
    network = Network()
    for src, dst in zip(old_path, old_path[1:]):
        network.add_link(src, dst, capacity=1.0, delay=2)
    network.add_link("c3", "x", capacity=1.0, delay=5)
    network.add_link("x", "c100", capacity=1.0, delay=7)
    new_path = ["s", "c0", "c1", "c2", "c3", "x", *old_path[101:]]
    instance = instance_from_paths(network, old_path, new_path)
    dict_tracker = IntervalTracker(instance)
    array_tracker = ArrayIntervalTracker(instance)
    for tracker in (dict_tracker, array_tracker):
        tracker.apply_round(["x"], 0)
        tracker.apply_round(["c3"], 4)
    _assert_layout(dict_tracker, array_tracker, "off-path switch")
    rerouted = [cls for cls in array_tracker.classes if cls.fresh_from]
    assert any(start < 0 for cls in rerouted for start in cls.run_start)
    assert np.array_equal(
        array_tracker.classes[-1].view().nodes[:5],
        [array_tracker.arrays.id_of[name] for name in ("s", "c0", "c1", "c2", "c3")],
    )
