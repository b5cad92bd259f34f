"""Differential tests: ArrayIntervalTracker == IntervalTracker.

The struct-of-arrays tracker is an *encoding* change, not an algorithm
change: on every instance and round sequence it must report exactly what
the dict tracker reports -- same round reports (loops, black holes,
congestion spans), same committed state (applied times, per-link
departure timelines, loads), same error behaviour.  These tests drive
both trackers in lockstep through seeded random round sequences (clean
and violating alike) and compare everything observable at every step.

One report is not compared byte for byte: a refused ``probe_and_commit``
returns a *witness* (DESIGN.md 7.4), which each tracker cuts where its own
work stops.  Those are held to the probe contract instead
(:class:`TestProbeContract`), against the full report
:func:`tests.test_intervals.preview` computes without committing.  An
undoable commit taken back leaves each tracker as if it had never been
made (:class:`TestUndoRoundTrip`).
"""

import bisect
import random
from array import array
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.instance import (
    instance_from_paths,
    motivating_example,
    nested_reversal_instance,
    random_instance,
    reversal_instance,
    segmented_instance,
)
from repro.core.intervals import BLACKHOLE, DELIVERED, LOOPED, IntervalTracker
from repro.core.intervals_array import (
    ArrayFlowClass,
    ArrayIntervalTracker,
    instance_arrays,
)
from repro.network.graph import Network
from repro.trace import TraceSession, aggregate
from tests.test_chain_goldens import assert_witness, interior_positions, perform, rebuilt
from tests.test_intervals import link_departure_spans, load_at, preview, undoable_commit


def _pair(instance, t0=0, background=None):
    return (
        IntervalTracker(instance, t0=t0, background=background),
        ArrayIntervalTracker(instance, t0=t0, background=background),
    )


def _class_key(entry):
    """Sort key over (lo, hi, nodes) tolerant of open (None) bounds."""
    lo, hi, nodes = entry
    return (
        lo is None,
        lo if lo is not None else 0,
        hi is None,
        hi if hi is not None else 0,
        nodes,
    )


def _class_entries(tracker):
    """``(lo, hi, switch names)`` of every live class, either layout, sorted."""
    entries = ((cls.lo, cls.hi, tuple(cls.switch_names())) for cls in tracker.classes)
    return sorted(entries, key=_class_key)


def _keyed_classes(tracker):
    """``{id(cls): sort key}`` and the live classes in key order."""
    keys = {
        id(cls): _class_key((cls.lo, cls.hi, tuple(cls.switch_names())))
        for cls in tracker.classes
    }
    return keys, sorted(tracker.classes, key=lambda cls: keys[id(cls)])


def _assert_states_match(dict_tracker, array_tracker, label):
    """Every observable of the two trackers agrees (any two layouts)."""
    assert array_tracker.applied == dict_tracker.applied, label
    assert array_tracker.loops == dict_tracker.loops, label
    assert array_tracker.blackholes == dict_tracker.blackholes, label
    assert array_tracker.congestion_spans() == dict_tracker.congestion_spans(), label
    assert array_tracker.ok == dict_tracker.ok, label
    assert (
        array_tracker.finite_drain_horizon() == dict_tracker.finite_drain_horizon()
    ), label
    # Class sets agree up to ordering of (bounds, trajectory); matched that
    # way, each pair agrees on its delay at every position.
    assert _class_entries(array_tracker) == _class_entries(dict_tracker), label
    (dict_keys, dict_classes), (array_keys, array_classes) = (
        _keyed_classes(dict_tracker),
        _keyed_classes(array_tracker),
    )
    pairs = list(zip(dict_classes, array_classes))
    for dict_cls, array_cls in pairs:
        for position in range(len(dict_cls.switch_names())):
            assert array_cls.offset_at(position) == dict_cls.offset_at(position), (
                label,
                position,
            )
    # Per link: the same departures, the same classes crossing it at the
    # same offsets, and ``crosses`` says so for every class.
    for link in dict_tracker.instance.network.links:
        src, dst = link.src, link.dst
        assert link_departure_spans(array_tracker, src, dst) == link_departure_spans(
            dict_tracker, src, dst
        ), (label, link)
        assert sorted(
            (array_keys[id(cls)], offset) for cls, offset in array_tracker.crossings(src, dst)
        ) == sorted(
            (dict_keys[id(cls)], offset) for cls, offset in dict_tracker.crossings(src, dst)
        ), (label, link)
        for dict_cls, array_cls in pairs:
            assert array_tracker.crosses(array_cls, src, dst) == dict_tracker.crosses(
                dict_cls, src, dst
            ), (label, link)


def _assert_reports_match(dict_report, array_report, label):
    assert array_report.time == dict_report.time, label
    assert array_report.nodes == dict_report.nodes, label
    assert array_report.loops == dict_report.loops, label
    assert array_report.blackholes == dict_report.blackholes, label
    assert array_report.congestion == dict_report.congestion, label
    assert array_report.ok == dict_report.ok, label


def _random_rounds(instance, rng):
    """A full random update order split into rounds at increasing times."""
    nodes = list(instance.switches_to_update)
    rng.shuffle(nodes)
    rounds = []
    time = rng.randint(0, 2)
    index = 0
    while index < len(nodes):
        width = rng.randint(1, min(3, len(nodes) - index))
        rounds.append((time, nodes[index : index + width]))
        index += width
        time += rng.randint(1, 3)
    return rounds


def _sample_loads(dict_tracker, array_tracker, label):
    instance = dict_tracker.instance
    for link in instance.network.links:
        for time in (-5, 0, 1, 3, 7, 20):
            assert load_at(array_tracker, link.src, link.dst, time) == pytest.approx(
                load_at(dict_tracker, link.src, link.dst, time)
            ), (label, link, time)


class TestLockstepApply:
    """apply_round commits violating rounds too; both trackers must agree."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances(self, seed):
        instance = random_instance(4 + seed % 11, seed=9100 + seed, max_delay=3)
        rng = random.Random(7000 + seed)
        dict_tracker, array_tracker = _pair(instance)
        for time, nodes in _random_rounds(instance, rng):
            label = f"seed={seed} round t={time} nodes={nodes}"
            _assert_reports_match(
                dict_tracker.apply_round(nodes, time),
                array_tracker.apply_round(nodes, time),
                label,
            )
            _assert_states_match(dict_tracker, array_tracker, label)
        _sample_loads(dict_tracker, array_tracker, f"seed={seed} final")

    @pytest.mark.parametrize("seed", range(20))
    def test_segmented_instances(self, seed):
        instance = segmented_instance(
            12 + seed % 9, seed=9600 + seed, segments=2 + seed % 3
        )
        rng = random.Random(8000 + seed)
        dict_tracker, array_tracker = _pair(instance)
        for time, nodes in _random_rounds(instance, rng):
            label = f"segmented seed={seed} t={time}"
            _assert_reports_match(
                dict_tracker.apply_round(nodes, time),
                array_tracker.apply_round(nodes, time),
                label,
            )
            _assert_states_match(dict_tracker, array_tracker, label)

    @pytest.mark.parametrize("count", range(4, 10))
    def test_reversal_instances(self, count):
        instance = reversal_instance(count)
        rng = random.Random(count)
        dict_tracker, array_tracker = _pair(instance)
        for time, nodes in _random_rounds(instance, rng):
            label = f"reversal count={count} t={time}"
            _assert_reports_match(
                dict_tracker.apply_round(nodes, time),
                array_tracker.apply_round(nodes, time),
                label,
            )
            _assert_states_match(dict_tracker, array_tracker, label)


def _lockstep_probe(dict_tracker, array_tracker, nodes, time, label):
    """``probe_and_commit`` on both; returns the dict tracker's report.

    Accepted probes report byte-equal; refused ones are each a witness of
    the (byte-equal) full report -- the two may stop at different lengths.
    """
    full = preview(dict_tracker, nodes, time)
    _assert_reports_match(full, preview(array_tracker, nodes, time), label)
    dict_report = dict_tracker.probe_and_commit(nodes, time)
    array_report = array_tracker.probe_and_commit(nodes, time)
    if full.ok:
        _assert_reports_match(full, dict_report, label)
        _assert_reports_match(full, array_report, label)
    else:
        assert_witness(dict_report, full, label)
        assert_witness(array_report, full, label)
    return dict_report


class TestLockstepProbe:
    """probe_and_commit commits exactly when clean; states must not drift."""

    @pytest.mark.parametrize("seed", range(30))
    def test_probe_sequences(self, seed):
        instance = random_instance(5 + seed % 9, seed=9900 + seed, max_delay=3)
        rng = random.Random(5000 + seed)
        dict_tracker, array_tracker = _pair(instance)
        time = 0
        for node in sorted(instance.switches_to_update, key=str):
            label = f"probe seed={seed} node={node} t={time}"
            dict_report = _lockstep_probe(dict_tracker, array_tracker, [node], time, label)
            _assert_states_match(dict_tracker, array_tracker, label)
            if dict_report.ok:
                time += rng.randint(1, 2)
            else:
                # A rejected probe must leave both trackers untouched; the
                # node is retried later at a strictly larger time.
                time += rng.randint(2, 4)
                _lockstep_probe(dict_tracker, array_tracker, [node], time, label)
                time += 1

    @pytest.mark.parametrize("seed", range(40))
    def test_sequential_probes_decide_like_joint_previews(self, seed):
        """Greedy's round selection, at tracker level.

        Probing candidates one at a time with ``probe_and_commit`` into a
        live tracker accepts exactly the candidates whose joint round
        ``accepted + [candidate]`` is clean on the round's starting state
        -- on both trackers, for random candidate orders (most of which
        violate).  The starting state is kept by a second pair that probes
        the accepted candidates once the round is decided.
        """
        instance = random_instance(5 + seed % 9, seed=9900 + seed, max_delay=3)
        rng = random.Random(6000 + seed)
        start, live = _pair(instance), _pair(instance)
        pending = list(instance.switches_to_update)
        for time in range(4 * len(instance.network)):
            if not pending:
                break
            rng.shuffle(pending)
            accepted = []
            for node in pending:
                label = f"seed={seed} t={time} accepted={accepted} node={node}"
                joint = preview(start[0], accepted + [node], time)
                _assert_reports_match(joint, preview(start[1], accepted + [node], time), label)
                for tracker in live:
                    assert tracker.probe_and_commit([node], time).ok == joint.ok, label
                if joint.ok:
                    accepted.append(node)
            for node in accepted:
                for tracker in start:
                    assert tracker.probe_and_commit([node], time).ok
            _assert_states_match(*live, f"seed={seed} t={time}")
            _assert_states_match(start[0], live[0], f"seed={seed} t={time} dict")
            pending = [node for node in pending if node not in accepted]

    def test_preview_commits_nothing(self, seed=3):
        instance = random_instance(8, seed=seed, max_delay=3)
        dict_tracker, array_tracker = _pair(instance)
        node = instance.switches_to_update[0]
        _assert_reports_match(
            preview(dict_tracker, [node], 0),
            preview(array_tracker, [node], 0),
            "preview",
        )
        assert array_tracker.applied == {}
        _assert_states_match(dict_tracker, array_tracker, "after preview")


class TestProbeContract:
    """What ``probe_and_commit`` promises, on each tracker by itself.

    ``.ok`` is the full report's (:func:`tests.test_intervals.preview`);
    refused, the tracker is untouched and every list of the report is a
    prefix of the full one's; accepted, report and state are those of
    ``apply_round`` on a twin tracker driven in lockstep, byte for byte.
    """

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def test_probe_is_a_witness_of_the_preview(self, data):
        draw = data.draw
        seed = draw(st.integers(0, 10_000), label="seed")
        if draw(st.booleans(), label="global reroute"):
            instance = random_instance(draw(st.integers(4, 16), label="n"), seed=seed, max_delay=3)
        else:
            instance = segmented_instance(
                draw(st.integers(12, 240), label="n"),
                seed=seed,
                segments=draw(st.integers(1, 6), label="segments"),
            )
            instance = rebuilt(instance, unit_delays=draw(st.booleans(), label="unit_delays"))
        links = [(link.src, link.dst) for link in instance.network.links]
        bound = st.none() | st.integers(-5, 40)
        background = draw(
            st.dictionaries(
                st.sampled_from(links),
                st.lists(
                    st.tuples(bound, bound, st.sampled_from((0.25, 0.5, 1.0))),
                    min_size=1,
                    max_size=2,
                ),
                max_size=4,
            ),
            label="background",
        )
        order = list(draw(st.permutations(instance.switches_to_update), label="order"))
        trackers = _pair(instance, background=background)
        twins = _pair(instance, background=background)
        time = draw(st.integers(0, 2), label="t0")
        while order:
            nodes = [order.pop() for _ in range(min(len(order), draw(st.integers(1, 3))))]
            force = draw(st.booleans(), label="apply a refused round anyway")
            verdicts = []
            for tracker, twin in zip(trackers, twins):
                label = f"{type(tracker).__name__} t={time} nodes={nodes}"
                full = preview(tracker, nodes, time)
                probe = tracker.probe_and_commit(nodes, time)
                assert_witness(probe, full, label)
                if probe.ok:
                    _assert_reports_match(twin.apply_round(nodes, time), probe, label)
                _assert_states_match(twin, tracker, label)
                if not probe.ok and force:
                    # Later probes then run over a state that already
                    # violates; a probe reports what *it* would add.
                    tracker.apply_round(nodes, time)
                    twin.apply_round(nodes, time)
                verdicts.append(probe.ok)
            assert verdicts[0] == verdicts[1]
            time += draw(st.integers(0, 3))
        _assert_states_match(*trackers, "final")

    def test_a_refusal_stops_at_its_first_witness(self):
        """Not vacuous: the shortcut world's refused probe says less than its preview."""
        instance = _shortcut_world(capacities={("t2", "t3"): 1.0, ("t5", "t6"): 1.0})
        for tracker in _pair(instance):
            full = preview(tracker, ["s"], 5)
            probe = tracker.probe_and_commit(["s"], 5)
            assert_witness(probe, full, type(tracker).__name__)
            assert {span.link for span in full.congestion} == {("t2", "t3"), ("t5", "t6")}
            assert {span.link for span in probe.congestion} == {("t2", "t3")}
            assert tracker.applied == {}


OPERATIONS = ("preview_round", "probe_and_commit", "apply_round")


class TestLongChains:
    """Worlds whose paths are mostly chain interiors (DESIGN.md 11.6).

    The instances above have 4-40 switches and almost no interior; here
    the array tracker walks runs, decides once per chain and shifts one
    sweep along it, and must still say what the dict tracker says.
    """

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def test_drawn_worlds_in_lockstep(self, data):
        draw = data.draw
        hops = draw(st.integers(200, 600), label="hops")
        capacity = draw(st.sampled_from((1.0, 2.0)), label="capacity")
        instance = segmented_instance(
            hops,
            seed=draw(st.integers(0, 10_000), label="seed"),
            segments=draw(st.integers(1, 8), label="segments"),
            capacity=capacity,
        )
        path = instance.old_path
        link_at = st.integers(0, len(path) - 2).map(lambda i: (path[i], path[i + 1]))
        instance = rebuilt(
            instance,
            capacities=draw(
                st.dictionaries(link_at, st.sampled_from((0.5, 1.0, 2.0, 3.0)), max_size=3),
                label="capacities",
            ),
            # Unit delays turn a half-updated segment into a shortcut, the
            # one way these worlds congest a whole chain.
            unit_delays=draw(st.booleans(), label="unit_delays"),
        )
        bound = st.none() | st.integers(-5, 60)
        background = draw(
            st.dictionaries(
                link_at,
                st.lists(
                    st.tuples(bound, bound, st.sampled_from((0.25, 0.5, 1.0))),
                    min_size=1,
                    max_size=2,
                ),
                max_size=3,
            ),
            label="background",
        )
        dict_tracker, array_tracker = _pair(instance, background=background)
        _assert_states_match(dict_tracker, array_tracker, "initial")
        order = list(draw(st.permutations(instance.switches_to_update), label="order"))
        interior = [path[i] for i in interior_positions(instance)]
        time = 0
        for step in range(draw(st.integers(1, 12), label="steps")):
            if not order:
                break
            nodes = [order.pop() for _ in range(min(len(order), draw(st.integers(1, 3))))]
            if interior and draw(st.booleans()):
                # A switch whose rule stays: the split starts mid-chain.
                nodes.append(interior.pop(draw(st.integers(0, len(interior) - 1))))
            operation = draw(st.sampled_from(OPERATIONS))
            label = f"step={step} {operation} t={time} nodes={nodes}"
            if operation == "probe_and_commit":
                dict_report = _lockstep_probe(
                    dict_tracker, array_tracker, nodes, time, label
                )
            else:
                dict_report = perform(dict_tracker, operation, nodes, time)
                _assert_reports_match(
                    dict_report, perform(array_tracker, operation, nodes, time), label
                )
            if operation == "preview_round" or (
                operation == "probe_and_commit" and not dict_report.ok
            ):
                order = nodes[:1] + order  # still pending; try again last
            time += draw(st.integers(0, 3))
        _assert_states_match(dict_tracker, array_tracker, "final")


def _shortcut_world(tail=200, capacities=None):
    """``s -> a -> b -> m -> t1 -> ... -> d`` rerouted over ``s -> m``.

    Capacity 2 for a demand of 1: updating ``s`` at 5 puts new flow on
    ``m``'s out-link from 6 while old flow still leaves it until 7, so for
    two steps every link of the chain behind ``m`` carries exactly its
    capacity -- clean, unless a link is given less room.
    """
    tail_nodes = [f"t{i}" for i in range(1, tail + 1)] + ["d"]
    old_path = ["s", "a", "b", "m", *tail_nodes]
    network = Network()
    for src, dst in zip(old_path, old_path[1:]):
        network.add_link(src, dst, capacity=(capacities or {}).get((src, dst), 2.0), delay=1)
    network.add_link("s", "m", capacity=2.0, delay=1)
    return instance_from_paths(network, old_path, ["s", "m", *tail_nodes])


def _without_flag(tracker, link):
    """``tracker`` rebuilt as if ``link`` were not decisive."""
    lid = tracker.arrays.lid_of(*link)
    assert tracker._decisive[lid], f"{link} is not decisive to begin with"
    tracker._decisive = tracker._decisive.copy()
    tracker._decisive[lid] = False
    tracker._path_dec = tracker.arrays.decisive_path(tracker._decisive)
    initial = tracker._classes[0]
    tracker._classes[0] = ArrayFlowClass(
        tracker.arrays,
        None,
        None,
        initial.length,
        (initial.run_pos, initial.run_start, initial.run_off),
        tuple(array("q", column) for column in tracker._path_dec),
        (initial.last_node, initial.last_offset),
    )
    return tracker


class TestDecisiveFlagClauses:
    """Each clause of the decisive flag earns its place.

    One world per clause in which exactly that clause keeps the array
    tracker right: the report equals the dict tracker's, and differs from
    it as soon as the one link the clause flags is unflagged.
    """

    CASES = {
        # A chain whose third link alone has less room, and alone overflows.
        "capacity": (dict(capacities={("t2", "t3"): 1.0}), None, ("t2", "t3")),
        # Background on the second link of the chain only: it alone overflows.
        "own background": ({}, {("t1", "t2"): [(0, 50, 1.0)]}, ("t1", "t2")),
        # ... and the link after it must not inherit that verdict.
        "predecessor's background": ({}, {("t1", "t2"): [(0, 50, 1.0)]}, ("t2", "t3")),
    }

    @pytest.mark.parametrize("clause", sorted(CASES))
    def test_clause_is_needed(self, clause):
        world, background, flagged = self.CASES[clause]
        instance = _shortcut_world(**world)
        dict_tracker, array_tracker = _pair(instance, background=background)
        expected = dict_tracker.apply_round(["s"], 5)
        assert {span.link for span in expected.congestion} == {
            ("t2", "t3") if clause == "capacity" else ("t1", "t2")
        }
        _assert_reports_match(expected, array_tracker.apply_round(["s"], 5), clause)
        _assert_states_match(dict_tracker, array_tracker, clause)

        mutant = _without_flag(
            ArrayIntervalTracker(instance, background=background), flagged
        )
        assert mutant.apply_round(["s"], 5).congestion != expected.congestion
        assert mutant.congestion_spans() != dict_tracker.congestion_spans()


class TestRunWiseDeflection:
    def _loop_world(self):
        """A 200-switch chain whose switch ``x`` is rerouted back into it."""
        chain = ["s"] + [f"c{i}" for i in range(1, 201)] + ["d"]
        old_path = chain[:101] + ["x"] + chain[101:]
        network = Network()
        for src, dst in zip(old_path, old_path[1:]):
            network.add_link(src, dst, capacity=1.0, delay=1)
        for src, dst in [("x", "y"), ("y", "c50"), ("c60", "z"), ("z", "d")]:
            network.add_link(src, dst, capacity=1.0, delay=1)
        new_path = chain[:61] + ["z", "d"]
        # Switches the new path leaves keep their rule (drain rules), so the
        # stretches either side of x stay chain interiors.
        keep = {
            src: dst for src, dst in zip(old_path, old_path[1:]) if src not in new_path
        }
        instance = instance_from_paths(
            network, old_path, new_path, extra_new_rules={**keep, "x": "y", "y": "c50"}
        )
        interior = instance_arrays(instance).interior
        assert interior[instance_arrays(instance).id_of["c80"]]
        return instance

    def test_suffix_re_entering_its_prefix_mid_chain_loops_there(self):
        """``x -> y -> c50`` lands in the middle of the stretch the flow came
        down: the earliest prefix revisit wins, however far the walk ran."""
        instance = self._loop_world()
        dict_tracker, array_tracker = _pair(instance)
        expected = dict_tracker.apply_round(["x", "y"], 3)
        assert expected.loops and expected.loops[0][1] == "c50"
        _assert_reports_match(expected, array_tracker.apply_round(["x", "y"], 3), "loop")
        _assert_states_match(dict_tracker, array_tracker, "loop")

    def test_split_starting_mid_chain(self):
        """A round naming interior ``c80`` (its rule stays) next to ``x``: the
        piece routed from ``c80`` starts inside a run, passes ``x`` and loops
        on ``c50``, which precedes its own first switch in the prefix."""
        instance = self._loop_world()
        dict_tracker, array_tracker = _pair(instance)
        for operation in ("preview_round", "apply_round"):
            _assert_reports_match(
                perform(dict_tracker, operation, ["c80", "x", "y"], 3),
                perform(array_tracker, operation, ["c80", "x", "y"], 3),
                operation,
            )
        _assert_states_match(dict_tracker, array_tracker, "mid-chain")
        # c60's update cuts the loop's feed; both trackers see the same rest.
        _assert_reports_match(
            dict_tracker.apply_round(["c60"], 9),
            array_tracker.apply_round(["c60"], 9),
            "after",
        )
        _assert_states_match(dict_tracker, array_tracker, "after")


def _scanned(tracker, lids):
    """``{lid: [(class, departure offset), ...]}`` by a from-scratch scan.

    Each alive class, ascending id, searched for every link of ``lids``
    through its decisive table sorted by link id; a non-decisive link is
    found through the decisive link heading its chain, ``rank`` links and
    ``shift`` delay before it, where a class that crosses the head crosses
    the chain.  This is how a probe found committed load before classes
    kept lookup tables.
    """
    behind = {lid: tracker._chain_head(lid) for lid in lids}
    anchors = np.array([behind[lid][0] for lid in lids], dtype=np.int64)
    found = {lid: [] for lid in lids}
    for cls in tracker.classes:
        dec_lids = np.asarray(cls.dec_lids)
        order = np.argsort(dec_lids, kind="stable")
        sorted_lids = dec_lids[order]
        if not sorted_lids.size:
            continue
        slot = np.minimum(sorted_lids.searchsorted(anchors), sorted_lids.size - 1)
        for at in (sorted_lids[slot] == anchors).nonzero()[0].tolist():
            lid = lids[at]
            _head, rank, shift = behind[lid]
            position = int(np.asarray(cls.dec_pos)[order][slot[at]]) + rank
            if position < cls.length - 1:
                offset = np.asarray(cls.dec_offsets)[order][slot[at]]
                found[lid].append((cls, int(offset) + shift))
    return found


def _assert_lookups_match_scan(tracker, label):
    """Every alive class's lookup table, and the committed load on every
    link a class crosses (plus a sample of chain links behind them), equal
    the from-scratch scan."""
    arrays = tracker.arrays
    lids = set()
    for cls in tracker.classes:
        table = cls.decisive_offsets()
        assert list(table.items()) == list(
            zip(cls.dec_lids.tolist(), cls.dec_offsets.tolist())
        ), label
        lids.update(table)
    flags = np.frombuffer(tracker._decisive, dtype=bool)
    path_lids = np.asarray(arrays.path_lids)
    chain_links = np.flatnonzero(~flags[path_lids])
    lids.update(path_lids[chain_links[::17]].tolist())
    lids = sorted(lids)
    for lid, expected in _scanned(tracker, lids).items():
        assert tracker.crossings(*arrays.link_name[lid]) == expected, (label, lid)


def _state(tracker):
    """What an undone commit must leave as it was: bounds, tables, spans."""
    return (
        tracker.applied,
        [(cls.lo, cls.hi, tuple(cls.decisive_offsets().items())) for cls in tracker.classes],
        tracker.congestion_spans(),
    )


def _walk_everything(tracker, cls, index):
    """The reference route of a piece deflected from ``cls`` at ``index``.

    The tracker's run-by-run walk with no tail taken from the parent: every
    run after the hit is routed switch rule by switch rule, under the rules
    in force now (the tracker's applied switches plus the round's, which
    the split has added), until the destination, a dead end, a revisit or
    the hop guard.  Returns what the piece must hold.
    """
    arrays = tracker.arrays
    moved = tracker._moved
    path_dec, path_dec_lids, path_dec_offsets = tracker._path_dec
    junctions = arrays.junctions
    shared = bisect.bisect_right(cls.run_pos, index)
    run_pos, run_start, run_off = (
        cls.run_pos[:shared], cls.run_start[:shared], cls.run_off[:shared]
    )
    keep = bisect.bisect_left(cls.dec_pos, index)
    dec_pos, dec_lids, dec_offsets = (
        list(cls.dec_pos[:keep]), list(cls.dec_lids[:keep]), list(cls.dec_offsets[:keep])
    )
    origin = current = cls.node_at(index)
    position, offset = index, cls.offset_at(index)
    in_prefix = {cls.node_at(at): at for at in cls.dec_pos}
    seen = set()
    budget = arrays.max_hops
    outcome, loop_node = LOOPED, None
    while budget:
        if current == arrays.dest:
            outcome = DELIVERED
            break
        if current in moved:
            nxt, lid = arrays.next_new[current], arrays.new_rule_lid[current]
        else:
            nxt, lid = arrays.next_old[current], arrays.old_rule_lid[current]
        if nxt < 0:
            outcome = BLACKHOLE
            break
        if not arrays.interior[current] or tracker._decisive[lid]:
            dec_pos.append(position)
            dec_lids.append(lid)
            dec_offsets.append(offset)
        position += 1
        run_pos.append(position)
        if arrays.interior[nxt]:
            start = arrays.old_pos[nxt]
            stop = min(junctions[bisect.bisect_left(junctions, start)], start + budget - 1)
            base = arrays.path_offsets[start]
            offset += base - arrays.path_offsets[start - 1]
            run_start.append(start)
            run_off.append(offset)
            first = bisect.bisect_left(path_dec, start)
            last = bisect.bisect_left(path_dec, stop, first)
            dec_pos += [at + position - start for at in path_dec[first:last]]
            dec_lids += path_dec_lids[first:last]
            dec_offsets += [off + offset - base for off in path_dec_offsets[first:last]]
            position += stop - start
            offset += arrays.path_offsets[stop] - base
            current = arrays.path_ids[stop]
            budget -= stop + 1 - start
        else:
            offset += arrays.link_delay[lid]
            at = arrays.old_pos[nxt]
            run_start.append(at if at >= 0 else ~nxt)
            run_off.append(offset)
            current = nxt
            budget -= 1
        if current in seen or current == origin or in_prefix.get(current, index) < index:
            loop_node = current
            break
        seen.add(current)
    else:
        loop_node = current
    return {
        "length": position + 1,
        "runs": _coalesced(arrays, run_pos, run_start, run_off),
        "decisive": (dec_pos, dec_lids, dec_offsets),
        "last": (current, offset),
        "outcome": outcome,
        "loop_node": loop_node,
    }


def _coalesced(arrays, run_pos, run_start, run_off):
    """Runs as the old-path slices and single switches they spell.

    A run that carries on the old-path slice before it, at the offset that
    slice reaches, is merged into it: a tail taken from the parent may keep
    the parent's longer runs where a walk breaks them at every junction.
    """
    merged = []
    for pos, start, off in zip(run_pos, run_start, run_off):
        if merged and start > 0:
            last_pos, last_start, last_off = merged[-1]
            at = last_start + pos - last_pos
            if last_start >= 0 and at == start and off == last_off + (
                arrays.path_offsets[at] - arrays.path_offsets[last_start]
            ):
                continue
        merged.append((pos, start, off))
    return merged


def _spelled(cls):
    """What :func:`_walk_everything` returns, read off a class."""
    return {
        "length": cls.length,
        "runs": _coalesced(cls.arrays, cls.run_pos, cls.run_start, cls.run_off),
        "decisive": tuple(list(column) for column in (cls.dec_pos, cls.dec_lids, cls.dec_offsets)),
        "last": (cls.last_node, cls.last_offset),
        "outcome": cls.outcome,
        "loop_node": cls.loop_node,
    }


@contextmanager
def _walked_references(references):
    """Route every piece the tracker deflects a second time, by the walk.

    ``references`` maps each piece's run list (which its trims share) to
    the piece and its walk-everything route, checked on the spot.
    """
    deflect = ArrayIntervalTracker._deflect

    def checked(self, cls, index, *args):
        piece = deflect(self, cls, index, *args)
        expected = _walk_everything(self, cls, index)
        expected["decisive"] = tuple(expected["decisive"])
        assert _spelled(piece) == expected, ("deflected", index)
        references[id(piece.run_pos)] = (piece, expected)
        return piece

    with mock.patch.object(ArrayIntervalTracker, "_deflect", checked):
        yield


def _assert_routes_match_walks(tracker, references, label):
    """Every alive deflected class holds what walking its route gives."""
    for cls in tracker.classes:
        found = references.get(id(cls.run_pos))
        if found is not None:
            piece, expected = found
            assert piece.run_pos is cls.run_pos
            assert _spelled(cls) == expected, label


class TestLookupTables:
    """The lookup tables a probe reads, and the routes pieces hold.

    A probe finds committed load on a link through every alive class's
    :meth:`ArrayFlowClass.decisive_offsets`, which a deflected piece takes
    from its parent's table; here, after every step of drawn round
    sequences -- probes, applies, commits and undoable commits, taken back
    or kept -- each table equals
    the class's decisive columns and ``crossings()`` equals a scan of the
    sorted decisive tables, on long chains with background and interior
    first links, many-segment chains, nested reversals and global reroutes
    alike.

    A deflected piece that rejoins its parent's route takes the parent's
    tail instead of walking it (:meth:`ArrayIntervalTracker._deflect`,
    "Tails"), so every piece is also routed a second time by walking
    everything, and every alive class's runs, decisive columns, last
    switch and offset, outcome and loop switch must equal that walk's.
    ``tracker.array.tail_runs`` must be positive over the draws: tails
    were taken, the comparison is not vacuous.
    """

    OPERATIONS = ("probe_and_commit", "apply_round", "commit_round", "undo")
    WORLDS = ("global reroute", "segmented", "many segments", "nested reversal")

    def test_tables_equal_a_scan(self):
        tally = {}

        @settings(
            max_examples=80,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        )
        @given(data=st.data())
        def drawn(data):
            with TraceSession(scenario="unit", run_id="tables") as session:
                self._drawn_steps(data.draw)
            for name, value in aggregate(session.tape)["counters"].items():
                tally[name] = tally.get(name, 0) + value

        drawn()
        assert tally.get("tracker.array.deflections", 0) > 0
        assert tally.get("tracker.array.tail_runs", 0) > 0

    def _drawn_steps(self, draw):
        interior: list = []
        background = None
        world = draw(st.sampled_from(self.WORLDS), label="world")
        if world == "global reroute":
            instance = random_instance(
                draw(st.integers(6, 40), label="switches"),
                seed=draw(st.integers(0, 10_000), label="seed"),
                max_delay=3,
            )
        elif world == "nested reversal":
            instance = nested_reversal_instance(
                draw(st.integers(6, 60), label="reversed"),
                draw(st.integers(0, 3), label="depth"),
                draw(st.integers(0, 80), label="pad"),
                draw(st.integers(0, 10_000), label="seed"),
            )
        else:
            many = world == "many segments"
            instance = segmented_instance(
                draw(st.integers(200, 500), label="hops"),
                seed=draw(st.integers(0, 10_000), label="seed"),
                segments=draw(st.integers(16, 32) if many else st.integers(1, 8), label="segments"),
            )
            path = instance.old_path
            link_at = st.integers(0, len(path) - 2).map(lambda i: (path[i], path[i + 1]))
            instance = rebuilt(
                instance,
                capacities=draw(
                    st.dictionaries(link_at, st.sampled_from((0.5, 1.5, 3.0)), max_size=3),
                    label="odd capacities",
                ),
                unit_delays=draw(st.booleans(), label="unit_delays"),
            )
            bound = st.none() | st.integers(-5, 60)
            background = draw(
                st.dictionaries(
                    link_at,
                    st.lists(
                        st.tuples(bound, bound, st.sampled_from((0.25, 1.0))),
                        min_size=1,
                        max_size=2,
                    ),
                    max_size=2,
                ),
                label="background",
            )
            interior = [path[i] for i in interior_positions(instance)]
        references: dict = {}
        tracker = ArrayIntervalTracker(instance, background=background)
        _assert_lookups_match_scan(tracker, "initial")
        order = list(draw(st.permutations(instance.switches_to_update), label="order"))
        time = 0
        with _walked_references(references):
            for step in range(draw(st.integers(1, 12), label="steps")):
                if not order:
                    break
                operation = draw(st.sampled_from(self.OPERATIONS), label="operation")
                label = f"step={step} {operation} t={time}"
                if operation == "undo":
                    before = _state(tracker)
                    _report, record = undoable_commit(tracker, [order[-1]], time)
                    _assert_lookups_match_scan(tracker, label + " committed")
                    _assert_routes_match_walks(tracker, references, label + " committed")
                    if draw(st.booleans(), label="keep the commit"):
                        order.pop()
                        continue
                    tracker._undo(record)
                    assert _state(tracker) == before, label
                    _assert_lookups_match_scan(tracker, label)
                    continue
                nodes = [order.pop() for _ in range(min(len(order), draw(st.integers(1, 3))))]
                if interior and draw(st.booleans()):
                    # A switch whose rule stays: the first fresh link is a chain's.
                    nodes.append(interior.pop(draw(st.integers(0, len(interior) - 1))))
                report = getattr(tracker, operation)(nodes, time)
                if operation == "probe_and_commit" and not report.ok:
                    order = nodes[:1] + order
                _assert_lookups_match_scan(tracker, label)
                _assert_routes_match_walks(tracker, references, label)
                time += draw(st.integers(0, 3))


class TestBackgroundLoad:
    def test_background_interleaves_identically(self):
        instance = motivating_example()
        link = instance.network.links[0]
        background = {(link.src, link.dst): [(0, 4, 0.5), (None, None, 0.25)]}
        dict_tracker, array_tracker = _pair(instance, background=background)
        _assert_states_match(dict_tracker, array_tracker, "bg initial")
        _assert_reports_match(
            preview(dict_tracker, ["v2"], 0),
            preview(array_tracker, ["v2"], 0),
            "bg preview",
        )

    def test_unknown_background_link_rejected(self):
        instance = motivating_example()
        background = {("v1", "nope"): [(0, 1, 1.0)]}
        with pytest.raises(KeyError):
            ArrayIntervalTracker(instance, background=background)


def _layout_state(tracker):
    """What a commit changes, on either layout: every class ever registered
    (dead ones included) by id, the alive ids, the applied times in commit
    order, the last round time and the next id, and the layout's
    ``key -> class ids`` indexes (dict) or moved switch ids (array)."""
    if isinstance(tracker, ArrayIntervalTracker):
        classes = {
            cid: (cls.lo, cls.hi, cls.fresh_from, cls.fresh_offset, cls.fresh_dec, _spelled(cls))
            for cid, cls in tracker._classes.items()
        }
        layout = sorted(tracker._moved)
    else:
        classes = dict(tracker._classes)
        layout = (tracker._link_index, tracker._node_index)
    return (
        classes,
        sorted(tracker._alive),
        list(tracker.applied.items()),
        tracker._last_time,
        tracker._next_id,
        layout,
    )


class TestUndoRoundTrip:
    """A commit taken back leaves no trace (the OPT search's backtrack).

    Drawn LIFO sequences of undoable commits and undos on either layout,
    with full reports read between them (which fill the dict layout's
    memos): after every step the tracker equals a fresh one that applied
    only the surviving rounds -- classes, alive ids, applied times and
    indexes, ``congestion_spans()`` and the full report of every pending
    switch -- and at the end both probe one switch alike.
    """

    @pytest.mark.parametrize("layout", [IntervalTracker, ArrayIntervalTracker])
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def test_undo_leaves_the_replayed_state(self, layout, data):
        draw = data.draw
        seed = draw(st.integers(0, 10_000), label="seed")
        if draw(st.booleans(), label="global reroute"):
            instance = random_instance(draw(st.integers(4, 14), label="n"), seed=seed, max_delay=3)
        else:
            instance = segmented_instance(
                draw(st.integers(12, 240), label="n"),
                seed=seed,
                segments=draw(st.integers(1, 6), label="segments"),
            )
        links = [(link.src, link.dst) for link in instance.network.links]
        bound = st.none() | st.integers(-5, 40)
        background = draw(
            st.dictionaries(
                st.sampled_from(links),
                st.lists(
                    st.tuples(bound, bound, st.sampled_from((0.25, 0.5, 1.0))),
                    min_size=1,
                    max_size=2,
                ),
                max_size=3,
            ),
            label="background",
        )
        tracker = layout(instance, background=background)
        stack = []  # (undo record, nodes, time), oldest first
        for step in range(draw(st.integers(1, 14), label="steps")):
            pending = [n for n in instance.switches_to_update if n not in tracker.applied]
            now = stack[-1][2] if stack else 0
            if not (stack or pending):
                break
            if stack and (not pending or draw(st.booleans(), label="undo")):
                record, _nodes, _time = stack.pop()
                tracker._undo(record)
            else:
                nodes = draw(
                    st.lists(st.sampled_from(pending), min_size=1, max_size=3, unique=True),
                    label="round",
                )
                now += draw(st.integers(0, 3), label="wait")
                _report, record = undoable_commit(tracker, nodes, now)
                stack.append((record, nodes, now))
            replayed = layout(instance, background=background)
            for _record, nodes, time in stack:
                replayed.apply_round(nodes, time)
            label = f"step={step} rounds={[(nodes, time) for _, nodes, time in stack]}"
            assert _layout_state(tracker) == _layout_state(replayed), label
            assert tracker.congestion_spans() == replayed.congestion_spans(), label
            now = stack[-1][2] if stack else 0
            for node in instance.switches_to_update:
                if node not in tracker.applied:
                    _assert_reports_match(
                        preview(tracker, [node], now), preview(replayed, [node], now), label
                    )
        pending = [n for n in instance.switches_to_update if n not in tracker.applied]
        if pending:
            _assert_reports_match(
                tracker.probe_and_commit(pending[:1], now),
                replayed.probe_and_commit(pending[:1], now),
                "probe",
            )
            assert _layout_state(tracker) == _layout_state(replayed)


class TestErrorParity:
    """Both trackers reject malformed rounds the same way."""

    def test_rounds_must_be_chronological(self, fig1_instance):
        tracker = ArrayIntervalTracker(fig1_instance)
        tracker.apply_round(["v2"], 3)
        with pytest.raises(ValueError, match="chronolog"):
            tracker.apply_round(["v3"], 2)

    def test_double_update_rejected(self, fig1_instance):
        tracker = ArrayIntervalTracker(fig1_instance)
        tracker.apply_round(["v2"], 0)
        with pytest.raises(ValueError, match="already"):
            tracker.apply_round(["v2"], 1)

    def test_destination_update_rejected(self, fig1_instance):
        tracker = ArrayIntervalTracker(fig1_instance)
        with pytest.raises(ValueError, match="destination"):
            tracker.apply_round(["v6"], 0)

    def test_empty_round_rejected(self, fig1_instance):
        tracker = ArrayIntervalTracker(fig1_instance)
        with pytest.raises(ValueError):
            tracker.apply_round([], 0)


class TestInstanceArrays:
    def test_arrays_cached_per_instance(self, fig1_instance):
        assert instance_arrays(fig1_instance) is instance_arrays(fig1_instance)

    def test_link_encoding_round_trips(self, fig1_instance):
        arrays = instance_arrays(fig1_instance)
        for link in fig1_instance.network.links:
            lid = arrays.lid_of(link.src, link.dst)
            assert lid is not None
            assert arrays.link_name[lid] == (link.src, link.dst)

    def test_missing_link_is_none(self, fig1_instance):
        arrays = instance_arrays(fig1_instance)
        assert arrays.lid_of(0, 0) is None
