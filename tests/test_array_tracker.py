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
(:class:`TestProbeContract`).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.instance import (
    instance_from_paths,
    motivating_example,
    random_instance,
    reversal_instance,
    segmented_instance,
)
from repro.core.intervals import IntervalTracker
from repro.core.intervals_array import (
    ArrayFlowClass,
    ArrayIntervalTracker,
    instance_arrays,
)
from repro.network.graph import Network
from tests.test_chain_goldens import assert_witness, interior_positions, rebuilt


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
    if isinstance(tracker, ArrayIntervalTracker):
        names = tracker.arrays.names
        entries = (
            (cls.lo, cls.hi, tuple(names[i] for i in cls.view().nodes.tolist()))
            for cls in tracker.classes
        )
    else:
        entries = ((cls.lo, cls.hi, tuple(cls.nodes)) for cls in tracker.classes)
    return sorted(entries, key=_class_key)


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
    assert (
        array_tracker.congested_timed_link_count()
        == dict_tracker.congested_timed_link_count()
    ), label
    instance = dict_tracker.instance
    for link in instance.network.links:
        assert array_tracker.link_departure_spans(
            link.src, link.dst
        ) == dict_tracker.link_departure_spans(link.src, link.dst), (label, link)
    # Class sets agree up to ordering of (bounds, trajectory).
    assert _class_entries(array_tracker) == _class_entries(dict_tracker), label


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
            assert array_tracker.load_at(link.src, link.dst, time) == pytest.approx(
                dict_tracker.load_at(link.src, link.dst, time)
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
    the (byte-equal) preview -- the two may stop at different lengths.
    """
    preview = dict_tracker.preview_round(nodes, time)
    _assert_reports_match(preview, array_tracker.preview_round(nodes, time), label)
    dict_report = dict_tracker.probe_and_commit(nodes, time)
    array_report = array_tracker.probe_and_commit(nodes, time)
    if preview.ok:
        _assert_reports_match(preview, dict_report, label)
        _assert_reports_match(preview, array_report, label)
    else:
        assert_witness(dict_report, preview, label)
        assert_witness(array_report, preview, label)
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

        Probing candidates one at a time with ``probe_and_commit`` on a
        scratch clone accepts exactly the candidates a joint
        ``preview_round(accepted + [candidate])`` against the untouched
        tracker accepts -- on both trackers, for random candidate orders
        (most of which violate).
        """
        instance = random_instance(5 + seed % 9, seed=9900 + seed, max_delay=3)
        rng = random.Random(6000 + seed)
        dict_tracker, array_tracker = _pair(instance)
        pending = list(instance.switches_to_update)
        for time in range(4 * len(instance.network)):
            if not pending:
                break
            rng.shuffle(pending)
            scratches = dict_tracker.clone(), array_tracker.clone()
            accepted = []
            for node in pending:
                label = f"seed={seed} t={time} accepted={accepted} node={node}"
                joint = dict_tracker.preview_round(accepted + [node], time)
                _assert_reports_match(
                    joint, array_tracker.preview_round(accepted + [node], time), label
                )
                for scratch in scratches:
                    assert scratch.probe_and_commit([node], time).ok == joint.ok, label
                if joint.ok:
                    accepted.append(node)
            if accepted:
                dict_tracker, array_tracker = scratches
                _assert_states_match(dict_tracker, array_tracker, f"seed={seed} t={time}")
                pending = [node for node in pending if node not in accepted]

    def test_preview_commits_nothing(self, seed=3):
        instance = random_instance(8, seed=seed, max_delay=3)
        dict_tracker, array_tracker = _pair(instance)
        node = instance.switches_to_update[0]
        _assert_reports_match(
            dict_tracker.preview_round([node], 0),
            array_tracker.preview_round([node], 0),
            "preview",
        )
        assert array_tracker.applied == {}
        _assert_states_match(dict_tracker, array_tracker, "after preview")


class TestProbeContract:
    """What ``probe_and_commit`` promises, on each tracker by itself.

    ``.ok`` is ``preview_round``'s; refused, the tracker is untouched and
    every list of the report is a prefix of the preview's; accepted, report
    and state are ``apply_round``'s on a clone, byte for byte.
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
        links = [link.endpoints for link in instance.network.links]
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
        time = draw(st.integers(0, 2), label="t0")
        while order:
            nodes = [order.pop() for _ in range(min(len(order), draw(st.integers(1, 3))))]
            force = draw(st.booleans(), label="apply a refused round anyway")
            verdicts = []
            for tracker in trackers:
                label = f"{type(tracker).__name__} t={time} nodes={nodes}"
                preview = tracker.preview_round(nodes, time)
                before, applied = tracker.clone(), tracker.clone()
                applied_report = applied.apply_round(nodes, time)
                probe = tracker.probe_and_commit(nodes, time)
                assert_witness(probe, preview, label)
                if probe.ok:
                    _assert_reports_match(applied_report, probe, label)
                    _assert_states_match(applied, tracker, label)
                else:
                    _assert_states_match(before, tracker, label)
                    if force:
                        # Later probes then run over a state that already
                        # violates; a probe reports what *it* would add.
                        tracker.apply_round(nodes, time)
                verdicts.append(probe.ok)
            assert verdicts[0] == verdicts[1]
            time += draw(st.integers(0, 3))
        _assert_states_match(*trackers, "final")

    def test_a_refusal_stops_at_its_first_witness(self):
        """Not vacuous: the shortcut world's refused probe says less than its preview."""
        instance = _shortcut_world(capacities={("t2", "t3"): 1.0, ("t5", "t6"): 1.0})
        for tracker in _pair(instance):
            preview = tracker.preview_round(["s"], 5)
            probe = tracker.probe_and_commit(["s"], 5)
            assert_witness(probe, preview, type(tracker).__name__)
            assert {span.link for span in preview.congestion} == {("t2", "t3"), ("t5", "t6")}
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
                dict_report = getattr(dict_tracker, operation)(nodes, time)
                _assert_reports_match(
                    dict_report, getattr(array_tracker, operation)(nodes, time), label
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
        tuple(np.array(column, dtype=np.int64) for column in tracker._path_dec),
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
                getattr(dict_tracker, operation)(["c80", "x", "y"], 3),
                getattr(array_tracker, operation)(["c80", "x", "y"], 3),
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


class TestBackgroundLoad:
    def test_background_interleaves_identically(self):
        instance = motivating_example()
        link = instance.network.links[0]
        background = {(link.src, link.dst): [(0, 4, 0.5), (None, None, 0.25)]}
        dict_tracker, array_tracker = _pair(instance, background=background)
        _assert_states_match(dict_tracker, array_tracker, "bg initial")
        _assert_reports_match(
            dict_tracker.preview_round(["v2"], 0),
            array_tracker.preview_round(["v2"], 0),
            "bg preview",
        )

    def test_unknown_background_link_rejected(self):
        instance = motivating_example()
        background = {("v1", "nope"): [(0, 1, 1.0)]}
        with pytest.raises(KeyError):
            ArrayIntervalTracker(instance, background=background)


class TestCloneSemantics:
    def test_clone_is_independent(self, fig1_instance):
        tracker = ArrayIntervalTracker(fig1_instance)
        dup = tracker.clone()
        dup.apply_round(["v2"], 0)
        assert tracker.applied == {}
        assert dup.applied == {"v2": 0}

    def test_clone_matches_dict_clone(self):
        instance = random_instance(8, seed=77, max_delay=3)
        dict_tracker, array_tracker = _pair(instance)
        nodes = list(instance.switches_to_update)
        dict_tracker.apply_round(nodes[:2], 0)
        array_tracker.apply_round(nodes[:2], 0)
        dict_dup = dict_tracker.clone()
        array_dup = array_tracker.clone()
        _assert_states_match(dict_dup, array_dup, "clones")
        _assert_reports_match(
            dict_dup.apply_round(nodes[2:3], 2),
            array_dup.apply_round(nodes[2:3], 2),
            "clone apply",
        )
        # Originals unchanged by work on the clones.
        _assert_states_match(dict_tracker, array_tracker, "originals")
        assert nodes[2] not in array_tracker.applied


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
