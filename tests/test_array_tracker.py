"""Differential tests: ArrayIntervalTracker == IntervalTracker.

The struct-of-arrays tracker is an *encoding* change, not an algorithm
change: on every instance and round sequence it must report exactly what
the dict tracker reports -- same round reports (loops, black holes,
congestion spans), same committed state (applied times, per-link
departure timelines, loads), same error behaviour.  These tests drive
both trackers in lockstep through seeded random round sequences (clean
and violating alike) and compare everything observable at every step.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.core.instance import (
    motivating_example,
    random_instance,
    reversal_instance,
    segmented_instance,
)
from repro.core.intervals import IntervalTracker
from repro.core.intervals_array import ArrayIntervalTracker, instance_arrays


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


def _assert_states_match(dict_tracker, array_tracker, label):
    """Every observable of the two trackers agrees."""
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
    # Class sets agree up to ordering of (bounds, trajectory); the array
    # tracker stores trajectories as node-id arrays, so translate back.
    names = array_tracker.arrays.names
    dict_classes = sorted(
        ((cls.lo, cls.hi, tuple(cls.nodes)) for cls in dict_tracker.classes),
        key=_class_key,
    )
    array_classes = sorted(
        (
            (cls.lo, cls.hi, tuple(names[i] for i in cls.nodes.tolist()))
            for cls in array_tracker.classes
        ),
        key=_class_key,
    )
    assert array_classes == dict_classes, label


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
            dict_report = dict_tracker.probe_and_commit([node], time)
            array_report = array_tracker.probe_and_commit([node], time)
            _assert_reports_match(dict_report, array_report, label)
            _assert_states_match(dict_tracker, array_tracker, label)
            if dict_report.ok:
                time += rng.randint(1, 2)
            else:
                # A rejected probe must leave both trackers untouched; the
                # node is retried later at a strictly larger time.
                time += rng.randint(2, 4)
                retry = dict_tracker.probe_and_commit([node], time)
                _assert_reports_match(
                    retry, array_tracker.probe_and_commit([node], time), label
                )
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
