"""The update service: determinism, conformance, admission and merging.

The hard guarantee under test is **lockstep determinism**: one seed,
one request stream, byte-identical cell records across runs -- the
virtual-time loop makes the whole service a pure function of its seed.
On top of that: every planned request must verify conformant through
``repro.validate``, the admission controller must never let overlapping
footprints run concurrently, and queued same-tenant requests must merge
into one planning call with earlier intents superseded.
"""

import asyncio
import dataclasses
import gc
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.controller import ManagedSwitch
from repro.core.instance import UpdateInstance, config_from_path
from repro.experiments.sweep import sweep_seed
from repro.network.flows import Flow
from repro.pipeline.store import canonical_json
from repro.service import (
    AdmissionController,
    ServiceConfig,
    build_workload,
    run_cell,
    run_virtual,
)
from repro.service.requests import TERMINAL
from repro.service.service import UpdateService
from repro.service.workload import _links_of
from repro.simulator.engine import Simulator
from repro.simulator.link import DataLink
from repro.simulator.switch import DataSwitch
from repro.updates.registry import ROUNDS, TIMED, get_planner
from repro.validate import verify_schedule

SMALL = ServiceConfig(pods=4, pod_size=6, requests=24, mean_interarrival=1.5, seed=11)


@pytest.fixture(scope="module")
def small_report():
    return run_cell(SMALL)


# --- virtual-time loop -------------------------------------------------

class TestVirtualTimeLoop:
    def test_sleeps_cost_no_wall_time_and_order_deterministically(self):
        async def main():
            log = []

            async def worker(name, delay, period, count):
                await asyncio.sleep(delay)
                for _ in range(count):
                    log.append((name, round(asyncio.get_running_loop().time(), 6)))
                    await asyncio.sleep(period)

            await asyncio.gather(worker("a", 0.8, 0.6, 3), worker("b", 1.1, 0.6, 3))
            return log

        first = run_virtual(main())
        second = run_virtual(main())
        assert first == second
        assert first[0] == ("a", 0.8)
        assert first[1] == ("b", 1.1)

    def test_idle_loop_raises_instead_of_deadlocking(self):
        async def main():
            await asyncio.Event().wait()  # nobody will ever set this

        with pytest.raises(RuntimeError, match="idle"):
            run_virtual(main())


# --- workload ----------------------------------------------------------

class TestWorkload:
    def test_workload_is_seed_deterministic(self):
        a = build_workload(4, 6, 20, 2.0, seed=5)
        b = build_workload(4, 6, 20, 2.0, seed=5)
        assert [p for p in a.pods] == [p for p in b.pods]
        assert a.requests == b.requests
        assert build_workload(4, 6, 20, 2.0, seed=6).requests != a.requests

    def test_paths_are_valid_and_distinct(self):
        workload = build_workload(5, 7, 10, 2.0, seed=3)
        for pod in workload.pods:
            assert pod.path_a != pod.path_b
            assert pod.path_a[0] == pod.path_b[0] == pod.source
            assert pod.path_a[-1] == pod.path_b[-1] == pod.destination
            for path in (pod.path_a, pod.path_b):
                for src, dst in _links_of(path):
                    assert workload.network.has_link(src, dst)

    def test_paired_pods_share_a_crossover_link(self):
        workload = build_workload(4, 6, 10, 2.0, seed=3)
        p0, p1 = workload.pods[0], workload.pods[1]
        assert p0.footprint & p1.footprint
        p2, p3 = workload.pods[2], workload.pods[3]
        assert not (p0.footprint | p1.footprint) & (p2.footprint | p3.footprint)

    def test_disjoint_without_sharing(self):
        workload = build_workload(4, 6, 10, 2.0, seed=3, share_links=False)
        for i, pod in enumerate(workload.pods):
            for other in workload.pods[i + 1:]:
                assert not pod.footprint & other.footprint

    @pytest.mark.parametrize("share_links", [True, False])
    def test_pod_network_is_the_footprint(self, share_links):
        workload = build_workload(5, 7, 10, 2.0, seed=3, capacity=3.0, delay=2,
                                  share_links=share_links)
        shared = workload.network
        for pod in workload.pods:
            network = pod.network
            assert set(network.delay_map()) == pod.footprint
            assert set(network.switches) == set(pod.path_a) | set(pod.path_b)
            for src, dst in pod.footprint:
                assert network.capacity(src, dst) == shared.capacity(src, dst)
                assert network.delay(src, dst) == shared.delay(src, dst)

    def test_pod_by_name_is_built_once(self):
        workload = build_workload(4, 6, 10, 2.0, seed=3)
        by_name = workload.pod_by_name
        assert by_name == {pod.name: pod for pod in workload.pods}
        assert workload.pod_by_name is by_name


# --- admission controller ----------------------------------------------

def _fp(*links):
    return frozenset(links)


class TestAdmission:
    def test_disjoint_requests_admit_immediately(self):
        ctrl = AdmissionController()
        d1, b1 = ctrl.offer("r1", _fp(("a", "b")))
        d2, b2 = ctrl.offer("r2", _fp(("c", "d")))
        assert (d1, d2) == ("admitted", "admitted")
        assert b1.token != b2.token

    def test_conflicting_request_queues_fifo(self):
        ctrl = AdmissionController()
        _, batch = ctrl.offer("r1", _fp(("a", "b")))
        assert ctrl.offer("r2", _fp(("a", "b"), ("b", "c")))[0] == "queued"
        assert ctrl.queue_depth == 1
        ready = ctrl.release(batch.token)
        assert [b.items for b in ready] == [["r2"]]
        assert ctrl.queue_depth == 0

    def test_queued_overlap_prevents_leapfrogging(self):
        # r3 conflicts only with *queued* r2; admitting it would reorder
        # overlapping requests, so it must queue behind r2.
        ctrl = AdmissionController()
        _, batch = ctrl.offer("r1", _fp(("a", "b")))
        ctrl.offer("r2", _fp(("a", "b"), ("x", "y")))
        decision, _ = ctrl.offer("r3", _fp(("x", "y")))
        assert decision == "queued"
        ready = ctrl.release(batch.token)
        assert [b.items for b in ready] == [["r2", "r3"]]

    def test_release_merges_overlapping_queue_groups(self):
        ctrl = AdmissionController()
        _, batch = ctrl.offer("r1", _fp(("a", "b"), ("c", "d")))
        ctrl.offer("r2", _fp(("a", "b")))
        ctrl.offer("r3", _fp(("c", "d")))
        ctrl.offer("r4", _fp(("a", "b")))
        ready = ctrl.release(batch.token)
        # r2 and r4 overlap each other -> one merged batch; r3 only ever
        # overlapped the finished blocker -> dispatched independently.
        assert [b.items for b in ready] == [["r2", "r4"], ["r3"]]
        assert ready[0].footprint == _fp(("a", "b"))
        assert ready[1].footprint == _fp(("c", "d"))

    def test_release_keeps_still_blocked_groups_queued(self):
        ctrl = AdmissionController()
        _, b1 = ctrl.offer("r1", _fp(("a", "b")))
        _, b2 = ctrl.offer("r2", _fp(("c", "d")))
        ctrl.offer("r3", _fp(("a", "b")))
        ctrl.offer("r4", _fp(("c", "d")))
        ready = ctrl.release(b1.token)
        assert [b.items for b in ready] == [["r3"]]  # r4 still blocked by r2
        assert ctrl.queue_depth == 1

    def test_full_queue_rejects(self):
        ctrl = AdmissionController(max_queue=1)
        ctrl.offer("r1", _fp(("a", "b")))
        assert ctrl.offer("r2", _fp(("a", "b")))[0] == "queued"
        assert ctrl.offer("r3", _fp(("a", "b")))[0] == "rejected"
        assert ctrl.rejected == 1

    def test_reset_clears_everything(self):
        ctrl = AdmissionController()
        ctrl.offer("r1", _fp(("a", "b")))
        ctrl.offer("r2", _fp(("a", "b")))
        ctrl.reset()
        assert ctrl.queue_depth == 0
        # Nothing is held in flight: a conflicting offer is admitted at once.
        assert ctrl.offer("r3", _fp(("a", "b")))[0] == "admitted"

    @given(
        footprints=st.lists(
            st.frozensets(st.integers(0, 11).map(lambda n: ("u", f"v{n}")), min_size=1, max_size=4),
            min_size=1,
            max_size=24,
        ),
        releases=st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_release_matches_the_all_pairs_rule(self, footprints, releases):
        """Components, dispatch order and merged footprints as the pairwise rule gives them.

        The model below is the rule ``release`` used to implement literally:
        intersect every pair of queued footprints, take connected components,
        dispatch each (earliest member first) unless it touches a batch still
        in flight.
        """
        ctrl = AdmissionController(max_queue=len(footprints))
        in_flight = {}  # token -> footprint
        queue = []  # (item, footprint), arrival order

        def dispatch(expected, batches):
            assert [(b.items, b.footprint) for b in batches] == expected
            in_flight.update((batch.token, batch.footprint) for batch in batches)

        def components():
            groups = [[i] for i in range(len(queue))]
            for i in range(len(queue)):
                for j in range(i + 1, len(queue)):
                    if queue[i][1] & queue[j][1]:
                        gi = next(g for g in groups if i in g)
                        gj = next(g for g in groups if j in g)
                        if gi is not gj:
                            groups.remove(gj)
                            gi.extend(gj)
            return sorted((sorted(group) for group in groups), key=min)

        for item, footprint in enumerate(footprints):
            blocked = any(footprint & held for held in in_flight.values()) or any(
                footprint & queued for _, queued in queue
            )
            decision, batch = ctrl.offer(item, footprint)
            assert decision == ("queued" if blocked else "admitted")
            if blocked:
                queue.append((item, footprint))
            else:
                dispatch([([item], footprint)], [batch])

        while in_flight:
            token = releases.choice(sorted(in_flight))
            del in_flight[token]
            expected, taken = [], set()
            for members in components():
                merged = frozenset().union(*(queue[i][1] for i in members))
                if not any(merged & held for held in in_flight.values()):
                    expected.append(([queue[i][0] for i in members], merged))
                    taken.update(members)
            dispatch(expected, ctrl.release(token))
            queue[:] = [entry for i, entry in enumerate(queue) if i not in taken]
            assert ctrl.queue_depth == len(queue)
        assert not queue  # nothing is left waiting once nothing is in flight


# --- the service end-to-end --------------------------------------------

class TestServiceLockstep:
    def test_same_seed_is_byte_identical(self, small_report):
        again = run_cell(SMALL)
        assert canonical_json(small_report.to_record()) == canonical_json(
            again.to_record()
        )

    def test_different_seed_differs(self, small_report):
        other = run_cell(ServiceConfig(
            pods=4, pod_size=6, requests=24, mean_interarrival=1.5, seed=12
        ))
        assert canonical_json(other.to_record()) != canonical_json(
            small_report.to_record()
        )

    def test_record_is_json_round_trippable(self, small_report):
        record = small_report.to_record()
        assert json.loads(canonical_json(record)) == json.loads(
            canonical_json(json.loads(json.dumps(record)))
        )


# One cell of each service workload of the repo benchmark (bench/workloads.py
# CONFIGs, seeded the way the bench seeds its first cell) and the sha256 of
# its canonical record, taken before the verifier stopped walking every
# emission: ``conformant`` flags and every virtual-time metric are in it.
PINNED_CELLS = {
    "service-steady": (
        dict(pods=16, pod_size=8, requests=64, mean_interarrival=2.0, max_queue=64, planners=4),
        "6c94d26d36a8a7fc62a987d7a2ff71b331b37f430795ecd291d642c160583acc",
    ),
    "service-burst": (
        dict(pods=32, pod_size=12, requests=100, mean_interarrival=0.25, max_queue=1024, planners=4),
        "45217a5d2665303ace6246e57d70560d69b662e8a5dc8d0e4861a52216ccde0c",
    ),
}


class TestServiceRecordsPinned:
    @pytest.mark.parametrize("name", sorted(PINNED_CELLS))
    def test_bench_shaped_cell_record_is_unchanged(self, name):
        shape, digest = PINNED_CELLS[name]
        report = run_cell(ServiceConfig(seed=sweep_seed(42, shape["pods"], 0), **shape))
        payload = canonical_json(report.to_record())
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == digest
        assert report.summary["conformant_all"]


class TestBackgroundIndex:
    @pytest.mark.parametrize("share_links", [True, False])
    def test_background_equals_the_walk_over_all_pods(self, share_links):
        """The sharer index visits fewer pods but reports the same loads."""
        config = ServiceConfig(pods=7, pod_size=6, requests=1, seed=5, share_links=share_links)
        workload = build_workload(
            config.pods, config.pod_size, config.requests, config.mean_interarrival,
            seed=config.seed, demand=0.1, share_links=share_links,
        )
        service = UpdateService(workload, config)
        rng = random.Random(9)
        for _ in range(20):
            for pod in workload.pods:
                service._current[pod.name] = rng.choice("ab")
            for pod in workload.pods:
                loads = {}
                for other in workload.pods:
                    if other is pod:
                        continue
                    for link in _links_of(other.path(service._current[other.name])):
                        if link in pod.footprint:
                            loads[link] = loads.get(link, 0.0) + other.demand
                expected = {
                    link: ((None, None, load),) for link, load in sorted(loads.items())
                } or None
                got = service._background_for(pod)
                assert got == expected
                assert got is None or list(got) == list(expected)


def _workload_of(config):
    return build_workload(
        config.pods, config.pod_size, config.requests, config.mean_interarrival,
        seed=config.seed, demand=config.demand, capacity=config.capacity,
        delay=config.delay, share_links=config.share_links,
    )


class TestPodNetworks:
    """An intent planned and verified on its pod's footprint network gets the
    answers the whole shared network gives.  The shared-network instance is
    built here only, as the oracle: the service has no such path."""

    @staticmethod
    def assert_same_answers(instance, shared, background):
        planner = get_planner("chronus")
        plan = planner.plan(instance, background=background)
        expected = planner.plan(shared, background=background)
        assert list(plan.schedule.times.items()) == list(expected.schedule.times.items())
        assert plan.feasible == expected.feasible
        verdict = verify_schedule(instance, plan.schedule, background=background)
        reference = verify_schedule(shared, expected.schedule, background=background)
        for flag in ("ok", "loop_free", "drop_free", "congestion_free"):
            assert getattr(verdict, flag) == getattr(reference, flag), flag
        # Only the settle past the last update differs: it is the pod's.
        assert verdict.check_end - plan.schedule.last_time <= (
            reference.check_end - expected.schedule.last_time
        )

    @settings(max_examples=60, deadline=None)
    @given(
        pods=st.integers(2, 5),
        pod_size=st.integers(4, 8),
        seed=st.integers(0, 2**16),
        capacity=st.sampled_from([1.0, 1.5, 2.0]),
        share_links=st.booleans(),
        data=st.data(),
    )
    def test_live_states_plan_and_verify_alike(
        self, pods, pod_size, seed, capacity, share_links, data
    ):
        """Live states drawn the way the service reaches them: each tenant's
        rules are ``path_a``'s overlaid by its completed moves, stale
        off-path rules included.  Capacities under ``2 * demand`` make some
        intents infeasible, so refusals and violating verdicts are drawn too."""
        config = ServiceConfig(
            pods=pods, pod_size=pod_size, requests=1, seed=seed,
            capacity=capacity, share_links=share_links,
        )
        workload = _workload_of(config)
        service = UpdateService(workload, config)
        for pod in workload.pods:
            moves = data.draw(st.lists(st.sampled_from("ab"), max_size=3))
            for move in moves:
                service._rules[pod.name].update(config_from_path(pod.path(move)))
            service._current[pod.name] = moves[-1] if moves else "a"
        pod = data.draw(st.sampled_from(workload.pods))
        target = "b" if service._current[pod.name] == "a" else "a"  # not a noop
        instance = service._instance_for(pod, target)
        assert instance.network is pod.network
        shared = dataclasses.replace(instance, network=workload.network)
        self.assert_same_answers(instance, shared, service._background_for(pod))

    @pytest.mark.parametrize("name", sorted(PINNED_CELLS))
    def test_every_intent_of_a_pinned_cell(self, name, monkeypatch):
        shape, _ = PINNED_CELLS[name]
        config = ServiceConfig(seed=sweep_seed(42, shape["pods"], 0), **shape)
        planner = get_planner(config.scheme)
        intents = []
        original = planner.plan

        def plan(instance, **options):
            intents.append((instance, options["background"]))
            return original(instance, **options)

        monkeypatch.setattr(planner, "plan", plan)
        report = run_cell(config)
        monkeypatch.undo()
        assert len(intents) >= report.summary["completed"] > 0
        workload = _workload_of(config)
        for instance, background in intents:
            pod = workload.pod_by_name[instance.flow.name]
            assert set(instance.network.delay_map()) == pod.footprint
            shared = dataclasses.replace(instance, network=workload.network)
            self.assert_same_answers(instance, shared, background)

    def test_a_live_rule_off_the_footprint_is_refused(self):
        config = ServiceConfig(pods=4, pod_size=6, requests=1, seed=5)
        workload = _workload_of(config)
        service = UpdateService(workload, config)
        pod, other = workload.pods[0], workload.pods[2]
        src, dst = next(
            link for link in _links_of(other.path_a) if link not in pod.footprint
        )
        service._rules[pod.name][src] = dst  # a stale rule the shared network has
        UpdateInstance(  # which the shared network would have let through
            network=workload.network,
            flow=Flow(
                name=pod.name, source=pod.source, destination=pod.destination,
                demand=pod.demand,
            ),
            old_config=dict(service._rules[pod.name]),
            new_config=config_from_path(pod.path_b),
        )
        with pytest.raises(ValueError, match=f"{src!r} -> {dst!r} over a missing link"):
            service._instance_for(pod, "b")


class TestCellTeardown:
    """A finished cell frees its world by reference counting alone."""

    KINDS = (DataSwitch, DataLink, ManagedSwitch, Simulator)

    def cyclic_world(self) -> int:
        """How many data-plane objects only the cycle collector could free."""
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return sum(isinstance(obj, self.KINDS) for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.collect()  # free what was saved, so the next probe starts clean

    def test_a_finished_cell_leaves_no_cyclic_data_plane(self):
        shape, _ = PINNED_CELLS["service-burst"]
        config = ServiceConfig(seed=sweep_seed(42, shape["pods"], 0), **shape)
        gc.collect()
        # The probe sees a world that was never released ...
        UpdateService(_workload_of(config), config)
        assert self.cyclic_world() > 0
        # ... and none once a cell has run.
        run_cell(config)
        assert self.cyclic_world() == 0


class TestServiceOutcomes:
    def test_every_request_reaches_a_terminal_status(self, small_report):
        assert len(small_report.requests) == SMALL.requests
        for request in small_report.requests:
            assert request["status"] in TERMINAL

    def test_all_planned_requests_verified_conformant(self, small_report):
        executed = [r for r in small_report.requests if r["status"] == "completed"]
        assert executed, "workload produced no completed updates"
        for request in executed:
            assert request["conformant"] is True
        assert small_report.summary["conformant_all"] is True

    def test_no_traffic_blackholed(self, small_report):
        assert small_report.summary["blackholed"] == 0.0

    def test_metrics_are_present_and_sane(self, small_report):
        summary = small_report.summary
        assert summary["requests"] == SMALL.requests
        assert summary["completed"] > 0
        assert summary["virtual_updates_per_sec"] > 0
        latency = summary["latency"]
        assert latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]
        assert summary["queue"]["max"] >= 0

    def test_same_tenant_burst_merges_and_supersedes(self):
        # One pod, near-simultaneous requests: the first admits, the rest
        # queue, merge into one batch, and all but the last supersede.
        report = run_cell(ServiceConfig(
            pods=1,
            pod_size=6,
            requests=6,
            mean_interarrival=0.05,
            seed=2,
            share_links=False,
        ))
        statuses = [r["status"] for r in report.requests]
        assert statuses[0] == "completed"
        assert "superseded" in statuses
        assert report.summary["merged_batches"] >= 1
        merged = [r for r in report.requests if r["status"] == "superseded"]
        for request in merged:
            assert request["batch"] is not None

    def test_tiny_queue_rejects_overflow(self):
        report = run_cell(ServiceConfig(
            pods=1,
            pod_size=6,
            requests=8,
            mean_interarrival=0.05,
            seed=2,
            max_queue=1,
            share_links=False,
        ))
        assert report.summary["rejected"] > 0
        # Rejections never corrupt later requests: everything else is
        # still served conformantly.
        assert report.summary["conformant_all"] is True
        assert report.summary["completed"] >= 1


class TestScenarioRegistration:
    def test_service_scenario_is_registered(self):
        from repro.pipeline.scenario import get_scenario

        scenario = get_scenario("service")
        params = scenario.params_with()
        items = scenario.items(params)
        assert [item["key"] for item in items] == [
            f"cell{i}" for i in range(int(params["cells"]))
        ]

    def test_scenario_cell_matches_direct_run(self):
        from repro.pipeline.scenario import get_scenario

        scenario = get_scenario("service")
        params = scenario.params_with(
            {"cells": 1, "pods": 3, "pod_size": 5, "requests": 8}
        )
        item = scenario.items(params)[0]
        record = scenario.evaluate(item, params)
        direct = run_cell(ServiceConfig(
            pods=3,
            pod_size=5,
            requests=8,
            mean_interarrival=float(params["mean_interarrival"]),
            seed=int(item["seed"]),
        )).to_record()
        direct["key"] = item["key"]
        assert canonical_json(record) == canonical_json(direct)


# --- scheme acceptance (the service executes timed schedules only) -----

class TestSchemeAcceptance:
    """``_process_batch`` ships every schedule as scheduled FlowMods, so a
    scheme the timed strategy cannot execute used to run to completion with
    a silently wrong record (TP's nominal schedule pushed through the
    single-version executor and judged by ``verify_two_phase``; OR's
    realised schedule timed instead of run in rounds)."""

    TINY = dict(pods=3, pod_size=5, requests=6, seed=3)

    @pytest.mark.parametrize("scheme", ["chronus", "aug", "opt"])
    def test_timed_schemes_run(self, scheme):
        assert get_planner(scheme).executor == TIMED
        report = run_cell(ServiceConfig(scheme=scheme, **self.TINY))
        assert report.summary["completed"] > 0
        assert report.summary["conformant_all"]

    @pytest.mark.parametrize("scheme", ["or", "tp"])
    def test_other_executors_are_rejected(self, scheme):
        assert get_planner(scheme).executor != TIMED
        with pytest.raises(ValueError, match="aug, chronus, opt"):
            run_cell(ServiceConfig(scheme=scheme, **self.TINY))

    def test_the_executor_flag_alone_decides(self, monkeypatch):
        monkeypatch.setattr(get_planner("chronus"), "executor", ROUNDS)
        with pytest.raises(ValueError, match="'rounds'"):
            run_cell(ServiceConfig(scheme="chronus", **self.TINY))
        monkeypatch.setattr(get_planner("or"), "executor", TIMED)
        assert run_cell(ServiceConfig(scheme="or", **self.TINY)).summary["requests"] == 6
