"""The update service: an async controller loop over a shared live plane.

One :class:`UpdateService` owns a shared topology with many tenant
flows, a DES data plane carrying all of them, and an asyncio control
loop (run on the :class:`~repro.service.vclock.VirtualTimeLoop`) with
three kinds of tasks:

* the **arrival task** replays the workload's request stream in virtual
  time and submits each request to the admission controller;
* **planner workers** drain dispatched batches: rebase each tenant's
  intent against its live rule state, plan it with the incremental
  greedy engine (static background load from the other tenants' current
  paths), verify the plan with :mod:`repro.validate`, then execute it
  through the timed strategy of ``perform_resilient_update`` on the shared
  plane (so only schemes whose ``executor`` flag is ``"timed"`` are
  accepted);
* the **pump task** advances the DES simulator to the virtual clock
  once per time unit, so data-plane events (and executor ``on_finish``
  callbacks) fire at their exact simulated instants, and samples the
  queue depth.

Every request is one ``service.request`` span, opened by the arrival task
and made current (``attach``) in whichever planner task plans, verifies
and executes it, so its ``plan`` / ``validate.verifier.verify`` /
``execute`` spans and per-switch ``apply`` events nest under it and under
no other request (DESIGN.md §14.4).

The simulator and the asyncio loop share one time axis; nothing reads
the wall clock, so a cell run is a pure function of its seed.  Requests
are *intents* rebased at planning time, which is what makes rejected,
superseded and aborted requests harmless to later ones: stale off-path
rules simply remain in a tenant's live config (the executor modifies
rather than duplicates them on the next move).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.controller.channel import (
    ConstantDelayModel,
    ControlChannel,
    StepDelayModel,
)
from repro.controller.controller import Controller
from repro.controller.resilient import perform_resilient_update
from repro.core.instance import UpdateInstance, config_from_path
from repro.network.flows import Flow
from repro.service.admission import AdmissionController, Batch
from repro.service.metrics import latency_summary, queue_summary
from repro.service.requests import RequestState, UpdateRequest
from repro.service.vclock import run_virtual
from repro.service.workload import (
    LinkKey,
    PodSpec,
    ServiceWorkload,
    _links_of,
    build_workload,
)
from repro.simulator.dataplane import DataPlane, build_dataplane
from repro.simulator.engine import Simulator
from repro.simulator.flowtable import FlowRule, Match
from repro.simulator.switch import HOST_PORT
from repro.trace.recorder import recorder
from repro.updates.registry import TIMED, available_schemes, get_planner


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that parameterises one service cell."""

    pods: int = 6
    pod_size: int = 7
    requests: int = 40
    mean_interarrival: float = 3.0
    seed: int = 0
    demand: float = 1.0
    capacity: float = 2.0
    delay: int = 1
    share_links: bool = True
    planners: int = 2
    plan_ticks: int = 1
    max_queue: int = 32
    time_unit: float = 1.0
    max_retries: int = 3
    #: Registered planner that computes every tenant schedule.  Its
    #: ``executor`` flag must be ``"timed"`` (``chronus``, ``aug``, ``opt``):
    #: the service ships every schedule as scheduled FlowMods, so a
    #: round-executed or two-phase scheme is rejected at construction.
    scheme: str = "chronus"


@dataclass
class CellReport:
    """Deterministic outcome of one service cell run."""

    seed: int
    requests: List[Dict[str, object]]
    summary: Dict[str, object]

    def to_record(self) -> Dict[str, object]:
        return {"seed": self.seed, "requests": self.requests, "summary": self.summary}


#: Per pod, the other pods that share a link with its footprint and, for
#: each of their paths ("a" / "b"), the shared links that path crosses.
Sharers = Dict[str, List[Tuple[PodSpec, Dict[str, List[LinkKey]]]]]


def _stamp(when: Optional[float]) -> Optional[float]:
    """A virtual-clock instant as a span attribute (deterministic, so stable)."""
    return None if when is None else round(when, 6)


def _footprint_sharers(pods: List[PodSpec]) -> Sharers:
    """Who can ever load each pod's footprint, in workload order."""
    users: Dict[LinkKey, List[int]] = {}
    for index, pod in enumerate(pods):
        for link in pod.footprint:
            users.setdefault(link, []).append(index)
    sharers: Sharers = {}
    for index, pod in enumerate(pods):
        others = {i for link in pod.footprint for i in users[link]} - {index}
        sharers[pod.name] = [
            (
                pods[i],
                {
                    target: [
                        link
                        for link in _links_of(pods[i].path(target))
                        if link in pod.footprint
                    ]
                    for target in ("a", "b")
                },
            )
            for i in sorted(others)
        ]
    return sharers


class UpdateService:
    """The controller service over one workload; see module docstring."""

    def __init__(self, workload: ServiceWorkload, config: ServiceConfig) -> None:
        self.workload = workload
        self.config = config
        self._scheme_planner = get_planner(config.scheme)
        if self._scheme_planner.executor != TIMED:
            timed = [
                name for name in available_schemes()
                if get_planner(name).executor == TIMED
            ]
            raise ValueError(
                f"the update service executes timed schedules only; scheme "
                f"{config.scheme!r} is executed as "
                f"{self._scheme_planner.executor!r} (timed schemes: "
                f"{', '.join(timed)})"
            )
        self._sim = Simulator()
        self._plane: DataPlane = build_dataplane(
            self._sim, workload.network, delay_scale=config.time_unit
        )
        channel = ControlChannel(
            self._sim,
            network_delay=ConstantDelayModel(0.0),
            install_delay=StepDelayModel(
                time_unit=config.time_unit, max_steps=1
            ),
            rng=random.Random(config.seed ^ 0xC0FFEE),
        )
        self._controller = Controller(self._sim, channel)
        for switch in self._plane.switches.values():
            self._controller.manage(switch)

        # Live per-tenant state: which path is installed and the exact
        # rule map (including stale off-path rules from earlier moves).
        self._current: Dict[str, str] = {}
        self._rules: Dict[str, Dict[str, str]] = {}
        for pod in workload.pods:
            self._current[pod.name] = "a"
            self._rules[pod.name] = dict(config_from_path(pod.path_a))
            self._install_rules(pod)
            self._plane.inject_flow(
                pod.source, "h1", pod.destination, rate=pod.demand
            )

        self._sharers = _footprint_sharers(workload.pods)

        self._admission: AdmissionController[RequestState] = AdmissionController(
            max_queue=config.max_queue
        )
        self._states: Dict[int, RequestState] = {
            request.id: RequestState(request=request)
            for request in workload.requests
        }
        self._plan_queue: "asyncio.Queue[Batch[RequestState]]" = asyncio.Queue()
        self._plan_backlog = 0
        self._batches = 0
        self._merged_batches = 0
        self._queue_samples: List[int] = []
        self._pending = len(workload.requests)
        self._all_done = asyncio.Event()

    # ------------------------------------------------------------------
    # plane helpers
    # ------------------------------------------------------------------
    def _install_rules(self, pod: PodSpec) -> None:
        """Install the pod's initial config as dst-prefix rules."""
        for node, nxt in self._rules[pod.name].items():
            switch = self._plane.switch(node)
            switch.table.add(
                FlowRule(
                    name=pod.name,
                    match=Match(dst_prefix=pod.destination),
                    out_port=self._plane.port_of(node, nxt),
                )
            )
            switch.on_table_changed()
        destination = self._plane.switch(pod.destination)
        destination.table.add(
            FlowRule(
                name=pod.name,
                match=Match(dst_prefix=pod.destination),
                out_port=HOST_PORT,
            )
        )
        destination.on_table_changed()

    def _background_for(self, pod: PodSpec) -> Optional[Dict[LinkKey, Tuple]]:
        """Static load other tenants put on this pod's footprint links.

        Admission guarantees no in-flight update touches these links, so
        every other tenant sits stably on its current path -- a constant
        background load, exactly the shape the tracker consumes.
        Restricted to the pod's own footprint so the incremental engine
        never sweeps unrelated links; only the pods indexed as sharing a
        link with it are visited, in workload order (the order the loads
        have always been summed in).
        """
        loads: Dict[LinkKey, float] = {}
        for other, shared in self._sharers[pod.name]:
            for link in shared[self._current[other.name]]:
                loads[link] = loads.get(link, 0.0) + other.demand
        if not loads:
            return None
        return {link: ((None, None, load),) for link, load in sorted(loads.items())}

    def _instance_for(self, pod: PodSpec, target: str) -> UpdateInstance:
        """Rebase the intent on the tenant's live rules, on its pod's network.

        Every live rule routes over a footprint link (the instance refuses
        one that does not, naming it), so every trajectory is a walk in the
        footprint: planning and verifying there gives the shared network's
        answers, and the verifier's ``(|V| + 1) * max_delay`` window shrinks
        to the pod's size (DESIGN.md 14.4).
        """
        return UpdateInstance(
            network=pod.network,
            flow=Flow(
                name=pod.name,
                source=pod.source,
                destination=pod.destination,
                demand=pod.demand,
            ),
            old_config=dict(self._rules[pod.name]),
            new_config=dict(config_from_path(pod.path(target))),
        )

    # ------------------------------------------------------------------
    # lifecycle bookkeeping
    # ------------------------------------------------------------------
    def _terminal(self, state: RequestState, status: str, when: float) -> None:
        state.status = status
        state.finished_at = when
        self._pending -= 1
        state.span.set(
            status=status,
            batch=state.batch,
            admitted_at=_stamp(state.admitted_at),
            planned_at=_stamp(state.planned_at),
            started_at=_stamp(state.started_at),
            finished_at=_stamp(when),
            makespan=state.makespan,
            switches=state.switches,
            conformant=state.conformant,
        )
        state.span.close()
        if self._pending <= 0:
            self._all_done.set()

    def _dispatch(self, batch: Batch[RequestState], now: float) -> None:
        self._batches += 1
        if len(batch.items) > 1:
            self._merged_batches += 1
        for state in batch.items:
            state.status = "admitted"
            if state.admitted_at is None:
                state.admitted_at = now
        self._plan_backlog += len(batch.items)
        self._plan_queue.put_nowait(batch)

    # ------------------------------------------------------------------
    # tasks
    # ------------------------------------------------------------------
    async def _arrivals(self) -> None:
        loop = asyncio.get_running_loop()
        for request in self.workload.requests:
            delay = request.arrival - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self._submit(self._states[request.id], loop.time())

    def _submit(self, state: RequestState, now: float) -> None:
        request = state.request
        pod = self.workload.pod_by_name[request.tenant]
        # Open, but current only for the offer: the arrival task goes on to
        # the next request while planner tasks continue this one.
        state.span = recorder.span(
            "service.request",
            {
                "request": request.id,
                "tenant": request.tenant,
                "target": request.target,
                "arrival": _stamp(request.arrival),
            },
        )
        with state.span.attach(), recorder.timer("service.admission.offer"):
            decision, batch = self._admission.offer(state, pod.footprint)
        state.span.set(admit=decision)
        if decision == "admitted":
            assert batch is not None
            self._dispatch(batch, now)
        elif decision == "queued":
            state.status = "queued"
        else:
            self._terminal(state, "rejected", now)

    def _run_plane(self, until: float) -> None:
        """Advance the shared data plane to virtual time ``until``."""
        with recorder.timer("simulator.engine.run"):
            events = self._sim.run(until=until)
        if recorder.enabled:
            recorder.count("simulator.engine.events", events)

    async def _pump(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            self._run_plane(until=loop.time())
            self._queue_samples.append(
                self._admission.queue_depth + self._plan_backlog
            )
            await asyncio.sleep(self.config.time_unit)

    async def _planner(self, worker: int) -> None:
        while True:
            batch = await self._plan_queue.get()
            try:
                await self._process_batch(batch)
            finally:
                self._plan_queue.task_done()

    async def _process_batch(self, batch: Batch[RequestState]) -> None:
        loop = asyncio.get_running_loop()
        config = self.config
        tick = config.time_unit
        self._plan_backlog -= len(batch.items)

        # Merge: per tenant, the *last* request in the batch wins; every
        # earlier one is superseded by it and shares its fate.
        by_tenant: Dict[str, List[RequestState]] = {}
        for state in batch.items:
            state.batch = batch.token
            state.status = "planning"
            by_tenant.setdefault(state.request.tenant, []).append(state)

        plans: List[Tuple[PodSpec, RequestState, List[RequestState], object, object, object]] = []
        noops: List[Tuple[RequestState, List[RequestState]]] = []
        for tenant, group in by_tenant.items():
            effective, superseded = group[-1], group[:-1]
            for state in superseded:
                state.span.set(superseded_by=effective.request.id)
            pod = self.workload.pod_by_name[tenant]
            target = effective.request.target
            if target == self._current[tenant]:
                noops.append((effective, superseded))
                continue
            instance = self._instance_for(pod, target)
            background = self._background_for(pod)
            with effective.span.attach():
                result = self._scheme_planner.plan(instance, background=background)
            plans.append(
                (pod, effective, superseded, instance, result, background)
            )

        # Planning service time: one charge per planning call (batch).
        if config.plan_ticks > 0:
            await asyncio.sleep(config.plan_ticks * tick)
        planned_at = loop.time()
        for effective, superseded in noops:
            effective.planned_at = planned_at
            self._terminal(effective, "noop", planned_at)
            for state in superseded:
                state.planned_at = planned_at
                self._terminal(state, "superseded", planned_at)

        try:
            for pod, effective, superseded, instance, result, background in plans:
                group = superseded + [effective]
                for state in group:
                    state.planned_at = planned_at
                if not result.feasible:
                    now = loop.time()
                    for state in superseded:
                        self._terminal(state, "superseded", now)
                    self._terminal(effective, "aborted", now)
                    continue

                with effective.span.attach(), recorder.timer(
                    "validate.verifier.verify"
                ) as verify:
                    verdict = self._scheme_planner.verify(
                        instance, result.schedule, background=background
                    )
                    conformant = verdict.ok
                    window = verdict.check_end - verdict.check_start
                    verify.set(ok=conformant, window=window)

                # One tick of lead: the FlowMods due at the schedule's t0
                # must reach their switches before they fire.
                start_at = max(self._sim.now, loop.time()) + tick
                deadline = start_at + (
                    result.schedule.makespan + 8 + 4 * config.max_retries
                ) * tick
                done = asyncio.Event()
                with effective.span.attach(), recorder.span(
                    "execute", {"batch": batch.token}
                ) as execute:
                    with recorder.timer("controller.resilient.dispatch"):
                        trace = perform_resilient_update(
                            self._controller,
                            self._plane,
                            instance,
                            result.schedule,
                            strategy=TIMED,
                            time_unit=tick,
                            start_at=start_at,
                            retry_timeout=4.0 * tick,
                            max_retries=config.max_retries,
                            deadline=deadline,
                            on_finish=lambda _trace, _event=done: _event.set(),
                        )
                    effective.started_at = start_at
                    await done.wait()
                    status = "aborted" if trace.aborted else "completed"
                    execute.set(status=status, makespan=result.schedule.makespan)
                finished = loop.time()

                if not trace.aborted:
                    # Commit the live state: overlay the new next hops;
                    # stale off-path rules stay behind, as on real switches.
                    self._rules[pod.name].update(instance.new_config)
                    self._current[pod.name] = effective.request.target
                effective.makespan = result.schedule.makespan
                effective.switches = len(instance.switches_to_update)
                effective.conformant = conformant
                for state in superseded:
                    state.conformant = conformant
                    self._terminal(state, "superseded", finished)
                self._terminal(effective, status, finished)
        finally:
            now = loop.time()
            with recorder.timer("service.admission.release"):
                released = self._admission.release(batch.token)
            for ready in released:
                self._dispatch(ready, now)

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    async def run(self) -> CellReport:
        config = self.config
        loop = asyncio.get_running_loop()
        workers = [
            asyncio.ensure_future(self._planner(i)) for i in range(config.planners)
        ]
        pump = asyncio.ensure_future(self._pump())
        arrivals = asyncio.ensure_future(self._arrivals())

        # Generous virtual-time safety net: deterministic, never reached
        # in a healthy run.
        last_arrival = (
            self.workload.requests[-1].arrival if self.workload.requests else 0.0
        )
        horizon = last_arrival + (
            len(self.workload.requests) + 1
        ) * (config.plan_ticks + 40 + 4 * config.max_retries) * config.time_unit
        try:
            await asyncio.wait_for(self._all_done.wait(), timeout=horizon)
        except asyncio.TimeoutError:  # pragma: no cover - safety net
            now = loop.time()
            for state in self._states.values():
                if not state.terminal:
                    self._terminal(state, "aborted", now)
        finally:
            for task in [arrivals, pump, *workers]:
                task.cancel()
            await asyncio.gather(arrivals, pump, *workers, return_exceptions=True)

        # Drain in-flight data-plane traffic past the last control event.
        self._run_plane(until=self._sim.now + 5.0 * config.time_unit)
        report = self._report()
        # Release the cell's world: unfired events (cancelled deadline
        # timers, deliveries past the drain) and the plane's wiring are the
        # two reference cycles through every switch, link and agent.
        self._sim.release()
        self._plane.release()
        return report

    def _report(self) -> CellReport:
        states = [self._states[rid] for rid in sorted(self._states)]
        counts: Dict[str, int] = {}
        for state in states:
            counts[state.status] = counts.get(state.status, 0) + 1
        served = [
            state
            for state in states
            if state.status in ("completed", "superseded", "noop")
        ]
        latencies = [state.latency for state in served if state.latency is not None]
        finished = [
            state.finished_at for state in states if state.finished_at is not None
        ]
        first_arrival = states[0].request.arrival if states else 0.0
        duration = (max(finished) - first_arrival) if finished else 0.0
        throughput = (
            round(len(served) / duration, 6) if duration > 0 else None
        )
        summary: Dict[str, object] = {
            "requests": len(states),
            "completed": counts.get("completed", 0),
            "superseded": counts.get("superseded", 0),
            "noop": counts.get("noop", 0),
            "rejected": counts.get("rejected", 0),
            "aborted": counts.get("aborted", 0),
            "batches": self._batches,
            "merged_batches": self._merged_batches,
            "virtual_duration": round(duration, 6),
            "virtual_updates_per_sec": throughput,
            "latency": latency_summary(latencies),
            "queue": queue_summary(self._queue_samples),
            "conformant_all": all(
                state.conformant is not False for state in states
            ),
            "blackholed": round(self._plane.total_blackholed(), 9),
        }
        return CellReport(
            seed=self.config.seed,
            requests=[state.to_record() for state in states],
            summary=summary,
        )


def run_cell(config: ServiceConfig) -> CellReport:
    """Build the workload for ``config`` and run one full service cell."""
    with recorder.timer("service.build"):
        workload = build_workload(
            pods=config.pods,
            pod_size=config.pod_size,
            requests=config.requests,
            mean_interarrival=config.mean_interarrival,
            seed=config.seed,
            demand=config.demand,
            capacity=config.capacity,
            delay=config.delay,
            share_links=config.share_links,
        )

    async def main() -> CellReport:
        with recorder.timer("service.build"):
            service = UpdateService(workload, config)
        return await service.run()

    return run_virtual(main())
