"""The executors: every plan becomes control messages here, and only here.

:func:`execute_plan` runs a plan the way its planner's ``executor`` flag
says -- ``"rounds"`` (Algorithm 5: per-step sends, barrier sync,
one-time-unit sleeps), ``"timed"`` (Time4: every FlowMod pre-programmed with
its switch-local execution time) or ``"two-phase"`` (acknowledged shadow
installs, then a scheduled ingress flip) -- through
:func:`perform_resilient_update` and :func:`perform_resilient_two_phase`.
There is no second, unacknowledged executor stack: a perfect control network
is simply the case where nothing below ever fires.

* every FlowMod is paired with a per-switch barrier acting as its
  acknowledgement; an unanswered barrier is **retried** after a timeout
  with exponential backoff, resending the *same* FlowMod (same xid --
  :class:`~repro.controller.controller.ManagedSwitch` deduplicates, so a
  retry whose original actually arrived is harmless);
* a barrier that drains without the FlowMod taking effect (the switch-side
  apply-failure path) triggers an immediate resend;
* when a switch exhausts its retries or the overall **deadline** passes,
  the update is aborted and every switch touched so far is rolled back to
  its old rule -- mirroring the paper's Section VI note that Chronus
  recomputes when a switch cannot be scheduled, instead of leaving the
  network in a half-updated state.

On a fault-free channel a retry timer must never fire (a spurious resend is
harmless to the tables but consumes channel latency draws): callers whose
acknowledgements can take longer than ``4 * time_unit`` pass a
``retry_timeout`` above their channel's worst case.  What the plain
(unacknowledged) timed and round executors did before they were deleted is
frozen in ``tests/data/executor_goldens.json``; with faults off these
executors replay it byte for byte (``tests/test_resilient.py``,
``tests/test_executor_goldens.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.controller.controller import Controller
from repro.controller.executor import (
    TP_TAG,
    ExecutionTrace,
    _update_message,
    shadow_rules,
)
from repro.controller.messages import (
    ControlMessage,
    FlowModAdd,
    FlowModDelete,
    FlowModModify,
    next_xid,
)
from repro.core.instance import UpdateInstance
from repro.core.schedule import UpdateSchedule
from repro.network.graph import Node
from repro.simulator.dataplane import DataPlane
from repro.trace.recorder import recorder
from repro.updates.registry import ROUNDS, TIMED, TWO_PHASE, UpdatePlan, get_planner


#: Seconds between shipping a timed update and its first execution point
#: when the caller names no start.
LEAD_TIME = 0.5
#: Growth of the retry timeout per resend of one switch's FlowMod.
BACKOFF = 2.0


@dataclass(frozen=True)
class _Item:
    """One switch's message within a batch."""

    node: Node
    message: ControlMessage
    planned: Optional[float] = None  # true-time execution point, if scheduled


@dataclass(frozen=True)
class _Batch:
    """Messages confirmed together; ``settle`` sleeps before the next batch."""

    items: List[_Item]
    settle: float = 0.0


class _ResilientRun:
    """Drives batches of (FlowMod, barrier) pairs with retry/abort handling."""

    def __init__(
        self,
        controller: Controller,
        sim,
        batches: List[_Batch],
        *,
        rollback: Callable[[_Item, bool], Optional[ControlMessage]],
        retry_timeout: float,
        max_retries: int,
        deadline: Optional[float],
        finished_at_from_applies: bool,
        on_finish: Optional[Callable[[ExecutionTrace], None]],
    ) -> None:
        self._controller = controller
        self._sim = sim
        self._batches = batches
        self._rollback = rollback
        self._retry_timeout = retry_timeout
        self._max_retries = max_retries
        self._deadline = deadline
        self.trace = ExecutionTrace()
        # Per-switch evidence goes to the span this execution was started
        # under: the acknowledgements that carry it fire in simulator
        # callbacks, in whichever task (or no task) runs the simulator.
        self._span = recorder.current()
        self._finished_at_from_applies = finished_at_from_applies
        self._on_finish = on_finish
        self._touched: List[_Item] = []
        self._recorded: Set[int] = set()  # FlowMod xids already in the trace
        self._current: Dict[Node, _Item] = {}
        self._pending: set = set()
        self._attempt: Dict[Node, int] = {}
        self._barrier_xid: Dict[Node, int] = {}
        self._timers: Dict[Node, object] = {}
        self._batch_index = 0
        self._done = False
        self._deadline_timer = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        """Begin now, or at true time ``at`` when that still lies ahead."""
        if at is not None and at > self._sim.now:
            self._sim.schedule_at(at, self.start)
            return
        if self._deadline is not None:
            self._deadline_timer = self._sim.schedule_at(
                max(self._deadline, self._sim.now), self._on_deadline
            )
        self._run_batch(0)

    def _run_batch(self, index: int) -> None:
        if self._done:
            return
        if index >= len(self._batches):
            self._finish()
            return
        self._batch_index = index
        batch = self._batches[index]
        # Send every FlowMod first, then every barrier: Algorithm 5's
        # order, and the one the channel's rng stream is pinned to.
        for item in batch.items:
            self.trace.planned[item.node] = (
                item.planned if item.planned is not None else self._sim.now
            )
            self._touched.append(item)
            self._controller.send_flow_mod(item.node, item.message)
        self._current = {item.node: item for item in batch.items}
        self._pending = set(self._current)
        self._attempt = {node: 0 for node in self._pending}
        for item in batch.items:
            self._send_barrier(item.node)
        for item in batch.items:
            self._arm(item.node)

    def _finish(self) -> None:
        if self._done:
            return
        self._done = True
        self._cancel_deadline()
        if self._finished_at_from_applies:
            self.trace.finished_at = max(
                self.trace.applied.values(), default=self._sim.now
            )
        else:
            self.trace.finished_at = self._sim.now
        if self._on_finish is not None:
            self._on_finish(self.trace)

    # ------------------------------------------------------------------
    # acknowledgement plumbing
    # ------------------------------------------------------------------
    def _send_barrier(self, node: Node) -> None:
        self._barrier_xid[node] = self._controller.send_barrier(node, self._on_reply)

    def _arm(self, node: Node) -> None:
        item = self._current[node]
        offset = 0.0
        if item.planned is not None:
            # Scheduled FlowMods only complete (and ack) at execution time.
            offset = max(0.0, item.planned - self._sim.now)
        delay = offset + self._retry_timeout * (BACKOFF ** self._attempt[node])
        self._timers[node] = self._sim.schedule_after(
            delay, lambda: self._on_timeout(node)
        )

    def _disarm(self, node: Node) -> None:
        handle = self._timers.pop(node, None)
        if handle is not None:
            self._sim.cancel(handle)

    def _on_reply(self, reply) -> None:
        node = reply.switch
        if self._done or node not in self._pending:
            return
        self._disarm(node)
        if not self._record(self._current[node]):
            # The barrier drained but the install never took effect: the
            # switch-side apply failed.  Retry immediately.
            self._retry(node)
            return
        self._pending.discard(node)
        if not self._pending:
            batch = self._batches[self._batch_index]
            next_index = self._batch_index + 1
            if batch.settle > 0:
                self._sim.schedule_after(
                    batch.settle, lambda: self._run_batch(next_index)
                )
            else:
                self._run_batch(next_index)

    def _on_timeout(self, node: Node) -> None:
        if self._done or node not in self._pending:
            return
        self._timers.pop(node, None)
        # The reply is presumed lost: expire the waiter so the controller's
        # table doesn't leak, then go around again.
        self._controller.expire_barrier(self._barrier_xid[node])
        self._retry(node)

    def _retry(self, node: Node) -> None:
        self._attempt[node] += 1
        if self._attempt[node] > self._max_retries:
            self.trace.gave_up.append(node)
            self._abort(
                f"switch {node!r} unconfirmed after {self._max_retries} retries"
            )
            return
        if self._deadline is not None and self._sim.now >= self._deadline:
            self._abort("deadline passed during retry")
            return
        self.trace.retries[node] = self.trace.retries.get(node, 0) + 1
        self._span.event("retry", switch=str(node), attempt=self._attempt[node])
        # Same xid: a retry whose original arrived is deduplicated by the
        # switch, so resending is always safe.
        self._controller.send_flow_mod(node, self._current[node].message)
        self._send_barrier(node)
        self._arm(node)

    # ------------------------------------------------------------------
    # abort path
    # ------------------------------------------------------------------
    def _on_deadline(self) -> None:
        if not self._done:
            self._abort("deadline passed")

    def _cancel_deadline(self) -> None:
        if self._deadline_timer is not None:
            self._sim.cancel(self._deadline_timer)
            self._deadline_timer = None

    def _abort(self, reason: str) -> None:
        if self._done:
            return
        self._done = True
        self._cancel_deadline()
        self.trace.aborted = True
        self.trace.abort_reason = reason
        for node in list(self._pending):
            self._disarm(node)
            xid = self._barrier_xid.get(node)
            if xid is not None:
                self._controller.expire_barrier(xid)
        # An apply whose acknowledgement was lost still happened.
        for item in self._touched:
            self._record(item)
        # Roll back newest-first so dependent flips unwind in reverse order.
        for item in reversed(self._touched):
            message = self._rollback(item, item.message.xid in self._recorded)
            if message is not None:
                self._controller.send_flow_mod(item.node, message)
                self.trace.rolled_back.append(item.node)
                self._span.event("rollback", switch=str(item.node), reason=reason)
        self.trace.finished_at = self._sim.now
        if self._on_finish is not None:
            self._on_finish(self.trace)

    def _record(self, item: _Item) -> bool:
        """Enter ``item``'s apply into the trace, once; ``False`` until it landed."""
        xid = item.message.xid
        if xid in self._recorded:
            return True
        node = item.node
        applied = self._controller.apply_time(node, xid)
        if applied is None:
            return False
        self._recorded.add(xid)
        self.trace.applied[node] = applied
        lateness = self._controller.lateness(node, xid)
        if lateness is not None:
            self.trace.late[node] = lateness
        if recorder.enabled:
            self._span.event(
                "apply",
                switch=str(node),
                planned=round(self.trace.planned[node], 6),
                applied=round(applied, 6),
            )
            if lateness is not None:
                self._span.event("late", switch=str(node), seconds=round(lateness, 6))
        return True


# ----------------------------------------------------------------------
# rollback message builders
# ----------------------------------------------------------------------
def _restore_message(
    plane: DataPlane, instance: UpdateInstance, node: Node, applied: bool
) -> Optional[ControlMessage]:
    """The FlowMod returning ``node`` to its pre-update rule."""
    old_hop = instance.old_next_hop(node)
    rule_name = instance.flow.name
    if old_hop is None:
        # The update *installed* a fresh rule; removing it only makes sense
        # (and is only safe -- deletes of absent rules are errors) once the
        # install actually landed.
        if not applied:
            return None
        return FlowModDelete(xid=next_xid(), rule_name=rule_name)
    return FlowModModify(
        xid=next_xid(), rule_name=rule_name, out_port=plane.port_of(node, old_hop)
    )


def perform_resilient_update(
    controller: Controller,
    plane: DataPlane,
    instance: UpdateInstance,
    schedule: UpdateSchedule,
    *,
    strategy: str = ROUNDS,
    time_unit: float = 1.0,
    start_at: Optional[float] = None,
    retry_timeout: Optional[float] = None,
    max_retries: int = 3,
    deadline: Optional[float] = None,
    on_finish: Optional[Callable[[ExecutionTrace], None]] = None,
) -> ExecutionTrace:
    """Execute ``schedule`` with acknowledgements, retries and rollback.

    Args:
        controller: The controller managing the plane's switches.
        plane: The data plane (for port lookups).
        instance: The update instance.
        schedule: The planned switch update times.
        strategy: ``"rounds"`` (Algorithm 5 pacing: per-step sends, barrier
            sync, one-time-unit sleeps) or ``"timed"`` (Time4: every FlowMod
            pre-programmed with its switch-local execution time).
        time_unit: Seconds per schedule step.
        start_at: True time of step ``t0``: the instant the first round is
            sent (rounds) or the first scheduled FlowMod fires (timed, whose
            messages all ship now).  Default: now for rounds, now +
            :data:`LEAD_TIME` for timed.
        retry_timeout: Base wait for a switch's acknowledgement before
            resending (default ``4 * time_unit``); grows by
            :data:`BACKOFF` per attempt.  Scheduled FlowMods wait until
            their execution time plus this.
        max_retries: Resends per switch before the update aborts.
        deadline: Absolute true time after which the update aborts and
            rolls back (``None``: no deadline).
        on_finish: Called with the trace on completion *or* abort.

    Returns:
        The :class:`ExecutionTrace`, at once; it fills in as the simulation
        runs (``finished_at`` is set on completion or abort).
    """
    sim = plane.sim
    if retry_timeout is None:
        retry_timeout = 4.0 * time_unit

    batches: List[_Batch] = []
    if strategy == ROUNDS:
        for _, nodes in schedule.rounds():
            items = [
                _Item(node=node, message=_update_message(plane, instance, node, None))
                for node in nodes
            ]
            batches.append(_Batch(items=items, settle=time_unit))
        send_at = start_at
    elif strategy == TIMED:
        if start_at is None:
            start_at = sim.now + LEAD_TIME
        items = []
        for node, step in schedule.items():
            when_true = start_at + (step - schedule.t0) * time_unit
            local = controller.managed(node).clock.local_time(when_true)
            items.append(
                _Item(
                    node=node,
                    message=_update_message(plane, instance, node, execute_at=local),
                    planned=when_true,
                )
            )
        batches.append(_Batch(items=items, settle=0.0))
        send_at = None
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    run = _ResilientRun(
        controller,
        sim,
        batches,
        rollback=lambda item, applied: _restore_message(
            plane, instance, item.node, applied
        ),
        retry_timeout=retry_timeout,
        max_retries=max_retries,
        deadline=deadline,
        finished_at_from_applies=strategy == TIMED,
        on_finish=on_finish,
    )
    run.start(send_at)
    return run.trace


def perform_resilient_two_phase(
    controller: Controller,
    plane: DataPlane,
    instance: UpdateInstance,
    flip_at: float,
    *,
    retry_timeout: float = 4.0,
    max_retries: int = 3,
    deadline: Optional[float] = None,
    on_finish: Optional[Callable[[ExecutionTrace], None]] = None,
) -> ExecutionTrace:
    """Two-phase update with acknowledged installs and a guarded flip.

    Batch 1 installs the version-tagged shadow configuration now (traffic-
    invisible, so it ships ahead and retries are free); once *every*
    install is confirmed, batch 2 ships the ingress flip scheduled for true
    time ``flip_at``.  Abort rolls back: the flip is undone (untagged, old
    next hop) and every confirmed shadow rule deleted.

    Returns:
        The :class:`ExecutionTrace`; ``applied[source]`` is the realised
        flip time.
    """
    install_items = [
        _Item(node=node, message=FlowModAdd(xid=next_xid(), rule=rule))
        for node, rule in shadow_rules(plane, instance)
    ]

    source = instance.source
    flip_local = controller.managed(source).clock.local_time(flip_at)
    flip = FlowModModify(
        xid=next_xid(),
        rule_name=instance.flow.name,
        out_port=plane.port_of(source, instance.new_next_hop(source)),
        set_tag=TP_TAG,
        execute_at=flip_local,
    )
    flip_item = _Item(node=source, message=flip, planned=flip_at)

    def rollback(item: _Item, applied: bool) -> Optional[ControlMessage]:
        if item is flip_item:
            # Unflip the ingress: back to the old next hop, stamp removed.
            old_hop = instance.old_next_hop(source)
            return FlowModModify(
                xid=next_xid(),
                rule_name=instance.flow.name,
                out_port=plane.port_of(source, old_hop),
                set_tag=None,
            )
        if not applied:
            return None  # the shadow rule never landed; nothing to delete
        return FlowModDelete(xid=next_xid(), rule_name=item.message.rule.name)

    run = _ResilientRun(
        controller,
        plane.sim,
        [_Batch(items=install_items), _Batch(items=[flip_item])],
        rollback=rollback,
        retry_timeout=retry_timeout,
        max_retries=max_retries,
        deadline=deadline,
        finished_at_from_applies=True,
        on_finish=on_finish,
    )
    run.start()
    return run.trace


# ----------------------------------------------------------------------
# plans in, realised schedules out
# ----------------------------------------------------------------------
def execute_plan(
    controller: Controller,
    plane: DataPlane,
    plan: UpdatePlan,
    *,
    start_at: float,
    time_unit: float = 1.0,
    retry_timeout: Optional[float] = None,
    max_retries: int = 3,
    deadline: Optional[float] = None,
    on_finish: Optional[Callable[[ExecutionTrace], None]] = None,
) -> ExecutionTrace:
    """Execute ``plan.dispatched`` the way its planner's ``executor`` flag says.

    The one place a plan turns into control messages, and the one dispatch
    on ``planner.executor``.

    Args:
        controller: The controller managing the plane's switches.
        plane: The data plane.
        plan: The plan; carries its instance and names its planner.
        start_at: True time of step ``t0``, for every strategy: the first
            round is sent then (rounds), the step-``t0`` FlowMods fire then
            (timed; call early enough for them to arrive), the ingress
            flips ``flip step - t0`` steps later (two-phase, whose shadow
            installs ship now).
        time_unit: Seconds per schedule step.
        retry_timeout: See :func:`perform_resilient_update`.
        max_retries: Resends per switch before the update aborts.
        deadline: Absolute true time of the abort-and-roll-back deadline.
        on_finish: Called with the trace on completion *or* abort.

    Raises:
        UnknownSchemeError: ``plan.scheme`` names no registered planner.
        ValueError: The plan carries no instance.
    """
    strategy = get_planner(plan.scheme).executor
    instance = plan.instance
    if instance is None:
        raise ValueError("executing a plan needs its update instance")
    schedule = plan.dispatched
    if retry_timeout is None:
        retry_timeout = 4.0 * time_unit
    if strategy == TWO_PHASE:
        flip_step = schedule.time_of(instance.source) - schedule.t0
        return perform_resilient_two_phase(
            controller, plane, instance, start_at + flip_step * time_unit,
            retry_timeout=retry_timeout, max_retries=max_retries,
            deadline=deadline, on_finish=on_finish,
        )
    return perform_resilient_update(
        controller, plane, instance, schedule,
        strategy=strategy, time_unit=time_unit, start_at=start_at,
        retry_timeout=retry_timeout, max_retries=max_retries,
        deadline=deadline, on_finish=on_finish,
    )


def realized_schedule(
    plan: UpdatePlan, trace: ExecutionTrace, *, start_at: float, time_unit: float = 1.0
) -> Tuple[Optional[UpdateSchedule], bool]:
    """:func:`execute_plan` read backwards: apply times as integer steps.

    The result is what ``planner.verify`` judges in place of the nominal
    plan: every scheduled switch's realised step, or the ingress flip alone
    for a two-phase plan (its shadow installs are invisible to traffic).

    Returns:
        ``(schedule, off_grid)``: ``schedule`` is ``None`` when a switch
        never applied; ``off_grid`` flags an apply that missed the integer
        time grid (clock drift), whose step is then rounded.
    """
    dispatched = plan.dispatched
    t0 = dispatched.t0
    nodes = dispatched.times
    if get_planner(plan.scheme).executor == TWO_PHASE:
        nodes = [plan.instance.source]
    times: Dict[Node, int] = {}
    off_grid = False
    for node in nodes:
        applied = trace.applied.get(node)
        if applied is None:
            return None, off_grid
        exact = (applied - start_at) / time_unit
        step = round(exact)
        off_grid = off_grid or abs(exact - step) > 1e-6
        times[node] = t0 + step
    return UpdateSchedule(times=times, start_time=min([t0, *times.values()])), off_grid
