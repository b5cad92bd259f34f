"""OPT: exact minimum-update-time search.

The paper obtains OPT by solving the MUTP integer program with branch and
bound.  This module provides the practical exact solver: a depth-first
branch-and-bound over *timed update decisions* -- at every time step, branch
over the subsets of currently-safe switches to update (plus waiting) -- with
an interval tracker as the exact transient state.  The search prunes on the
incumbent makespan and on the drain fix-point (waiting past the last finite
flow class cannot unblock anything), and honours a wall-clock budget so the
Fig. 10 cutoff behaviour can be reproduced.

The search itself is the shared array-backed core in
:mod:`repro.core.search` (DESIGN.md §13): COW tracker clones, probe-chain
subset expansion, a targeted pairwise-rescue candidate pass, a
transposition/dominance memo and a drain-horizon bound.

:func:`exhaustive_schedule` is the brutally simple oracle used by the test
suite on tiny instances.  The ILP formulation itself lives in
:mod:`repro.core.mutp`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.greedy import GreedyResult, greedy_schedule
from repro.core.instance import UpdateInstance
from repro.core.schedule import UpdateSchedule
from repro.core.search import run_optimal_search
from repro.core.trace import trace_schedule
from repro.network.graph import Node
from repro.trace.recorder import recorder


@dataclass
class OptimalResult:
    """Outcome of the exact search.

    Attributes:
        schedule: Best congestion- and loop-free schedule found, or ``None``.
        proven: Whether the search ran to completion without truncation
            (so the result is the true optimum / a true infeasibility
            proof).
        explored: Number of search nodes visited.
        elapsed: Wall-clock seconds spent: the greedy seed plus the search,
            or the search alone when the caller supplied the incumbent
            (whoever ran that greedy accounts for its time).
        width_cut: Whether a candidate set was truncated to
            ``max_branch_width`` somewhere in the search.  A truncated
            branch may hide a better schedule *or* the only feasible
            one, so ``width_cut`` forfeits both the optimality and the
            infeasibility claim (``proven`` is forced ``False``).
    """

    schedule: Optional[UpdateSchedule]
    proven: bool
    explored: int
    elapsed: float
    width_cut: bool = False

    @property
    def feasible(self) -> Optional[bool]:
        """``True``/``False`` when known, ``None`` when the budget ran out."""
        if self.schedule is not None:
            return True
        return False if self.proven else None

    @property
    def makespan(self) -> Optional[int]:
        return None if self.schedule is None else self.schedule.makespan


def optimal_schedule(
    instance: UpdateInstance,
    t0: int = 0,
    time_budget: Optional[float] = None,
    max_branch_width: int = 12,
    max_horizon: Optional[int] = None,
    node_budget: Optional[int] = None,
    incumbent: Optional[GreedyResult] = None,
) -> OptimalResult:
    """Find a minimum-makespan congestion- and loop-free schedule.

    Args:
        instance: The update instance.
        t0: Earliest permitted update time.
        time_budget: Wall-clock budget in seconds (``None`` = unlimited);
            when exceeded the best incumbent is returned with
            ``proven=False``.
        max_branch_width: Cap on the candidate set considered per time step
            (subsets are enumerated, so this bounds the branching factor).
            Truncation is reported via ``width_cut`` and forfeits
            ``proven``.
        max_horizon: Latest step (relative to ``t0``) any update may take;
            defaults to a generous function of the instance size.
        node_budget: Cap on explored search nodes (``None`` = unlimited).
            Unlike ``time_budget`` this is *deterministic*: the same
            instance gives the same result on any machine or under any
            load, which is what parallel sweeps need for byte-identical
            records.  It is checked before every counted state, so
            ``explored <= node_budget`` always holds; exhaustion returns
            the incumbent with ``proven=False``, exactly like a timeout.
        incumbent: The result of ``greedy_schedule(instance, t0=t0)`` when
            the caller already has it (a sweep item whose Chronus plan is
            that very run); the search seeds from it instead of running
            the greedy again and ``elapsed`` then excludes the seed.  Any
            other greedy result (another instance, mode or background)
            gives a wrong bound.

    Returns:
        An :class:`OptimalResult`.
    """
    pending_all: Tuple[Node, ...] = tuple(instance.switches_to_update)
    if not pending_all:
        empty = UpdateSchedule(times={}, start_time=t0)
        return OptimalResult(schedule=empty, proven=True, explored=0, elapsed=0.0)

    if max_horizon is None:
        max_horizon = (
            2 * (instance.old_path_delay + instance.new_path_delay)
            + 2 * len(instance.network)
            + 8
        )

    started = time.monotonic()

    # Seed the incumbent with the greedy schedule when it is feasible.
    seed_times: Optional[Dict[Node, int]] = None
    seed_makespan: Optional[int] = None
    seed = incumbent
    if seed is None:
        with recorder.timer("opt.seed"):
            seed = greedy_schedule(instance, t0=t0)
    if seed.feasible:
        seed_times = seed.schedule.as_dict()
        seed_makespan = seed.schedule.makespan

    with recorder.timer("opt.search") as search:
        best_times, explored, timed_out, horizon_cut, width_cut = run_optimal_search(
            instance,
            t0,
            time_budget,
            max_branch_width,
            max_horizon,
            node_budget,
            seed_times,
            seed_makespan,
        )
        elapsed = time.monotonic() - started
        schedule = None
        if best_times is not None:
            schedule = UpdateSchedule(times=best_times, start_time=t0, feasible=True)
        # An optimality claim survives a horizon cut (no schedule can beat
        # the incumbent by updating even later), but an infeasibility claim
        # does not -- and a width cut forfeits both.
        proven = (
            not timed_out
            and not width_cut
            and (schedule is not None or not horizon_cut)
        )
        search.set(
            switches=len(pending_all),
            explored=explored,
            proven=proven,
            width_cut=width_cut,
            feasible=schedule is not None,
        )
    return OptimalResult(
        schedule=schedule,
        proven=proven,
        explored=explored,
        elapsed=elapsed,
        width_cut=width_cut,
    )


def exhaustive_schedule(
    instance: UpdateInstance,
    max_makespan: int,
    t0: int = 0,
) -> Optional[UpdateSchedule]:
    """Brute-force oracle: try every time assignment up to ``max_makespan``.

    Every switch gets every time in ``[t0, t0 + max_makespan - 1]``; each
    complete assignment is validated with the unit tracer.  Exponential --
    strictly for tests on tiny instances.

    Returns:
        A minimum-makespan valid schedule, or ``None`` if none exists within
        the bound.
    """
    nodes = list(instance.switches_to_update)
    if not nodes:
        return UpdateSchedule(times={}, start_time=t0)
    for makespan in range(1, max_makespan + 1):
        slots = range(t0, t0 + makespan)
        for assignment in itertools.product(slots, repeat=len(nodes)):
            if max(assignment) != t0 + makespan - 1:
                continue  # realise this makespan exactly (smaller ones failed)
            times = dict(zip(nodes, assignment))
            schedule = UpdateSchedule(times=times, start_time=t0)
            if trace_schedule(instance, schedule).ok:
                return schedule
    return None
