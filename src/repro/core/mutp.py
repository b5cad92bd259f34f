"""The MUTP integer program (program (3) of the paper).

The paper phrases the Minimum Update Time Problem over the time-extended
network: every emission of the dynamic flow is a flow ``f`` in ``F_T`` that
must pick exactly one loop-free path ``p`` from the pre-computed set
``P(f)`` (constraint (3b)); the chosen paths respect every timed link's
capacity (constraint (3a)); and the number of time steps used is minimised.

The path choices are tied back to *switch update times* -- which the paper
keeps implicit in the construction of ``P(f)`` -- through explicit one-hot
update-time variables ``z_{v,k}``: a path hop that leaves switch ``v`` at
time ``tau`` using the new rule forces ``v`` to be updated by ``tau``
(``x_{f,p} <= sum_{k: t0+k <= tau} z_{v,k}``), and a hop using the old rule
forces the opposite.  The resulting model is solved exactly by
:mod:`repro.solver.branch_and_bound`.

Path sets grow exponentially with the horizon, so this formulation is the
*reference* solver for small instances (it cross-validates the practical
search in :mod:`repro.core.optimal`); the benchmarks use it as the paper
uses OPT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.instance import UpdateInstance
from repro.core.schedule import UpdateSchedule
from repro.network.graph import Node

if TYPE_CHECKING:
    from repro.solver.branch_and_bound import BranchAndBoundResult
    from repro.solver.ilp import ILPModel

OLD = "old"
NEW = "new"
ARRIVE = "arrive"  # destination pseudo-hop: no rule, capacity only

Hop = Tuple[Node, int, str]  # (switch, departure time, rule used)


@dataclass
class MUTPModel:
    """A built MUTP integer program plus decoding metadata."""

    model: ILPModel
    instance: UpdateInstance
    t0: int
    horizon: int
    updatable: Tuple[Node, ...]
    emissions: Tuple[int, ...]
    paths_per_emission: Dict[int, int]

    def decode(self, solution: Dict[str, float]) -> UpdateSchedule:
        """Recover the timed update schedule from an ILP solution."""
        times: Dict[Node, int] = {}
        for node in self.updatable:
            for k in range(self.horizon):
                if round(solution.get(_z(node, k), 0.0)) == 1:
                    times[node] = self.t0 + k
                    break
            else:
                raise ValueError(f"solution assigns no update time to {node!r}")
        return UpdateSchedule(times=times, start_time=self.t0)


def build_mutp_model(
    instance: UpdateInstance,
    horizon: int,
    t0: int = 0,
    settle: Optional[int] = None,
) -> MUTPModel:
    """Assemble program (3) for updates within ``[t0, t0 + horizon - 1]``.

    Args:
        instance: The update instance.
        horizon: Number of candidate update steps ``|T|`` to allow.
        t0: The current time step.
        settle: How many emissions past the last update step to model; the
            default covers the new path's ramp-up.

    Returns:
        The model plus decoding metadata.
    """
    from repro.solver.ilp import EQ, LEQ, ILPModel  # numpy loads with the ILP

    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    network = instance.network
    updatable = tuple(instance.switches_to_update)
    if settle is None:
        settle = instance.new_path_delay + instance.old_path_delay
    last_step = t0 + horizon - 1
    emissions = tuple(range(t0 - instance.old_path_delay, last_step + settle + 1))

    model = ILPModel()

    # Update-time variables: z_{v,k} == 1 iff v updates at t0 + k.
    for node in updatable:
        coeffs: Dict[str, float] = {}
        for k in range(horizon):
            model.add_binary(_z(node, k))
            coeffs[_z(node, k)] = 1.0
        model.add_constraint(coeffs, EQ, 1.0, name=f"assign[{node}]")

    # Makespan variable: M >= k whenever z_{v,k} == 1.
    model.add_variable("M", lower=0.0, upper=float(horizon - 1))
    for node in updatable:
        coeffs = {_z(node, k): float(k) for k in range(horizon)}
        coeffs["M"] = -1.0
        model.add_constraint(coeffs, LEQ, 0.0, name=f"makespan[{node}]")
    model.set_objective({"M": 1.0})

    # Path variables per emission, with rule-consistency links to z.
    updatable_set = set(updatable)
    link_usage: Dict[Tuple[Node, Node, int], List[str]] = {}
    paths_per_emission: Dict[int, int] = {}
    for emission in emissions:
        paths = _enumerate_paths(instance, emission, t0, last_step)
        if not paths:
            raise ValueError(
                f"no loop-free space-time path for emission {emission}; "
                "increase the horizon"
            )
        paths_per_emission[emission] = len(paths)
        choice: Dict[str, float] = {}
        for index, hops in enumerate(paths):
            x_name = f"x[{emission},{index}]"
            model.add_binary(x_name)
            choice[x_name] = 1.0
            previous: Optional[Tuple[Node, int]] = None
            for node, departure, rule in hops:
                if previous is not None:
                    link_usage.setdefault(
                        (previous[0], node, previous[1]), []
                    ).append(x_name)
                if node in updatable_set:
                    by_tau = {
                        _z(node, k): 1.0
                        for k in range(horizon)
                        if t0 + k <= departure
                    }
                    if rule == NEW:
                        # x <= sum(z_{v,k} for update times <= departure)
                        coeffs = {x_name: 1.0}
                        for z_name, value in by_tau.items():
                            coeffs[z_name] = -value
                        model.add_constraint(coeffs, LEQ, 0.0)
                    else:
                        # x + sum(z earlier) <= 1
                        coeffs = {x_name: 1.0}
                        coeffs.update(by_tau)
                        model.add_constraint(coeffs, LEQ, 1.0)
                previous = (node, departure)
        model.add_constraint(choice, EQ, 1.0, name=f"route[{emission}]")

    # Constraint (3a): capacities of timed links.
    demand = instance.demand
    for (src, dst, _departure), x_names in link_usage.items():
        capacity = network.capacity(src, dst)
        if demand * len(x_names) <= capacity:
            continue  # cannot be violated
        model.add_constraint(
            {name: demand for name in x_names}, LEQ, capacity
        )

    return MUTPModel(
        model=model,
        instance=instance,
        t0=t0,
        horizon=horizon,
        updatable=updatable,
        emissions=emissions,
        paths_per_emission=paths_per_emission,
    )


def solve_mutp(
    instance: UpdateInstance,
    horizon: int,
    t0: int = 0,
    time_budget: Optional[float] = None,
) -> Tuple[Optional[UpdateSchedule], BranchAndBoundResult]:
    """Build and solve program (3); returns ``(schedule, solver result)``.

    A horizon so short that some emission has no loop-free space-time path
    at all is reported as infeasible (rather than propagating the builder's
    error): no schedule within that horizon can route the flow.
    """
    from repro.solver.branch_and_bound import INFEASIBLE, BranchAndBoundResult, solve_ilp

    try:
        built = build_mutp_model(instance, horizon, t0=t0)
    except ValueError as error:
        if "no loop-free space-time path" not in str(error):
            raise
        return None, BranchAndBoundResult(status=INFEASIBLE)
    result = solve_ilp(built.model, time_budget=time_budget)
    if result.solution is None:
        return None, result
    return built.decode(result.solution), result


def _z(node: Node, k: int) -> str:
    return f"z[{node},{k}]"


def _enumerate_paths(
    instance: UpdateInstance,
    emission: int,
    t0: int,
    last_step: int,
) -> List[Tuple[Hop, ...]]:
    """All loop-free space-time paths an emission could take.

    At each switch the emission may use the old or the new rule, except that
    rules are pinned where no update-time choice could make them active:
    before ``t0`` only old rules apply, and after ``last_step`` every
    updatable switch runs its new rule (all updates happen by then).
    """
    network = instance.network
    destination = instance.destination
    updatable = set(instance.switches_to_update)
    results: List[Tuple[Hop, ...]] = []

    def extend(node: Node, time: int, visited: Tuple[Node, ...], hops: Tuple[Hop, ...]) -> None:
        if node == destination:
            # Record the arrival so the final link's capacity is accounted;
            # ARRIVE hops carry no rule-consistency constraint.
            results.append(hops + ((node, time, ARRIVE),))
            return
        options: List[Tuple[Node, str]] = []
        old_hop = instance.old_next_hop(node)
        new_hop = instance.new_next_hop(node)
        if node in updatable:
            # Old rule active at departure `time` iff the update happens
            # later (updates end at last_step); new rule iff it happened by
            # `time` (updates start at t0).
            if old_hop is not None and time < last_step:
                options.append((old_hop, OLD))
            if new_hop is not None and time >= t0:
                options.append((new_hop, NEW))
        else:
            if old_hop is not None:
                options.append((old_hop, OLD))
            elif new_hop is not None:
                options.append((new_hop, NEW))
        for nxt, rule in options:
            if nxt in visited:
                continue  # P(f) contains only loop-free paths (Definition 2)
            extend(
                nxt,
                time + network.delay(node, nxt),
                visited + (nxt,),
                hops + ((node, time, rule),),
            )

    extend(instance.source, emission, (instance.source,), ())
    return results
