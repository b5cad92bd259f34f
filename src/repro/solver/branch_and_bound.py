"""Branch-and-bound over scipy LP relaxations.

The classic scheme the paper refers to as "the branch and bound method":
solve the LP relaxation; if some integer variable is fractional, branch into
``x <= floor`` and ``x >= ceil`` subproblems; prune subproblems whose bound
cannot beat the incumbent.  Depth-first with best-bound child ordering keeps
memory flat, and a wall-clock budget turns the solver into an anytime one
(needed to reproduce the paper's Fig. 10 cutoffs).

scipy is imported by :func:`solve_ilp` itself, on first use: nothing else
in the package needs it, so ``import repro`` does not pay its import time
and memory.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.solver.ilp import ILPModel

OPTIMAL = "optimal"
FEASIBLE = "feasible"  # budget hit with an incumbent
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"  # budget hit without an incumbent

_INT_TOL = 1e-6


@dataclass
class BranchAndBoundResult:
    """Solver outcome.

    Attributes:
        status: ``optimal`` / ``feasible`` / ``infeasible`` / ``unknown``.
        objective: Incumbent objective value (``None`` without incumbent).
        solution: Incumbent assignment by variable name.
        nodes: Number of branch-and-bound nodes explored.
        elapsed: Wall-clock seconds spent.
    """

    status: str
    objective: Optional[float] = None
    solution: Optional[Dict[str, float]] = None
    nodes: int = 0
    elapsed: float = 0.0

    @property
    def proven_optimal(self) -> bool:
        return self.status == OPTIMAL


def solve_ilp(
    model: ILPModel,
    time_budget: Optional[float] = None,
    node_budget: Optional[int] = None,
) -> BranchAndBoundResult:
    """Solve ``model`` to optimality (or until a budget runs out).

    Args:
        model: The ILP to minimise.
        time_budget: Wall-clock seconds; ``None`` = unlimited.
        node_budget: Maximum explored nodes; ``None`` = unlimited.
    """
    from scipy.optimize import linprog

    started = time.monotonic()
    c, a_ub, b_ub, a_eq, b_eq, base_bounds, order = model.to_standard_form()
    integer_index = [
        i for i, name in enumerate(order) if model.variables[name].integer
    ]

    incumbent: Optional[np.ndarray] = None
    incumbent_value = math.inf
    nodes = 0
    exhausted = True

    # Each stack entry is a bounds list (branching tightens variable bounds).
    stack: List[List[Tuple[float, Optional[float]]]] = [list(base_bounds)]

    while stack:
        if time_budget is not None and time.monotonic() - started > time_budget:
            exhausted = False
            break
        if node_budget is not None and nodes >= node_budget:
            exhausted = False
            break
        bounds = stack.pop()
        nodes += 1

        result = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
        )
        if not result.success:
            continue  # infeasible or unbounded subproblem
        if result.fun >= incumbent_value - 1e-9:
            continue  # bound cannot beat the incumbent

        x = result.x
        fractional = _most_fractional(x, integer_index)
        if fractional is None:
            incumbent = x.copy()
            incumbent_value = result.fun
            continue

        index, value = fractional
        floor_bounds = list(bounds)
        lo, hi = floor_bounds[index]
        floor_bounds[index] = (lo, math.floor(value))
        ceil_bounds = list(bounds)
        ceil_bounds[index] = (math.ceil(value), hi)
        # DFS: push the child whose bound is likely better last (explored
        # first); rounding toward the LP value tends to find incumbents fast.
        if value - math.floor(value) < 0.5:
            stack.append(ceil_bounds)
            stack.append(floor_bounds)
        else:
            stack.append(floor_bounds)
            stack.append(ceil_bounds)

    elapsed = time.monotonic() - started
    if incumbent is None:
        status = INFEASIBLE if exhausted else UNKNOWN
        return BranchAndBoundResult(status=status, nodes=nodes, elapsed=elapsed)
    solution = {name: float(incumbent[i]) for i, name in enumerate(order)}
    for name in model.integer_variables:
        solution[name] = round(solution[name])
    status = OPTIMAL if exhausted else FEASIBLE
    return BranchAndBoundResult(
        status=status,
        objective=float(incumbent_value),
        solution=solution,
        nodes=nodes,
        elapsed=elapsed,
    )


def _most_fractional(
    x: np.ndarray, integer_index: List[int]
) -> Optional[Tuple[int, float]]:
    """The integer variable farthest from integrality, or ``None``."""
    best: Optional[Tuple[int, float]] = None
    best_distance = _INT_TOL
    for i in integer_index:
        value = x[i]
        distance = abs(value - round(value))
        if distance > best_distance:
            best_distance = distance
            best = (i, value)
    return best
