"""A compact integer linear program and its exact solution by HiGHS.

Kept deliberately small: named variables with bounds and integrality, linear
constraints with ``<=``/``>=``/``==`` senses, and a minimisation objective.
:func:`ILPModel.to_standard_form` lowers the model onto matrices, and
:func:`solve_ilp` hands them to ``scipy.optimize.milp`` (the HiGHS
branch-and-cut MILP solver) with a zero relative gap, so ``optimal`` means
proven.

scipy is imported by :func:`solve_ilp` itself, on first use: nothing else
in the package needs it, so ``import repro`` does not pay its import time
and memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

LEQ = "<="
GEQ = ">="
EQ = "=="
_SENSES = (LEQ, GEQ, EQ)

OPTIMAL = "optimal"
FEASIBLE = "feasible"  # time limit hit with an incumbent
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"  # time limit hit without an incumbent

_MILP_OPTIMAL = 0
_MILP_INFEASIBLE = 2


@dataclass(frozen=True)
class Variable:
    """One decision variable.

    Attributes:
        name: Unique identifier.
        lower: Lower bound (default 0).
        upper: Upper bound (``None`` = unbounded above).
        integer: Whether the solver must drive it integral.
    """

    name: str
    lower: float = 0.0
    upper: Optional[float] = None
    integer: bool = False


@dataclass(frozen=True)
class Constraint:
    """``sum(coeffs[v] * v) sense rhs``."""

    coeffs: Mapping[str, float]
    sense: str
    rhs: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in _SENSES:
            raise ValueError(f"unknown constraint sense {self.sense!r}")


@dataclass
class ILPModel:
    """A minimisation ILP assembled incrementally."""

    variables: Dict[str, Variable] = field(default_factory=dict)
    constraints: List[Constraint] = field(default_factory=list)
    objective: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: Optional[float] = None,
        integer: bool = False,
    ) -> Variable:
        """Register a variable; names must be unique."""
        if name in self.variables:
            raise ValueError(f"duplicate variable {name!r}")
        var = Variable(name=name, lower=lower, upper=upper, integer=integer)
        self.variables[name] = var
        return var

    def add_binary(self, name: str) -> Variable:
        """A 0/1 integer variable."""
        return self.add_variable(name, lower=0.0, upper=1.0, integer=True)

    def add_constraint(
        self, coeffs: Mapping[str, float], sense: str, rhs: float, name: str = ""
    ) -> Constraint:
        """Add a linear constraint over registered variables."""
        for var in coeffs:
            if var not in self.variables:
                raise KeyError(f"constraint references unknown variable {var!r}")
        constraint = Constraint(coeffs=dict(coeffs), sense=sense, rhs=rhs, name=name)
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, coeffs: Mapping[str, float]) -> None:
        """Minimise ``sum(coeffs[v] * v)``."""
        for var in coeffs:
            if var not in self.variables:
                raise KeyError(f"objective references unknown variable {var!r}")
        self.objective = dict(coeffs)

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------
    def to_standard_form(
        self,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray], List[Tuple[float, Optional[float]]], List[str]]:
        """Lower to ``(c, A_ub, b_ub, A_eq, b_eq, bounds, order)`` for scipy."""
        order = list(self.variables)
        index = {name: i for i, name in enumerate(order)}
        n = len(order)

        c = np.zeros(n)
        for name, coeff in self.objective.items():
            c[index[name]] = coeff

        ub_rows: List[np.ndarray] = []
        ub_rhs: List[float] = []
        eq_rows: List[np.ndarray] = []
        eq_rhs: List[float] = []
        for constraint in self.constraints:
            row = np.zeros(n)
            for name, coeff in constraint.coeffs.items():
                row[index[name]] = coeff
            if constraint.sense == LEQ:
                ub_rows.append(row)
                ub_rhs.append(constraint.rhs)
            elif constraint.sense == GEQ:
                ub_rows.append(-row)
                ub_rhs.append(-constraint.rhs)
            else:
                eq_rows.append(row)
                eq_rhs.append(constraint.rhs)

        bounds = [
            (self.variables[name].lower, self.variables[name].upper) for name in order
        ]

        a_ub = np.vstack(ub_rows) if ub_rows else None
        b_ub = np.asarray(ub_rhs) if ub_rhs else None
        a_eq = np.vstack(eq_rows) if eq_rows else None
        b_eq = np.asarray(eq_rhs) if eq_rhs else None
        return c, a_ub, b_ub, a_eq, b_eq, bounds, order

    @property
    def integer_variables(self) -> List[str]:
        """Names of variables that must be integral."""
        return [name for name, var in self.variables.items() if var.integer]


@dataclass
class ILPResult:
    """Solver outcome.

    Attributes:
        status: ``optimal`` / ``feasible`` / ``infeasible`` / ``unknown``.
        objective: Incumbent objective value (``None`` without incumbent).
        solution: Incumbent assignment by variable name.
        nodes: Branch-and-cut nodes HiGHS explored (0 for a pure LP).
        elapsed: Wall-clock seconds spent.
    """

    status: str
    objective: Optional[float] = None
    solution: Optional[Dict[str, float]] = None
    nodes: int = 0
    elapsed: float = 0.0


def solve_ilp(model: ILPModel, time_limit: Optional[float] = None) -> ILPResult:
    """Minimise ``model`` to proven optimality (or until the time limit).

    HiGHS' presolve can wrongly declare a feasible model infeasible (seen
    on program (3) for ``random_instance(14, seed=9)`` at horizon 8), so
    an ``infeasible`` verdict is certified by solving again with presolve
    off, and that second verdict is the one returned.

    Args:
        model: The ILP to minimise.
        time_limit: Wall-clock seconds for HiGHS, both calls together;
            ``None`` = unlimited.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    started = time.monotonic()
    c, a_ub, b_ub, a_eq, b_eq, bounds, order = model.to_standard_form()
    constraints = []
    if a_ub is not None:
        constraints.append(LinearConstraint(a_ub, -np.inf, b_ub))
    if a_eq is not None:
        constraints.append(LinearConstraint(a_eq, b_eq, b_eq))
    options: Dict[str, object] = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = time_limit
    solve = partial(
        milp,
        c,
        integrality=[int(model.variables[name].integer) for name in order],
        bounds=Bounds(
            [lower for lower, _ in bounds],
            [np.inf if upper is None else upper for _, upper in bounds],
        ),
        constraints=constraints,
    )
    result = solve(options=options)
    nodes = result.get("mip_node_count") or 0
    if result.status == _MILP_INFEASIBLE:
        if time_limit is not None:
            options["time_limit"] = max(0.0, started + time_limit - time.monotonic())
        result = solve(options=dict(options, presolve=False))
        nodes += result.get("mip_node_count") or 0
    elapsed = time.monotonic() - started
    if result.status == _MILP_INFEASIBLE:
        return ILPResult(status=INFEASIBLE, nodes=nodes, elapsed=elapsed)
    if result.x is None:
        return ILPResult(status=UNKNOWN, nodes=nodes, elapsed=elapsed)
    solution = {name: float(result.x[i]) for i, name in enumerate(order)}
    for name in model.integer_variables:
        solution[name] = round(solution[name])
    return ILPResult(
        status=OPTIMAL if result.status == _MILP_OPTIMAL else FEASIBLE,
        objective=float(result.fun),
        solution=solution,
        nodes=nodes,
        elapsed=elapsed,
    )
