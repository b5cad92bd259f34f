"""Optimisation substrate: a small ILP model solved exactly by HiGHS.

The paper solves the MUTP integer program (3) "using the branch and bound
method".  :mod:`repro.solver.ilp` holds a compact model representation and
:func:`~repro.solver.ilp.solve_ilp`, which lowers it onto matrices and
calls ``scipy.optimize.milp`` (HiGHS' branch and cut) with a zero gap.
"""

from repro.solver.ilp import Constraint, ILPModel, ILPResult, Variable, solve_ilp

__all__ = [
    "Constraint",
    "ILPModel",
    "Variable",
    "ILPResult",
    "solve_ilp",
]
