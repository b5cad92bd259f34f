"""Unit tests for the ILP model and its solution by HiGHS."""

import pytest

from repro.solver.ilp import EQ, GEQ, INFEASIBLE, LEQ, OPTIMAL, ILPModel, solve_ilp


def knapsack_model():
    """max 10a + 6b + 4c s.t. a+b+c<=2 (binary) == min of the negation."""
    model = ILPModel()
    for name in "abc":
        model.add_binary(name)
    model.add_constraint({"a": 1, "b": 1, "c": 1}, LEQ, 2)
    model.set_objective({"a": -10, "b": -6, "c": -4})
    return model


class TestModel:
    def test_duplicate_variable_rejected(self):
        model = ILPModel()
        model.add_variable("x")
        with pytest.raises(ValueError):
            model.add_variable("x")

    def test_unknown_variable_in_constraint(self):
        model = ILPModel()
        with pytest.raises(KeyError):
            model.add_constraint({"x": 1}, LEQ, 1)

    def test_unknown_variable_in_objective(self):
        model = ILPModel()
        with pytest.raises(KeyError):
            model.set_objective({"x": 1})

    def test_bad_sense_rejected(self):
        model = ILPModel()
        model.add_variable("x")
        with pytest.raises(ValueError):
            model.add_constraint({"x": 1}, "<", 1)

    def test_standard_form_shapes(self):
        model = knapsack_model()
        c, a_ub, b_ub, a_eq, b_eq, bounds, order = model.to_standard_form()
        assert list(c) == [-10, -6, -4]
        assert a_ub.shape == (1, 3)
        assert a_eq is None
        assert bounds == [(0.0, 1.0)] * 3
        assert order == ["a", "b", "c"]

    def test_geq_becomes_negated_leq(self):
        model = ILPModel()
        model.add_variable("x", upper=10)
        model.add_constraint({"x": 1}, GEQ, 3)
        _, a_ub, b_ub, *_ = model.to_standard_form()
        assert a_ub[0][0] == -1 and b_ub[0] == -3


class TestBranchAndBound:
    """``solve_ilp`` proves optima with HiGHS' branch and cut."""

    def test_knapsack_optimum(self):
        result = solve_ilp(knapsack_model())
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(-16)
        assert result.solution == {"a": 1, "b": 1, "c": 0}

    def test_continuous_variable_stays_fractional(self):
        model = ILPModel()
        model.add_variable("x", upper=3)
        model.add_constraint({"x": 2}, LEQ, 3)
        model.set_objective({"x": -1})
        result = solve_ilp(model)
        assert result.status == OPTIMAL
        assert result.solution["x"] == pytest.approx(1.5)

    def test_infeasible(self):
        model = ILPModel()
        model.add_binary("x")
        model.add_constraint({"x": 1}, GEQ, 2)
        result = solve_ilp(model)
        assert result.status == INFEASIBLE
        assert result.solution is None

    def test_equality_constraints(self):
        model = ILPModel()
        model.add_binary("x")
        model.add_binary("y")
        model.add_constraint({"x": 1, "y": 1}, EQ, 1)
        model.set_objective({"x": 2, "y": 1})
        result = solve_ilp(model)
        assert result.status == OPTIMAL
        assert result.solution == {"x": 0, "y": 1}

    def test_integrality_enforced(self):
        # LP relaxation would pick x = 1.5.
        model = ILPModel()
        model.add_variable("x", upper=3, integer=True)
        model.add_constraint({"x": 2}, LEQ, 3)
        model.set_objective({"x": -1})
        result = solve_ilp(model)
        assert result.status == OPTIMAL
        assert result.solution["x"] == 1

    def test_bigger_assignment_problem(self):
        # 3x3 assignment, minimise cost; optimum is 1+2+1 = 4.
        costs = {("a", 0): 1, ("a", 1): 5, ("a", 2): 9,
                 ("b", 0): 4, ("b", 1): 2, ("b", 2): 6,
                 ("c", 0): 1, ("c", 1): 7, ("c", 2): 3}
        model = ILPModel()
        for key in costs:
            model.add_binary(f"x{key}")
        for row in "abc":
            model.add_constraint({f"x{(row, j)}": 1 for j in range(3)}, EQ, 1)
        for j in range(3):
            model.add_constraint({f"x{(row, j)}": 1 for row in "abc"}, EQ, 1)
        model.set_objective({f"x{key}": cost for key, cost in costs.items()})
        result = solve_ilp(model)
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(6)  # 5? compute: a->0(1), b->1(2), c->2(3) = 6
