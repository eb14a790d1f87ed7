from __future__ import annotations

import numpy as np
import pytest

from _oracles import brute_milp_solve, random_milp
from mixedctrl.lpsolve import LpProblem
from mixedctrl.milp import MilpProblem, MilpSolution, solve_milp


def _knapsack() -> MilpProblem:
    lp = LpProblem(
        objective=np.array([5.0, 4.0, 3.0]),
        lhs=np.array([[2.0, 3.0, 1.0]]),
        senses=("<=",),
        rhs=np.array([5.0]),
        lower=np.zeros(3),
        upper=np.ones(3),
        sense="max",
    )
    return MilpProblem(lp=lp, binary=(0, 1, 2))


def test_knapsack_three_binaries():
    sol = solve_milp(_knapsack())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(9.0, abs=1e-9)
    assert np.round(sol.x) == pytest.approx([1.0, 1.0, 0.0])


def test_integral_relaxation_short_circuits():
    lp = LpProblem(
        objective=np.array([1.0, 1.0]),
        lhs=np.array([[1.0, 0.0]]),
        senses=(">=",),
        rhs=np.array([1.0]),
        lower=np.zeros(2),
        upper=np.array([1.0, 5.0]),
    )
    sol = solve_milp(MilpProblem(lp=lp, binary=(0,)))
    assert sol.status == "optimal"
    assert sol.node_count == 1
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_infeasible_root():
    lp = LpProblem(
        objective=np.array([1.0]),
        lhs=np.array([[1.0]]),
        senses=(">=",),
        rhs=np.array([2.0]),
        lower=np.zeros(1),
        upper=np.ones(1),
    )
    sol = solve_milp(MilpProblem(lp=lp, binary=(0,)))
    assert sol.status == "infeasible"
    assert sol.x is None


def test_node_budget_flags_suboptimal():
    lp = _knapsack().lp
    sol = solve_milp(MilpProblem(lp=lp, binary=(0, 1, 2)), max_nodes=1)
    assert sol.status == "suboptimal"


def test_random_instances_match_assignment_enumeration():
    rng = np.random.default_rng(99)
    for trial in range(40):
        lp, binary = random_milp(rng, nbin=5, ncont=3, nrow=5)
        sol = solve_milp(MilpProblem(lp=lp, binary=binary))
        status, obj, _ = brute_milp_solve(lp, binary)
        assert sol.status == status == "optimal", f"trial {trial}"
        assert sol.objective == pytest.approx(obj, abs=1e-6), f"trial {trial}"
        assert np.all(np.abs(sol.x[list(binary)] - np.round(sol.x[list(binary)])) < 1e-6)


def test_deterministic_resolve():
    rng = np.random.default_rng(3)
    lp, binary = random_milp(rng)
    a = solve_milp(MilpProblem(lp=lp, binary=binary))
    b = solve_milp(MilpProblem(lp=lp, binary=binary))
    assert isinstance(a, MilpSolution)
    assert a.node_count == b.node_count
    assert a.x.tobytes() == b.x.tobytes()

