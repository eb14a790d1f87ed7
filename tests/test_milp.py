from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize._highspy import _core as highs

from _oracles import brute_milp_solve, random_milp
from mixedctrl import milp
from mixedctrl.cli import build_setup
from mixedctrl.core import MixedControlError
from mixedctrl.milp import LpProblem, MilpProblem, Solution, solve_lp, solve_milp
from mixedctrl.smpc import build_inner_milp

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _corridor_milp(lam: float) -> MilpProblem:
    """The shipped corridor's inner program at multiplier ``lam``."""
    config = json.loads((CONFIGS / "corridor.json").read_text(encoding="utf-8"))
    oracle = build_setup(config, CONFIGS)
    problem, _ = build_inner_milp(oracle.model, lam, oracle.pwl)
    return problem


def _knapsack() -> MilpProblem:
    lp = LpProblem(
        objective=np.array([-5.0, -4.0, -3.0]),
        lhs=np.array([[2.0, 3.0, 1.0]]),
        senses=("<=",),
        rhs=np.array([5.0]),
        lower=np.zeros(3),
        upper=np.ones(3),
    )
    return MilpProblem(lp=lp, binary=(0, 1, 2))


def test_knapsack_three_binaries():
    sol = solve_milp(_knapsack())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-9.0, abs=1e-9)
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
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x == pytest.approx([1.0, 0.0], abs=1e-9)


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


def test_node_budget_flags_suboptimal(monkeypatch):
    # HiGHS closes the knapsack at the root; this program needs a few nodes
    problem = _corridor_milp(1828.7)
    monkeypatch.setattr(milp, "MAX_NODES", 1)
    assert solve_milp(problem).status == "suboptimal"
    monkeypatch.undo()
    full = solve_milp(problem)
    assert full.status == "optimal"
    assert full.node_count > 1


@pytest.mark.parametrize(
    "state, message",
    [("kIterationLimit", "Iteration limit reached"), ("kSolveError", "Solve error")],
    ids=["kIterationLimit", "kSolveError"],
)
def test_unmapped_highs_outcomes_raise_with_its_message(monkeypatch, state, message):
    # an LP iteration limit, or a MILP outcome that is no limit, is an
    # error carrying HiGHS's message, never "infeasible"
    faked = getattr(highs.HighsModelStatus, state)

    class Faked(highs._Highs):
        def getModelStatus(self):
            return faked

    # solve_milp builds each program's model from the binding when first called
    monkeypatch.setattr(highs, "_Highs", Faked)
    with pytest.raises(MixedControlError, match=message):
        solve_lp(_knapsack().lp)
    if state == "kSolveError":
        with pytest.raises(MixedControlError, match=message):
            solve_milp(_knapsack())


def test_resolve_at_an_earlier_objective_matches_a_fresh_program():
    # the kept model holds no basis, incumbent or presolve from the last query
    fresh = solve_milp(_corridor_milp(1828.7))
    used = _corridor_milp(1828.7)
    first = used.lp.objective.copy()
    solve_milp(used)
    used.lp.objective[:] = _corridor_milp(0.0).lp.objective
    other = solve_milp(used)
    used.lp.objective[:] = first
    again = solve_milp(used)
    assert other.x.tobytes() != fresh.x.tobytes()
    assert again.x.tobytes() == fresh.x.tobytes()
    assert again.objective == fresh.objective
    assert again.node_count == fresh.node_count


def test_only_the_objective_of_a_program_is_writable():
    problem = _knapsack()
    solve_milp(problem)
    for name in ("lhs", "rhs", "lower", "upper"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(problem.lp, name)[0] = 0.5
    problem.lp.objective[0] = -1.0
    assert solve_milp(problem).x == pytest.approx([0.0, 1.0, 1.0])


def test_an_option_that_highs_rejects_raises_naming_it(monkeypatch):
    monkeypatch.setitem(milp.HIGHS_OPTIONS, "no_such_highs_option", 1)
    with pytest.raises(MixedControlError, match="no_such_highs_option"):
        solve_milp(_knapsack())


def test_solve_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_milp(_knapsack())
    assert sol.status == "optimal"


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
    assert isinstance(a, Solution)
    assert a.node_count == b.node_count
    assert a.x.tobytes() == b.x.tobytes()

