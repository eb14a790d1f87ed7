from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from _oracles import brute_lp_solve, random_box_lp
from mixedctrl.core import InvalidInputError
from mixedctrl.milp import LpProblem, solve_lp


def _lp(obj, lhs, senses, rhs, lower, upper):
    n = len(obj)
    return LpProblem(
        objective=np.array(obj, float),
        lhs=np.array(lhs, float).reshape(-1, n),
        senses=senses,
        rhs=np.array(rhs, float),
        lower=np.array(lower, float),
        upper=np.array(upper, float),
    )


def test_max_single_variable():
    p = _lp([-1.0], [[1.0]], ("<=",), [3.0], [0.0], [np.inf])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-3.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)


def test_two_variable_vertex_optimum():
    # min -x - 2y subject to x + y <= 4, x <= 3, y <= 2.5, x,y >= 0
    p = _lp(
        [-1.0, -2.0],
        [[1.0, 1.0]],
        ("<=",),
        [4.0],
        [0.0, 0.0],
        [3.0, 2.5],
    )
    sol = solve_lp(p)
    status, obj, _ = brute_lp_solve(p)
    assert sol.status == status == "optimal"
    assert sol.objective == pytest.approx(obj, abs=1e-9)
    assert sol.x == pytest.approx([1.5, 2.5], abs=1e-9)


def test_infeasible_rows():
    p = _lp([1.0], [[1.0]], ("<=",), [-1.0], [0.0], [np.inf])
    assert solve_lp(p).status == "infeasible"


def test_unbounded():
    p = _lp([-1.0], [[0.0]], ("<=",), [1.0], [0.0], [np.inf])
    assert solve_lp(p).status == "unbounded"


def test_equality_row():
    p = _lp(
        [1.0, 1.0],
        [[1.0, 2.0], [1.0, -1.0]],
        ("=", "<="),
        [4.0, 1.0],
        [0.0, 0.0],
        [np.inf, np.inf],
    )
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.x[0] + 2 * sol.x[1] == pytest.approx(4.0, abs=1e-9)
    assert sol.objective == pytest.approx(2.0, abs=1e-9)  # x=(0,2)


def test_free_and_mirrored_variables():
    # free variable pushed negative by the objective, only a row holds it
    p = _lp([1.0], [[1.0]], (">=",), [-5.0], [-np.inf], [np.inf])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(-5.0, abs=1e-9)
    # upper bound only
    p2 = _lp([-1.0], [[0.0]], ("<=",), [1.0], [-np.inf], [3.0])
    sol2 = solve_lp(p2)
    assert sol2.status == "optimal"
    assert sol2.x[0] == pytest.approx(3.0, abs=1e-9)


def test_fixed_variable_substitution():
    p = _lp(
        [1.0, 1.0],
        [[1.0, 1.0]],
        (">=",),
        [3.0],
        [2.0, 0.0],
        [2.0, np.inf],
    )
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([2.0, 1.0], abs=1e-9)


def test_bad_bounds_rejected():
    with pytest.raises(InvalidInputError):
        _lp([1.0], [[1.0]], ("<=",), [1.0], [1.0], [0.0])


def test_beale_degenerate_cycle_terminates():
    # classic cycling construction for naive pivot rules
    p = _lp(
        [-0.75, 150.0, -0.02, 6.0],
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        ("<=", "<=", "<="),
        [0.0, 0.0, 1.0],
        [0.0] * 4,
        [np.inf] * 4,
    )
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def test_random_instances_match_vertex_enumeration():
    rng = np.random.default_rng(20260814)
    for trial in range(60):
        p = random_box_lp(rng, nvar=4, nrow=5)
        sol = solve_lp(p)
        status, obj, _ = brute_lp_solve(p)
        assert sol.status == status == "optimal", f"trial {trial}"
        assert sol.objective == pytest.approx(obj, abs=1e-6), f"trial {trial}"


def test_deterministic_resolve():
    rng = np.random.default_rng(7)
    p = random_box_lp(rng, nvar=5, nrow=6)
    a = solve_lp(p)
    b = solve_lp(p)
    assert a.pivots == b.pivots
    assert a.x.tobytes() == b.x.tobytes()


def _brute_lp_solve_loop(problem: LpProblem, tol: float = 1e-7):
    """The one-basis-at-a-time form of `brute_lp_solve`, kept to check it."""
    n = problem.num_vars
    cand: list[tuple[np.ndarray, float]] = []
    must_active: list[int] = []
    for i in range(problem.lhs.shape[0]):
        if problem.senses[i] == "=":
            must_active.append(len(cand))
        cand.append((problem.lhs[i], float(problem.rhs[i])))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(problem.lower[j]):
            cand.append((e, float(problem.lower[j])))
        if np.isfinite(problem.upper[j]):
            cand.append((e, float(problem.upper[j])))

    def feasible(x: np.ndarray) -> bool:
        lhs = problem.lhs @ x
        for i, s in enumerate(problem.senses):
            r = problem.rhs[i]
            if s == "<=" and lhs[i] > r + tol:
                return False
            if s == ">=" and lhs[i] < r - tol:
                return False
            if s == "=" and abs(lhs[i] - r) > tol:
                return False
        if np.any(x < problem.lower - tol) or np.any(x > problem.upper + tol):
            return False
        return True

    best_obj = None
    best_x = None
    for combo in combinations(range(len(cand)), n):
        if any(i not in combo for i in must_active):
            continue
        a = np.array([cand[i][0] for i in combo])
        b = np.array([cand[i][1] for i in combo])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or not np.allclose(a @ x, b, atol=1e-8):
            continue
        if not feasible(x):
            continue
        obj = float(problem.objective @ x)
        if best_obj is None or obj < best_obj - 1e-12:
            best_obj = obj
            best_x = x
    if best_obj is None:
        return "infeasible", None, None
    return "optimal", best_obj, best_x


def test_batched_vertex_enumeration_matches_the_loop():
    rng = np.random.default_rng(20261018)
    for trial in range(300):
        p = random_box_lp(rng, nvar=int(rng.integers(1, 5)), nrow=int(rng.integers(1, 6)))
        kind = trial % 3
        if kind == 1:
            # equality rows that must sit in every basis, some infeasible
            p.senses = tuple(rng.choice(["<=", ">=", "="], size=p.lhs.shape[0]))
        elif kind == 2:
            # free and half-bounded variables, tight rows
            p.lower[rng.random(p.num_vars) < 0.3] = -np.inf
            p.rhs = p.rhs - rng.uniform(0.0, 4.0, size=p.lhs.shape[0])
        got = brute_lp_solve(p)
        want = _brute_lp_solve_loop(p)
        assert got[0] == want[0], f"trial {trial}"
        if want[0] == "optimal":
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-12), f"trial {trial}"
            assert got[2] == pytest.approx(want[2], rel=1e-9, abs=1e-9), f"trial {trial}"
