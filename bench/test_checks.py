"""Self-tests for the benchmark's output checks.

Each checker must pass a correct output and reject a deliberately wrong
one. Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402


def _report() -> dict:
    """A correct two-point mixture: risks 0.015 and 0.005 mixed onto V = 0.01."""
    return {
        "risk_bound": 0.01,
        "pure": {"policy": "plan_1.csv", "cost": 20.0, "risk": 0.005},
        "mixed": {
            "components": [
                {"policy": "plan_0.csv", "probability": 0.5, "cost": 10.0, "risk": 0.015},
                {"policy": "plan_1.csv", "probability": 0.5, "cost": 20.0, "risk": 0.005},
            ],
            "aggregate": {"cost": 15.0, "risk": 0.01},
        },
        "dual": {"lambda_star": 1000.0},
    }


def test_mixture_accepts_a_correct_report():
    assert checks.check_mixture(_report()) == []


def test_mixture_rejects_a_weight_nudged_by_1e_3():
    report = _report()
    report["mixed"]["components"][0]["probability"] += 1e-3
    assert checks.check_mixture(report)
    # nudging both weights keeps the sum but moves the aggregate off V
    report = _report()
    report["mixed"]["components"][0]["probability"] += 1e-3
    report["mixed"]["components"][1]["probability"] -= 1e-3
    assert checks.check_mixture(report)


def test_mixture_rejects_a_mixed_cost_above_the_pure_cost():
    report = _report()
    report["pure"]["cost"] = 14.0
    assert any("above the pure cost" in p for p in checks.check_mixture(report))


def test_mixture_rejects_risk_off_the_bound_when_the_multiplier_is_active():
    report = _report()
    report["risk_bound"] = 0.011
    assert any("!= bound" in p for p in checks.check_mixture(report))


def _corridor() -> dict:
    faces = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    return {
        "kind": "smpc",
        "a": [[1.0, 0.0], [0.0, 1.0]],
        "b": [[1.0, 0.0], [0.0, 1.0]],
        "sigma_w": [[0.01, 0.0], [0.0, 0.01]],
        "horizon": 3,
        "x_init": [0.0, 0.0],
        "x_goal": [3.0, 0.0],
        "u_lower": [-1.0, -1.0],
        "u_upper": [1.0, 1.0],
        "obstacles": [{"normals": faces, "offsets": [2.0, -1.0, 1.0, -0.2]}],
    }


def test_exact_tail_matches_a_hand_computed_value():
    config = _corridor()
    config["horizon"] = 1
    config["sigma_w"] = [[1.0, 0.0], [0.0, 1.0]]
    config["obstacles"] = [{"normals": [[1.0, 0.0]], "offsets": [-1.0]}]
    path = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert checks.exact_tail_union_bound(config, path) == pytest.approx(ndtr(-1.0), rel=1e-12)


def test_plan_accepts_the_exact_tail_and_rejects_a_risk_below_it():
    config = _corridor()
    controls = np.ones((3, 2)) * [1.0, 0.0]
    path = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    exact = checks.exact_tail_union_bound(config, path)
    assert exact > 1e-3
    assert checks.check_plan(config, controls, 3.0, exact) == []
    assert any("below the exact-tail" in p for p in checks.check_plan(config, controls, 3.0, 0.9 * exact))


def test_plan_rejects_a_missed_goal_a_wrong_cost_and_a_box_violation():
    config = _corridor()
    controls = np.ones((3, 2)) * [1.0, 0.0]
    assert checks.check_plan(config, controls * 0.9, 2.7, 1.0)
    assert checks.check_plan(config, controls, 3.1, 1.0)
    wide = controls.copy()
    wide[0, 0], wide[1, 0] = 1.5, 0.5
    assert any("control box" in p for p in checks.check_plan(config, wide, 3.0, 1.0))


def test_monte_carlo_rejects_a_count_far_from_the_exact_risk():
    good = {"n": 100_000, "failure_rate": 0.01}
    far = {"n": 100_000, "failure_rate": 0.013}
    assert checks.check_monte_carlo("grid", good, 0.01) == []
    assert checks.check_monte_carlo("grid", far, 0.01)
    assert checks.check_monte_carlo("grid", {"n": 100_000, "failure_rate": 0.007}, 0.01)
    # SMPC certifies an upper bound: a low rate is fine, a high one is not
    assert checks.check_monte_carlo("smpc", {"n": 100_000, "failure_rate": 0.005}, 0.01) == []
    assert checks.check_monte_carlo("smpc", far, 0.01)


def test_occupation_lp_matches_a_hand_solved_mdp():
    from mixedctrl.ccmdp import from_tables

    # one decision: safe costs 2 and never fails, risky costs 1 and fails
    # with probability 0.1; at V = 0.05 the optimum mixes them half and half
    mdp = from_tables(
        horizon=1,
        states=[["s"], ["ok", "crash"]],
        actions=[["safe", "risky"]],
        transitions={
            (0, "s", "safe"): {"ok": 1.0},
            (0, "s", "risky"): {"ok": 0.9, "crash": 0.1},
        },
        costs={(0, "s", "safe"): 2.0, (0, "s", "risky"): 1.0},
        failures=[[], ["crash"]],
        initial={"s": 1.0},
    )
    lp_cost = checks.occupation_lp_optimum(mdp, 0.05)
    assert lp_cost == pytest.approx(1.5, rel=1e-9)
    assert checks.check_lp_optimum(1.5, lp_cost) == []
    assert checks.check_lp_optimum(1.5 + 1e-3, lp_cost)


def test_check_solve_reads_plans_from_disk(tmp_path):
    config = _corridor()
    path = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    exact = checks.exact_tail_union_bound(config, path)
    for name in ("plan_0.csv", "plan_1.csv"):
        (tmp_path / name).write_text("u0,u1\n1.0,0.0\n1.0,0.0\n1.0,0.0\n", encoding="utf-8")
    report = _report()
    for entry in report["mixed"]["components"] + [report["pure"]]:
        entry["cost"], entry["risk"] = 3.0, exact
    report["mixed"]["aggregate"] = {"cost": 3.0, "risk": exact}
    report["risk_bound"] = exact
    report["monte_carlo"] = {"n": 100_000, "failure_rate": 0.0}
    assert checks.check_solve(config, report, tmp_path, None) == []
    bad = copy.deepcopy(report)
    bad["mixed"]["components"][1]["risk"] = 0.5 * exact
    bad["pure"]["risk"] = 0.5 * exact
    bad["mixed"]["aggregate"]["risk"] = 0.75 * exact
    bad["risk_bound"] = 0.75 * exact
    assert any("below the exact-tail" in p for p in checks.check_solve(config, bad, tmp_path, None))
