from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from _oracles import brute_mixed_lp, brute_pure_best, brute_scalar_dual
from mixedctrl.cli import build_setup, load_config
from mixedctrl.core import (
    Bounds,
    CostVector,
    DualVector,
    InfeasibleProblemError,
    InvalidInputError,
    MixedSolution,
    NonMonotoneOracleError,
    PureCandidate,
    mix_costs,
)
from mixedctrl.dual import check_optimality, recover_mixture_scalar, solve_mixed_scalar
from mixedctrl.scenarios import FiniteSetOracle

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _toy():
    """The finite-set oracle of the shipped ``configs/toy.json``."""
    return build_setup(load_config(CONFIGS / "toy.json"), CONFIGS)


class _Tracing:
    """Wrap an oracle and record every query for invariant checks."""

    def __init__(self, inner):
        self.inner = inner
        self.trace = []

    def query(self, lam):
        cand = self.inner.query(lam)
        self.trace.append((lam.values[0], cand.cost.c1))
        return cand

    def evaluate(self, policy):
        return self.inner.evaluate(policy)


def _finite(points, v):
    costs = tuple(CostVector(c0, (c1,)) for c0, c1 in points)
    return FiniteSetOracle(costs, Bounds((v,)))


def test_toy_pipeline_exact():
    oracle = _toy()
    result, solution = solve_mixed_scalar(oracle, oracle.bounds)
    # the chord slope between (10, 0.015) and (20, 0.005)
    assert result.lambda_star == pytest.approx(1000.0, rel=1e-12)
    assert result.lambda_star == solution.dual.values[0]
    assert solution.probabilities == pytest.approx((0.5, 0.5), abs=1e-9)
    assert solution.aggregate.c0 == pytest.approx(15.0, abs=1e-9)
    assert solution.aggregate.c1 == pytest.approx(0.01, abs=1e-9)
    assert solution.dual.values[0] == pytest.approx(1000.0, abs=1e-9)
    assert solution.gap_estimate == pytest.approx(5.0, abs=1e-9)


def test_three_point_kink():
    oracle = _finite([(3.0, 0.04), (6.0, 0.02), (12.0, 0.0)], 0.01)
    result, solution = solve_mixed_scalar(oracle, oracle.bounds)
    q_ref, lam_ref = brute_scalar_dual(oracle.costs, 0.01)
    assert lam_ref == pytest.approx(300.0, abs=1e-9)
    assert q_ref == pytest.approx(9.0, abs=1e-12)
    assert result.lambda_star == pytest.approx(300.0, rel=1e-12)
    assert result.q_star == pytest.approx(9.0, rel=1e-12)
    # mixture spans the middle and safe candidates
    assert solution.probabilities == pytest.approx((0.5, 0.5), abs=1e-9)
    assert solution.aggregate.c0 == pytest.approx(9.0, abs=1e-9)
    assert solution.aggregate.c1 == pytest.approx(0.01, abs=1e-12)


def test_inactive_bound_returns_pure():
    oracle = _finite([(5.0, 0.002), (4.0, 0.009)], 0.01)
    result, solution = solve_mixed_scalar(oracle, oracle.bounds)
    assert result.lambda_star == 0.0
    assert result.iterations == 1
    assert len(solution.components) == 1
    assert solution.components[0][1] == 1.0
    assert solution.aggregate.c0 == pytest.approx(4.0)
    assert solution.gap_estimate == 0.0


def test_infeasible_bound_raises():
    oracle = _finite([(5.0, 0.05), (9.0, 0.02)], 0.001)
    with pytest.raises(InfeasibleProblemError):
        solve_mixed_scalar(oracle, oracle.bounds)


def test_non_monotone_oracle_detected():
    class Lying:
        def query(self, lam):
            lam0 = lam.values[0]
            risk = 0.05 if lam0 == 0.0 else 0.05 + lam0
            return PureCandidate(None, CostVector(1.0, (risk,)))

    with pytest.raises(NonMonotoneOracleError):
        solve_mixed_scalar(Lying(), Bounds((0.01,)))


def test_riskier_probe_above_the_bound_is_non_monotone_not_infeasible():
    class RiskierWithTheMultiplier:
        def query(self, lam):
            risk = 0.05 if lam.values[0] == 0.0 else 0.06
            return PureCandidate(None, CostVector(1.0, (risk,)))

    # the probe's risk is above V too, but the rise is reported first
    with pytest.raises(NonMonotoneOracleError):
        solve_mixed_scalar(RiskierWithTheMultiplier(), Bounds((0.01,)))


@pytest.mark.parametrize("risk", [0.005, 0.05])
def test_answers_with_two_risks_are_rejected_against_one_bound(risk):
    # each answer's K is checked as it arrives; at risk 0.05 the search
    # would otherwise report the problem infeasible after its probe
    oracle = FiniteSetOracle([CostVector(1.0, (risk, 0.0))], Bounds((0.01, 0.01)))
    with pytest.raises(InvalidInputError, match="K=2"):
        solve_mixed_scalar(oracle, Bounds((0.01,)))


def test_bisection_bracket_invariant():
    traced = _Tracing(_finite([(3.0, 0.04), (6.0, 0.02), (12.0, 0.0)], 0.01))
    solve_mixed_scalar(traced, traced.inner.bounds)
    by_lambda = sorted(traced.trace)
    risks = [r for _, r in by_lambda]
    assert all(a >= b - 1e-12 for a, b in zip(risks, risks[1:]))


def test_recover_scalar_planner_replay():
    lower = PureCandidate("risky", CostVector(98.7, (0.0228,)))
    upper = PureCandidate("safe", CostVector(130.8, (0.0064,)))
    solution = recover_mixture_scalar(lower, upper, Bounds((0.02,)))
    assert solution.probabilities[0] == pytest.approx(0.83, abs=5e-3)
    assert solution.probabilities[1] == pytest.approx(0.17, abs=5e-3)
    assert solution.aggregate.c0 == pytest.approx(104.2, abs=0.2)
    assert solution.aggregate.c1 == pytest.approx(0.02, abs=1e-12)


def test_recover_scalar_rejects_bad_ordering():
    lower = PureCandidate(0, CostVector(1.0, (0.001,)))
    upper = PureCandidate(1, CostVector(2.0, (0.002,)))
    with pytest.raises(InvalidInputError):
        recover_mixture_scalar(lower, upper, Bounds((0.01,)))


def test_recover_scalar_degenerate_equal_risks():
    lower = PureCandidate(0, CostVector(1.0, (0.01,)))
    upper = PureCandidate(1, CostVector(2.0, (0.01,)))
    solution = recover_mixture_scalar(lower, upper, Bounds((0.01,)))
    assert solution.probabilities == (1.0, 0.0)
    assert solution.aggregate.c0 == pytest.approx(1.0)


def test_check_optimality_accepts_solver_output():
    oracle = _toy()
    _, solution = solve_mixed_scalar(oracle, oracle.bounds)
    report = check_optimality(solution, oracle.bounds, oracle, tol=1e-6)
    assert report.overall
    assert all(report.conditions.values())


def test_check_optimality_flags_perturbed_weights():
    oracle = _toy()
    a = PureCandidate(0, oracle.costs[0])
    b = PureCandidate(1, oracle.costs[1])
    agg = mix_costs([(a.cost, 0.6), (b.cost, 0.4)])
    perturbed = MixedSolution(((a, 0.6), (b, 0.4)), agg, DualVector((1000.0,)), 0.0)
    report = check_optimality(perturbed, oracle.bounds, oracle, tol=1e-6)
    assert report.conditions["e"]  # aggregate risk 0.009 still below the bound
    assert not report.conditions["b"]  # slackness broken: 1000 * (0.009 - 0.01)
    assert report.residuals["b"] == pytest.approx(1.0, abs=1e-9)
    assert not report.overall


def test_check_optimality_pure_inactive():
    oracle = _finite([(5.0, 0.002)], 0.01)
    _, solution = solve_mixed_scalar(oracle, oracle.bounds)
    report = check_optimality(solution, oracle.bounds, oracle)
    assert report.overall


def test_weak_duality_random_sets():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        costs = tuple(
            CostVector(float(rng.uniform(0, 30)), (float(rng.uniform(0, 0.3)),))
            for _ in range(n)
        )
        risks = sorted(c.c1 for c in costs)
        v = float(rng.uniform(risks[0] + 1e-6, max(risks[-1], risks[0] + 2e-6)))
        pure = brute_pure_best(costs, v)
        if pure is None:
            continue
        for lam in rng.uniform(0, 500, size=10):
            q = min(c.c0 + lam * (c.c1 - v) for c in costs)
            assert q <= pure + 1e-9


def test_mixed_equals_dual_on_random_sets():
    rng = np.random.default_rng(5150)
    for trial in range(25):
        n = int(rng.integers(2, 9))
        costs = tuple(
            CostVector(float(rng.uniform(0, 30)), (float(rng.uniform(0, 0.3)),))
            for _ in range(n)
        )
        risks = sorted(c.c1 for c in costs)
        v = float(rng.uniform(risks[0] + 1e-4, risks[0] + 0.3))
        oracle = FiniteSetOracle(costs, Bounds((v,)))
        _, solution = solve_mixed_scalar(oracle, oracle.bounds)
        q_ref, _ = brute_scalar_dual(costs, v)
        lp_ref = brute_mixed_lp(costs, v)
        assert solution.aggregate.c0 == pytest.approx(q_ref, abs=1e-6), f"trial {trial}"
        assert solution.aggregate.c0 == pytest.approx(lp_ref, abs=1e-6), f"trial {trial}"
        assert len(solution.components) <= 2
