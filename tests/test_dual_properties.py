"""Property tests of the K=1 dual search against exact references.

Finite candidate sets are drawn on small integer grids so that ties at
the bound, duplicate cost vectors, equal risks and bounds on a vertex
come up often; a cost offset of 1e6 checks that the tie test scales with
the costs. The references in ``_oracles`` share no code with the solver.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _oracles import brute_mixed_lp, brute_scalar_dual
from mixedctrl.core import (
    Bounds,
    CostVector,
    DualVector,
    InfeasibleProblemError,
    InvalidInputError,
    PureCandidate,
    SolverLimitError,
)
from mixedctrl.dual import (
    LAMBDA_MAX,
    MAX_QUERIES,
    check_optimality,
    recover_mixture_scalar,
    solve_mixed_scalar,
)
from mixedctrl.scenarios import FiniteSetOracle
from mixedctrl.smpc import Obstacle, SmpcModel, SmpcOracle, build_pwl_cdf

# (cost offset, cost step): unit costs, and costs around 1e6 with coarse
# and fine differences
_SCALES = ((0.0, 1.0), (1e6, 1.0), (1e6, 1e-3))


@st.composite
def finite_sets(draw):
    offset, step = draw(st.sampled_from(_SCALES))
    grid = draw(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 8)), min_size=1, max_size=8)
    )
    costs = [CostVector(offset + i * step, (j / 100,)) for i, j in grid]
    # on a vertex risk, or between grid risks
    v = draw(st.sampled_from([c.c1 for c in costs])) + draw(st.sampled_from((0.0, 0.0037)))
    return costs, v


@settings(max_examples=300, deadline=None)
@given(finite_sets())
def test_mixture_matches_exact_references(case):
    costs, v = case
    bounds = Bounds((v,))
    oracle = FiniteSetOracle(costs, bounds)
    result, solution = solve_mixed_scalar(oracle, bounds)

    q_ref, _ = brute_scalar_dual(costs, v)
    mixed_ref = brute_mixed_lp(costs, v)
    tol = 1e-9 * max(1.0, abs(q_ref))
    assert solution.aggregate.c0 == pytest.approx(q_ref, abs=tol)
    assert solution.aggregate.c0 == pytest.approx(mixed_ref, abs=tol)
    assert solution.aggregate.c1 <= v
    assert len(solution.components) <= 2
    # the reported multiplier is the certificate's, and it is dual optimal
    assert result.lambda_star == solution.dual.values[0]
    lam = result.lambda_star
    assert min(c.c0 + lam * (c.c1 - v) for c in costs) == pytest.approx(q_ref, abs=tol)
    assert result.q_star == pytest.approx(q_ref, abs=tol)
    assert check_optimality(solution, bounds, oracle, tol=tol).overall


_unit = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=1000, deadline=None)
@given(_unit, _unit, _unit, st.floats(0.0, 1e6), st.floats(0.0, 1e6))
# p = (V - c_hi) / (c_lo - c_hi) lands the risk one ulp above V
@example(0.916963832133691, 0.6412204768160114, 0.375, 0.0, 0.0)
# a small p, whose ulp moves the risk far less than V's ulp does
@example(1.0, 0.2391455407084258, 1.192092896e-07, 0.0, 0.0)
# a risk gap of the smallest normal float: the multiplier 4 / gap
# overflows, while 1 / gap does not
@example(2.2250738585072014e-308, 0.0, 0.0, 0.0, 4.0)
@example(2.2250738585072014e-308, 0.0, 0.5, 0.0, 1.0)
def test_recovered_risk_never_rounds_above_the_bound(a, b, t, cost_a, cost_b):
    c_hi, c_lo = sorted((a, b))
    v = min(max(c_hi + t * (c_lo - c_hi), c_hi), c_lo)
    lower = PureCandidate("risky", CostVector(min(cost_a, cost_b), (c_lo,)))
    upper = PureCandidate("safe", CostVector(max(cost_a, cost_b), (c_hi,)))
    # the multiplier, the float cost difference over the risk difference,
    # rounds to infinity when its exact value reaches halfway past the
    # largest float
    if c_lo > c_hi:
        exact_slope = Fraction(abs(cost_a - cost_b)) / (Fraction(c_lo) - Fraction(c_hi))
        if exact_slope >= 2**1024 - 2**970:
            with pytest.raises(InvalidInputError, match="gives no finite multiplier"):
                recover_mixture_scalar(lower, upper, Bounds((v,)))
            return
    solution = recover_mixture_scalar(lower, upper, Bounds((v,)))
    assert solution.aggregate.c1 <= v
    # the weight moves off the exact mixing weight only by rounding steps
    if c_lo > c_hi:
        exact = (Fraction(v) - Fraction(c_hi)) / (Fraction(c_lo) - Fraction(c_hi))
        assert abs(Fraction(solution.probabilities[0]) - exact) <= 1e-9
        assert v - solution.aggregate.c1 <= 4 * math.ulp(c_lo)


class _CostlyProbe:
    """Exact over a finite set except at LAMBDA_MAX, where it answers the
    last policy of the set whatever its cost, as a backend's answer at a
    huge multiplier can be when the risk term swamps the cost."""

    def __init__(self, costs, bounds):
        self.exact = FiniteSetOracle(costs, bounds)
        self.probe = len(costs) - 1

    def query(self, lam):
        if lam.values[0] == LAMBDA_MAX:
            return PureCandidate(self.probe, self.exact.costs[self.probe])
        return self.exact.query(lam)

    def evaluate(self, policy):
        return self.exact.evaluate(policy)


@settings(max_examples=300, deadline=None)
@given(finite_sets(), st.integers(1, 5))
def test_probe_answer_off_the_hull_is_replaced(case, extra):
    costs, v = case
    least = min(c.c1 for c in costs)
    # a costlier twin of the safest policy, the probe's answer: of least
    # risk, but off the lower hull
    costs = costs + [CostVector(max(c.c0 for c in costs) + extra / 1000, (least,))]
    bounds = Bounds((v,))
    oracle = _CostlyProbe(costs, bounds)
    result, solution = solve_mixed_scalar(oracle, bounds)

    q_ref, _ = brute_scalar_dual(costs, v)
    tol = 1e-9 * max(1.0, abs(q_ref))
    assert solution.aggregate.c0 == pytest.approx(q_ref, abs=tol)
    assert solution.aggregate.c0 == pytest.approx(brute_mixed_lp(costs, v), abs=tol)
    assert solution.aggregate.c1 <= v
    assert oracle.probe not in [cand.policy for cand, _ in solution.components]
    assert result.q_star == pytest.approx(q_ref, abs=tol)
    assert check_optimality(solution, bounds, oracle, tol=tol).overall


@settings(max_examples=100, deadline=None)
@given(finite_sets(), st.integers(1, 5))
def test_bound_below_every_risk_is_infeasible(case, below):
    costs, _ = case
    v = min(c.c1 for c in costs) - below / 1000
    bounds = Bounds((v,))
    with pytest.raises(InfeasibleProblemError):
        solve_mixed_scalar(FiniteSetOracle(costs, bounds), bounds)


class _NeverTies:
    """Risk falls with the multiplier, but each answer costs ten times less
    than the one before, so its Lagrangian undercuts every earlier answer
    and no query at a chord slope ever ties the endpoints."""

    def __init__(self):
        self.queries = 0

    def query(self, lam):
        self.queries += 1
        risk = 1.0 / (1.0 + lam.values[0])
        return PureCandidate(None, CostVector(-(10.0**self.queries), (risk,)))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.01, 0.5))
def test_oracle_that_never_ties_hits_the_query_cap(v):
    oracle = _NeverTies()
    with pytest.raises(SolverLimitError):
        solve_mixed_scalar(oracle, Bounds((v,)))
    assert oracle.queries == MAX_QUERIES


def _line_oracle() -> SmpcOracle:
    model = SmpcModel(
        a_mat=[[1.0]],
        b_mat=[[1.0]],
        sigma_w=[[0.0004]],
        horizon=3,
        x_init=[0.0],
        x_goal=[2.0],
        u_lower=[-1.5],
        u_upper=[1.5],
        obstacles=(Obstacle([[1.0]], [1.2]),),
    )
    return SmpcOracle(model, Bounds((0.01,)), build_pwl_cdf(8))


_multipliers = st.floats(0.0, 200.0, allow_nan=False)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_multipliers, max_size=4), _multipliers)
def test_smpc_answer_depends_on_the_multiplier_alone(history, lam):
    warmed = _line_oracle()
    for earlier in history:
        warmed.query(DualVector((earlier,)))
    warm = warmed.query(DualVector((lam,)))
    fresh = _line_oracle().query(DualVector((lam,)))
    assert warm.policy.controls.tobytes() == fresh.policy.controls.tobytes()
    assert warm.cost == fresh.cost
