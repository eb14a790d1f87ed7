from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from mixedctrl.core import (
    CostVector,
    InvalidInputError,
    LagrangianOracle,
    MixedSolution,
    PureCandidate,
    binomial_acceptance,
    lagrangian_value,
    mix_costs,
)


def test_mix_costs_even_two_point():
    mixed = mix_costs(
        [(CostVector(20.0, 0.005), 0.5), (CostVector(10.0, 0.015), 0.5)]
    )
    assert mixed.c0 == pytest.approx(15.0, abs=1e-12)
    assert mixed.c1 == pytest.approx(0.01, abs=1e-12)


def test_mix_costs_identity():
    c = CostVector(3.5, 0.2)
    assert mix_costs([(c, 1.0)]) == c


def test_mix_costs_landing_weights():
    mixed = mix_costs(
        [
            (CostVector(645.49, 0.00016), 0.849),
            (CostVector(641.02, 0.00574), 0.151),
        ]
    )
    assert mixed.c0 == pytest.approx(644.81503, abs=1e-8)
    assert mixed.c1 == pytest.approx(0.00100258, abs=1e-10)
    # coarse targets the fine values round to
    assert mixed.c0 == pytest.approx(644.81, abs=1e-2)
    assert mixed.c1 == pytest.approx(0.001, abs=1e-4)


def test_mix_costs_rejects_bad_weights():
    c = CostVector(1.0, 0.5)
    with pytest.raises(InvalidInputError):
        mix_costs([(c, 0.7), (c, 0.7)])
    with pytest.raises(InvalidInputError):
        mix_costs([(c, -0.2), (c, 1.2)])


def test_mix_costs_weight_tolerance():
    c = CostVector(1.0, 0.5)
    mixed = mix_costs([(c, 0.5), (c, 0.5 + 5e-10)])
    assert mixed.c0 == pytest.approx(1.0, abs=1e-9)


def test_lagrangian_value_frozen():
    val = lagrangian_value(CostVector(20.0, 0.005), 1000.0, 0.01)
    assert val == pytest.approx(15.0, abs=1e-12)


def test_lagrangian_mix_linearity():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        costs = [CostVector(float(rng.uniform(0, 50)), rng.uniform(0, 1)) for _ in range(n)]
        w = rng.uniform(0.1, 1.0, size=n)
        w /= w.sum()
        lam = rng.uniform(0, 20)
        v = rng.uniform(0, 1)
        mixed = mix_costs(list(zip(costs, w)))
        direct = lagrangian_value(mixed, lam, v)
        weighted = sum(
            wi * lagrangian_value(c, lam, v) for c, wi in zip(costs, w)
        )
        assert direct == pytest.approx(weighted, abs=1e-10, rel=1e-12)


def test_cost_vector_needs_finite_entries():
    with pytest.raises(InvalidInputError):
        CostVector(float("nan"), 0.5)
    with pytest.raises(InvalidInputError):
        CostVector(1.0, float("inf"))
    # numpy scalars become floats, so a trace row prints 0.5, not np.float64(0.5)
    cost = CostVector(np.float64(1.0), np.float64(0.5))
    assert type(cost.c0) is float and type(cost.c1) is float


def test_mixed_solution_derives_the_chord_slope_and_the_gap():
    risky = PureCandidate(0, CostVector(10.0, 0.015))
    safe = PureCandidate(1, CostVector(20.0, 0.005))
    solution = MixedSolution(((risky, 0.5), (safe, 0.5)))
    assert solution.aggregate == mix_costs([(risky.cost, 0.5), (safe.cost, 0.5)])
    assert solution.aggregate.c0 == pytest.approx(15.0, abs=1e-12)
    # (20 - 10) / (0.015 - 0.005): both endpoints are Lagrangian-minimal there
    assert solution.dual == pytest.approx(1000.0, rel=1e-12)
    assert lagrangian_value(risky.cost, solution.dual, 0.01) == pytest.approx(
        lagrangian_value(safe.cost, solution.dual, 0.01), abs=1e-9
    )
    # the saving over the safe component
    assert solution.gap_estimate == pytest.approx(5.0, abs=1e-12)


def test_mixed_solution_floors_the_multiplier_and_the_gap_at_zero():
    # a risky component that also costs more: the slope is negative
    costly = PureCandidate(0, CostVector(30.0, 0.015))
    safe = PureCandidate(1, CostVector(20.0, 0.005))
    solution = MixedSolution(((costly, 0.5), (safe, 0.5)))
    assert solution.dual == 0.0
    assert solution.gap_estimate == 0.0


def test_mixed_solution_with_equal_risks_has_multiplier_zero():
    a = PureCandidate(0, CostVector(1.0, 0.01))
    b = PureCandidate(1, CostVector(2.0, 0.01))
    solution = MixedSolution(((a, 1.0), (b, 0.0)))
    assert solution.dual == 0.0
    assert solution.aggregate == CostVector(1.0, 0.01)
    assert solution.gap_estimate == 1.0


def test_mixed_solution_of_one_component_is_that_component():
    a = PureCandidate(0, CostVector(3.5, 0.2))
    solution = MixedSolution(((a, 1.0),))
    assert solution.aggregate == a.cost
    assert solution.dual == 0.0
    assert solution.gap_estimate == 0.0
    assert solution.probabilities == (1.0,)


def test_mixed_solution_rejects_a_slope_that_overflows():
    # (1e300 - 1) / 1e-300 is past the largest float
    risky = PureCandidate(0, CostVector(1.0, 1e-300))
    safe = PureCandidate(1, CostVector(1e300, 0.0))
    with pytest.raises(InvalidInputError, match="gives no finite multiplier"):
        MixedSolution(((risky, 0.0), (safe, 1.0)))


def test_mixed_solution_rejects_bad_weights_and_supports():
    a = PureCandidate(0, CostVector(20.0, 0.005))
    b = PureCandidate(1, CostVector(10.0, 0.015))
    with pytest.raises(InvalidInputError, match="negative mixing weight"):
        MixedSolution(((a, -0.2), (b, 1.2)))
    with pytest.raises(InvalidInputError, match="sum to"):
        MixedSolution(((a, 0.5), (b, 0.6)))
    with pytest.raises(InvalidInputError, match="at most 2"):
        MixedSolution(((a, 0.4), (b, 0.4), (a, 0.2)))
    with pytest.raises(InvalidInputError, match="at least one"):
        MixedSolution(())


def test_binomial_acceptance_tails_are_exact():
    for n, rate, alarm in ((1, 0.5, 0.1), (40, 0.1, 1e-3), (200, 0.02, 1e-6), (30, 0.0, 1e-6)):
        p = Fraction(rate)
        pmf = [comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
        half = Fraction(alarm) / 2
        lo, hi = binomial_acceptance(rate, n, alarm)
        # each rejected tail holds at most half the alarm rate, and the
        # range is as narrow as that allows
        assert sum(pmf[:lo]) <= half < sum(pmf[: lo + 1])
        assert sum(pmf[hi + 1 :]) <= half < sum(pmf[hi:])
    with pytest.raises(InvalidInputError):
        binomial_acceptance(1.5, 10, 1e-6)


def test_binomial_acceptance_holds_past_a_c_int_of_draws():
    # n past a C int: the tails must not depend on a function that takes
    # n as one
    below = binomial_acceptance(0.01, 2**31 - 1, 1e-6)
    above = binomial_acceptance(0.01, 2**31, 1e-6)
    assert below == (21452286, 21497395)
    assert abs(above[0] - below[0]) <= 1 and abs(above[1] - below[1]) <= 1
    n = 2**63 - 1
    lo, hi = binomial_acceptance(0.01, n, 1e-6)
    assert lo < 0.01 * n < hi and hi - lo < 1e-7 * n


def test_oracle_without_evaluate_cannot_be_instantiated():
    # certificate condition f re-evaluates every component, so no oracle may skip it
    class QueryOnly(LagrangianOracle):
        def query(self, lam):
            return PureCandidate(0, CostVector(1.0, 0.0))

    with pytest.raises(TypeError, match="evaluate"):
        QueryOnly()
