"""Dual solvers and mixture recovery.

The pure-policy problem is relaxed through one nonnegative multiplier on
its risk constraint; a backend oracle, which owns the risk bound, returns
the pointwise minimizer for any multiplier. The policy class is finite,
so the dual function is concave and piecewise linear, and chord steps
from the answers at zero and at the multiplier cap land on its optimal
breakpoint exactly; the risky and the safe candidate there are mixed so
the aggregate meets the bound without rounding above it. The search
returns that mixture beside its own record, the (multiplier, cost) pairs
it asked; the mixture derives the optimal multiplier from its two
components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    CostVector,
    InfeasibleProblemError,
    InvalidInputError,
    LagrangianOracle,
    MixedSolution,
    NonMonotoneOracleError,
    PureCandidate,
    SolverLimitError,
    lagrangian_value,
    mix_costs,
)


# The search's one probe above zero. Its answer minimizes c0 + LAMBDA_MAX *
# (c1 - V), so a policy within the bound V costs at least that minimum.
LAMBDA_MAX = 1e9
# Rounding slack when checking that risk never rises with the multiplier.
MONOTONE_TOL = 1e-9
# An answer whose Lagrangian undercuts the chord endpoints' by no more than
# this fraction of their costs ties them; anything below is a new vertex.
TIE_RTOL = 1e-12
# A finite, exact policy class ties within a few dozen queries; reaching
# this many means the oracle is neither.
MAX_QUERIES = 200
# Largest residual at which `check_optimality` passes a condition.
CERTIFICATE_TOL = 1e-6


def recover_mixture_scalar(
    lower: PureCandidate, upper: PureCandidate, v: float
) -> MixedSolution:
    """Mix the two bracket endpoints so the aggregate risk equals the bound V.

    The risky weight p = (V - c_hi) / (c_lo - c_hi) can round so that the
    computed aggregate risk lands an ulp above V; p is then stepped toward
    the safe endpoint, by one ulp of p and then by doubling steps, until it
    does not. The steps double because one ulp of a small p can move the
    risk by far less than one ulp of V; they end by p = 0 at the latest,
    where the risk is c_hi <= V. The mixture derives its multiplier, the
    chord slope at which both endpoints are Lagrangian-minimal, and its
    saving over the safe endpoint (the best feasible pure candidate the
    search saw); a slope that overflows raises InvalidInputError.
    """
    c_lo, c_hi = lower.cost.c1, upper.cost.c1
    if not (c_lo >= v >= c_hi):
        raise InvalidInputError(
            f"endpoint risks {c_lo}, {c_hi} do not straddle the bound {v}"
        )
    p = 1.0 if c_lo == c_hi else (v - c_hi) / (c_lo - c_hi)
    step = math.ulp(p)
    while mix_costs([(lower.cost, p), (upper.cost, 1.0 - p)]).c1 > v:
        p = max(0.0, p - step)
        step *= 2.0
    return MixedSolution(((lower, p), (upper, 1.0 - p)))


def bracket_mixture(candidates: Sequence[PureCandidate], v: float) -> MixedSolution:
    """The mixture that `solve_mixed_scalar` returns for its bracket: one
    candidate alone at lam = 0, or the risky and the safe endpoint, in
    that order, mixed by `recover_mixture_scalar`."""
    if len(candidates) == 1:
        return MixedSolution(((candidates[0], 1.0),))
    if len(candidates) != 2:
        raise InvalidInputError(f"{len(candidates)} components, expected 1 or 2")
    return recover_mixture_scalar(*candidates, v)


def solve_mixed_scalar(
    oracle: LagrangianOracle,
) -> tuple[list[tuple[float, CostVector]], MixedSolution]:
    """Single-constraint pipeline: exact dual search, then two-point recovery.

    An answer at lam = 0 that meets the bound is returned pure. Otherwise
    one probe at LAMBDA_MAX, the safest policy, closes the bracket and
    chord steps follow (Kelley's cutting plane in one dimension): each
    query is the chord slope between the bracketing candidates, unless
    their costs tie within TIE_RTOL: mixing then saves nothing, and the
    safe one is returned pure at lam = 0. An answer below the chord is a
    new vertex of the lower hull of the (c1, c0) points and replaces the
    endpoint on its side of V, so a probe answer off that hull is replaced
    in turn; an answer on the chord certifies its slope as the optimal
    multiplier. Raises NonMonotoneOracleError when the risk rises with
    lam, then InfeasibleProblemError when it is above V at LAMBDA_MAX, and
    SolverLimitError after MAX_QUERIES queries. V is the oracle's
    ``risk_bound``.

    Returns the search's record, the ``(lam, cost)`` pairs of its answers
    in the order it asked them, and the mixture of the final bracket. It
    holds only its bracket ends' policies, so one it moved past is freed.
    """
    v = oracle.risk_bound
    queries: list[tuple[float, CostVector]] = []

    def ask(lam: float) -> PureCandidate:
        if len(queries) >= MAX_QUERIES:
            raise SolverLimitError(
                f"dual search made {MAX_QUERIES} oracle queries without a tie; "
                "the oracle is not an exact minimizer over a finite policy class"
            )
        cand = oracle.query(lam)
        queries.append((lam, cand.cost))
        return cand

    lam_lo, cand_lo = 0.0, ask(0.0)
    if cand_lo.cost.c1 <= v:
        # a least-cost policy within the bound, alone at lam = 0
        return queries, bracket_mixture((cand_lo,), v)

    lam_hi, cand_hi = LAMBDA_MAX, ask(LAMBDA_MAX)
    lo, hi = cand_lo.cost, cand_hi.cost
    if hi.c1 > lo.c1 + MONOTONE_TOL:
        raise NonMonotoneOracleError(
            f"risk rose from {lo.c1} at multiplier 0 to {hi.c1} at {lam_hi}"
        )
    if hi.c1 > v:
        raise InfeasibleProblemError(
            f"risk {hi.c1} still above the bound {v} at the multiplier cap {lam_hi}; "
            f"every policy within the bound costs at least {lagrangian_value(hi, lam_hi, v):.6g}"
        )

    while True:
        lo, hi = cand_lo.cost, cand_hi.cost
        tie = TIE_RTOL * (abs(lo.c0) + abs(hi.c0))
        if abs(hi.c0 - lo.c0) <= tie:
            return queries, bracket_mixture((cand_hi,), v)
        lam = min(max((hi.c0 - lo.c0) / (lo.c1 - hi.c1), lam_lo), lam_hi)
        cand = ask(lam)
        cost = cand.cost
        if cost.c1 > lo.c1 + MONOTONE_TOL or cost.c1 < hi.c1 - MONOTONE_TOL:
            raise NonMonotoneOracleError(
                f"risk at multiplier {lam} ({cost.c1}) leaves the bracket "
                f"[{hi.c1}, {lo.c1}]"
            )
        if cost == lo or cost == hi:
            break
        chord = min(lagrangian_value(lo, lam, v), lagrangian_value(hi, lam, v))
        if lagrangian_value(cost, lam, v) >= chord - tie:
            break
        if cost.c1 > v:
            lam_lo, cand_lo = lam, cand
        else:
            lam_hi, cand_hi = lam, cand

    return queries, bracket_mixture((cand_lo, cand_hi), v)


@dataclass(frozen=True)
class OptimalityReport:
    """Pass/fail flags and residuals for the six mixture optimality conditions.

    a) every component with positive weight attains the oracle's Lagrangian
       minimum at the solution's multiplier;
    b) complementary slackness of the aggregate;
    c) weights sum to one;
    d) weights are nonnegative;
    e) the aggregate respects the risk bound;
    f) component costs match a backend re-evaluation of their policies.

    ``q_star`` is the dual value that a) compares against: the oracle's
    Lagrangian minimum at the solution's multiplier.
    """

    residuals: dict[str, float]
    q_star: float

    @property
    def conditions(self) -> dict[str, bool]:
        return {name: r <= CERTIFICATE_TOL for name, r in self.residuals.items()}

    @property
    def overall(self) -> bool:
        return all(self.conditions.values())


def check_optimality(
    solution: MixedSolution,
    oracle: LagrangianOracle,
    reference: CostVector | None = None,
    reevaluate: bool = True,
) -> OptimalityReport:
    """Check a) to f) against the oracle's ``risk_bound``; ``reference``
    is the cost of the oracle's answer at lam, if known. ``reevaluate=False``
    skips the backend re-evaluation behind f, for a caller whose component
    costs already are one; f is then 0 by construction."""
    lam, v = solution.dual, oracle.risk_bound
    if reference is None:
        reference = oracle.query(lam).cost
    l_min = lagrangian_value(reference, lam, v)

    res_a = 0.0
    for cand, p in solution.components:
        if p > CERTIFICATE_TOL:
            res_a = max(res_a, lagrangian_value(cand.cost, lam, v) - l_min)

    agg = solution.aggregate
    res_b = abs(lam * (agg.c1 - v))
    res_c = abs(math.fsum(solution.probabilities) - 1.0)
    res_d = max(0.0, -min(solution.probabilities))
    res_e = max(0.0, agg.c1 - v)

    res_f = 0.0
    if reevaluate:
        for cand, _ in solution.components:
            fresh = oracle.evaluate(cand.policy)
            res_f = max(res_f, abs(fresh.c0 - cand.cost.c0), abs(fresh.c1 - cand.cost.c1))

    residuals = {"a": res_a, "b": res_b, "c": res_c, "d": res_d, "e": res_e, "f": res_f}
    return OptimalityReport(residuals, l_min)
