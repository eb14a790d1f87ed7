"""Linear programs on HiGHS's dual revised simplex (Huangfu & Hall 2018).

`solve_lp` hands an `LpProblem` to ``scipy.optimize.linprog`` with
``method="highs-ds"``, the copy of HiGHS (https://highs.dev) that ships
with scipy, and gets back a basic solution. `HIGHS_TOLERANCES`, shared
with `milp.solve_milp`, tightens HiGHS's default feasibility tolerance of
1e-7, at which a risk term of the SMPC inner program can undercut its
chord rows enough to make the risk rise with the multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import InvalidInputError, MixedControlError

HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
# scipy folds HiGHS's model statuses into five codes: 0 optimal, 1 time or
# iteration limit, 2 infeasible, 3 unbounded, 4 anything else (a numerical
# failure, "infeasible or unbounded", and for a MILP the node limit)
SCIPY_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}

LE, EQ, GE = "<=", "=", ">="


@dataclass(eq=False)
class LpProblem:
    """min (or max) objective . x subject to lhs x (senses) rhs, lower <= x <= upper."""

    objective: np.ndarray
    lhs: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    sense: str = "min"

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.lhs = np.atleast_2d(np.asarray(self.lhs, dtype=float))
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.senses = tuple(self.senses)
        n = self.objective.shape[0]
        m = self.lhs.shape[0] if self.lhs.size else len(self.senses)
        if self.lhs.size == 0:
            self.lhs = np.zeros((m, n))
        if self.lhs.shape != (m, n) or self.rhs.shape != (m,) or len(self.senses) != m:
            raise InvalidInputError("inconsistent LP dimensions")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise InvalidInputError("bound arrays must have one entry per variable")
        if any(s not in (LE, EQ, GE) for s in self.senses):
            raise InvalidInputError(f"unknown row sense in {self.senses}")
        if self.sense not in ("min", "max"):
            raise InvalidInputError(f"objective sense must be min or max, got {self.sense}")
        if not np.all(np.isfinite(self.objective)) or not np.all(np.isfinite(self.lhs)):
            raise InvalidInputError("objective and constraint coefficients must be finite")
        if not np.all(np.isfinite(self.rhs)):
            raise InvalidInputError("right-hand sides must be finite")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise InvalidInputError("bounds may be infinite but not NaN")
        if np.any(self.lower > self.upper):
            raise InvalidInputError("lower bound exceeds upper bound")

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_rows(self) -> int:
        return self.lhs.shape[0]


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective: float | None = None
    pivots: int = field(default=0, repr=False)  # HiGHS simplex iterations


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve an LP; any outcome but the three statuses raises MixedControlError."""
    from scipy.optimize import linprog  # imported here: MDP runs never solve an LP
    sign = 1.0 if problem.sense == "min" else -1.0
    senses = np.array(problem.senses)
    flip = np.where(senses == GE, -1.0, 1.0)
    ub = senses != EQ
    res = linprog(
        sign * problem.objective,
        A_ub=(problem.lhs * flip[:, None])[ub],
        b_ub=(problem.rhs * flip)[ub],
        A_eq=problem.lhs[~ub],
        b_eq=problem.rhs[~ub],
        bounds=np.column_stack([problem.lower, problem.upper]),
        method="highs-ds",
        options=HIGHS_TOLERANCES,
    )
    status = SCIPY_STATUS.get(res.status)
    if status is None:
        raise MixedControlError(f"HiGHS stopped without an answer: {res.message}")
    if status != "optimal":
        return LpSolution(status, pivots=res.nit)
    return LpSolution(status, x=res.x, objective=sign * res.fun, pivots=res.nit)
