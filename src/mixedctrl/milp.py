"""Linear and mixed-binary linear programs on HiGHS (Huangfu & Hall 2018).

Every program here minimizes; a caller after a maximum negates the
objective. `solve_milp` is the one entry point to HiGHS
(https://highs.dev): it hands a `MilpProblem` to ``scipy.optimize.milp``,
the branch and cut of the copy of HiGHS that ships with scipy, and
returns a `Solution`. `solve_lp` is `solve_milp` on a program without
binaries. A mixed-binary search stops once the incumbent is within
`MILP_GAP` of the best bound (no relative gap) or after `MAX_NODES`
nodes.

`HIGHS_OPTIONS` tightens HiGHS's default feasibility tolerance of 1e-7,
at which a risk term of the SMPC inner program can undercut its chord
rows enough to make the risk rise with the multiplier.

HiGHS's feasibility-jump primal heuristic (Luteberget & Sartor 2023,
"Feasibility Jump: an LP-free Lagrangian MIP heuristic") is switched
off. It only proposes incumbents, so the optimality proof, the
tolerances, the gap and the node limit are unchanged, but on the SMPC
inner programs, which HiGHS solves at the root, it costs more than the
rest of the solve. Best-of-5 times per program on the shipped
``corridor`` (HiGHS 1.12), heuristic on -> off: 8.4 -> 2.7 ms at a
multiplier near 0, 9.9 -> 5.6 ms at 2, 16.2 -> 7.2 ms at 100, 32.4 ->
9.2 ms at 1800 and 17.2 -> 11.1 ms at 1e9. A HiGHS that does not know
the option ignores it, with the warning filtered below.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import InvalidInputError, MixedControlError

# absolute optimality gap at which HiGHS stops a mixed-binary program
MILP_GAP = 1e-9
# the options of every solve but its node limit; see the module docstring
HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "mip_feasibility_tolerance": 1e-10,
    "mip_rel_gap": 0.0,
    "mip_abs_gap": MILP_GAP,
    "mip_heuristic_run_feasibility_jump": False,
}
# branch-and-cut nodes a mixed-binary program may use; read at each solve
MAX_NODES = 200_000
# scipy folds HiGHS's model statuses into five codes: 0 optimal, 1 time or
# iteration limit, 2 infeasible, 3 unbounded, 4 anything else (a numerical
# failure, "infeasible or unbounded", and for a MILP the node limit)
SCIPY_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}

LE, EQ, GE = "<=", "=", ">="


@dataclass(eq=False)
class LpProblem:
    """min objective . x subject to lhs x (senses) rhs, lower <= x <= upper."""

    objective: np.ndarray
    lhs: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

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


@dataclass(eq=False)
class MilpProblem:
    lp: LpProblem
    binary: tuple[int, ...]

    def __post_init__(self):
        self.binary = tuple(int(j) for j in self.binary)
        n = self.lp.num_vars
        if len(set(self.binary)) != len(self.binary):
            raise InvalidInputError("duplicate binary indices")
        if any(j < 0 or j >= n for j in self.binary):
            raise InvalidInputError("binary index out of range")


@dataclass
class Solution:
    status: str  # optimal | infeasible | unbounded, or suboptimal for a MILP
    x: np.ndarray | None = None
    objective: float | None = None
    pivots: int = 0  # always 0: scipy's milp does not report simplex iterations
    node_count: int = 0  # HiGHS's mip_node_count of a MILP


def solve_lp(problem: LpProblem) -> Solution:
    """Solve an LP; any outcome but the three statuses raises MixedControlError."""
    return solve_milp(MilpProblem(problem, ()))


def solve_milp(problem: MilpProblem) -> Solution:
    """Minimize with the binaries in {0, 1}.

    On a program with binaries a node or time limit reports
    ``suboptimal``, with the incumbent if there is one. Any other outcome
    but optimal, infeasible or unbounded raises MixedControlError.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp  # lazy: MDP runs never solve one
    lp = problem.lp
    bins = list(problem.binary)
    lower, upper = lp.lower.copy(), lp.upper.copy()
    lower[bins] = np.maximum(lower[bins], 0.0)
    upper[bins] = np.minimum(upper[bins], 1.0)
    if np.any(lower > upper):
        return Solution("infeasible")
    integrality = np.zeros(lp.num_vars)
    integrality[bins] = 1
    senses = np.array(lp.senses)
    rows = LinearConstraint(
        lp.lhs, np.where(senses == LE, -np.inf, lp.rhs), np.where(senses == GE, np.inf, lp.rhs)
    )
    with warnings.catch_warnings():
        # scipy passes the HiGHS option names it does not know through, with a warning
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        res = milp(
            lp.objective,
            integrality=integrality,
            bounds=Bounds(lower, upper),
            constraints=rows,
            options={**HIGHS_OPTIONS, "node_limit": MAX_NODES},
        )
    nodes = int(res.mip_node_count or 0)
    status = SCIPY_STATUS.get(res.status)
    # a time or iteration limit (1) or the node limit, HiGHS's "solution
    # limit" that scipy reports as 4, leaves a MILP suboptimal and an LP unsolved
    if bins and (res.status == 1 or (res.status == 4 and nodes >= MAX_NODES)):
        status = "suboptimal"
    if status is None:
        raise MixedControlError(f"HiGHS stopped without an answer: {res.message}")
    if res.x is None:
        return Solution(status, node_count=nodes)
    return Solution(status, x=res.x, objective=res.fun, node_count=nodes)
