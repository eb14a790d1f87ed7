"""Linear and mixed-binary linear programs on HiGHS (Huangfu & Hall 2018).

Every program here minimizes; a caller after a maximum negates the
objective. `solve_milp` is the one entry point to HiGHS
(https://highs.dev), the copy that ships with scipy, driven through its
binding with no scipy wrapper in between. A `MilpProblem` keeps one
HiGHS model, built on its first solve; only the objective may change
after that. Each solve writes the whole objective into the model, clears
the solver state and runs HiGHS again from scratch, so every answer is a
function of the program and its current objective alone. `solve_lp` is
`solve_milp` on a program without binaries. A mixed-binary search stops
once the incumbent is within `MILP_GAP` of the best bound (no relative
gap) or after `MAX_NODES` nodes. The outcome is HiGHS's own model
status; an option that HiGHS rejects raises.

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
9.2 ms at 1800 and 17.2 -> 11.1 ms at 1e9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        self.lhs = np.atleast_2d(np.array(self.lhs, dtype=float))
        self.rhs = np.array(self.rhs, dtype=float)
        self.lower = np.array(self.lower, dtype=float)
        self.upper = np.array(self.upper, dtype=float)
        self.senses = tuple(self.senses)
        n = self.objective.shape[0]
        m = self.lhs.shape[0] if self.lhs.size else len(self.senses)
        if self.lhs.size == 0:
            self.lhs = np.zeros((m, n))
        # only the objective may change once a solve has built the HiGHS model
        for rows in (self.lhs, self.rhs, self.lower, self.upper):
            rows.flags.writeable = False
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
    # the HiGHS model of this program, built on its first solve
    model: object = field(default=None, init=False, repr=False)

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
    pivots: int = 0  # always 0; the benchmark's span reader still reads it
    node_count: int = 0  # HiGHS's mip_node_count of a MILP, 0 for an LP


def solve_lp(problem: LpProblem) -> Solution:
    """Solve an LP; any outcome but the three statuses raises MixedControlError."""
    return solve_milp(MilpProblem(problem, ()))


def solve_milp(problem: MilpProblem) -> Solution:
    """Minimize with the binaries in {0, 1}.

    On a program with binaries a node, iteration or time limit reports
    ``suboptimal``, with the incumbent if there is one. Any other outcome
    but optimal, infeasible or unbounded raises MixedControlError.
    """
    # lazy: MDP runs never solve one, and the binding loads scipy.optimize
    from scipy.optimize._highspy import _core as highs

    lp = problem.lp
    if problem.model is None:
        lower, upper = lp.lower.copy(), lp.upper.copy()
        bins = list(problem.binary)
        lower[bins] = np.maximum(lower[bins], 0.0)
        upper[bins] = np.minimum(upper[bins], 1.0)
        if np.any(lower > upper):
            return Solution("infeasible")
        problem.model = _build_model(highs, problem, lower, upper)
    model = problem.model
    n = lp.num_vars
    model.changeColsCost(n, np.arange(n, dtype=np.int32), lp.objective)
    _set_option(highs, model, "mip_max_nodes", MAX_NODES)
    model.clearSolver()
    model.run()
    state = model.getModelStatus()
    info = model.getInfo()
    nodes = int(info.mip_node_count) if problem.binary else 0
    kind = highs.HighsModelStatus
    statuses = {kind.kOptimal: "optimal", kind.kInfeasible: "infeasible",
                kind.kUnbounded: "unbounded"}
    if problem.binary:
        # a limit leaves a MILP with its incumbent, if it found one, and an LP unsolved
        limits = (kind.kSolutionLimit, kind.kIterationLimit, kind.kTimeLimit)
        statuses.update(dict.fromkeys(limits, "suboptimal"))
    status = statuses.get(state)
    if status is None:
        raise MixedControlError(
            f"HiGHS stopped without an answer: {model.modelStatusToString(state)}"
        )
    feasible = info.primal_solution_status == highs.kSolutionStatusFeasible
    if status == "optimal" or (status == "suboptimal" and feasible):
        x = np.array(model.getSolution().col_value)
        return Solution(status, x=x, objective=info.objective_function_value, node_count=nodes)
    return Solution(status, node_count=nodes)


def _set_option(highs, model, name: str, value) -> None:
    if model.setOptionValue(name, value) != highs.HighsStatus.kOk:
        raise MixedControlError(f"HiGHS rejects the option {name} = {value!r}")


def _build_model(highs, problem: MilpProblem, lower: np.ndarray, upper: np.ndarray):
    """A silent HiGHS model of ``problem`` with the binaries' bounds clipped to [0, 1]."""
    lp = problem.lp
    model = highs._Highs()
    for name, value in {"log_to_console": False, **HIGHS_OPTIONS}.items():
        _set_option(highs, model, name, value)
    senses = np.array(lp.senses)
    # the dense rows as one column-wise (CSC) matrix, zeros dropped
    columns = lp.lhs.T
    nonzero = columns != 0
    start = np.concatenate([[0], np.cumsum(nonzero.sum(axis=1))]).astype(np.int32)
    integrality = np.zeros(lp.num_vars, dtype=np.int32)
    integrality[list(problem.binary)] = int(highs.HighsVarType.kInteger)
    passed = model.passModel(
        lp.num_vars, len(senses), int(start[-1]), int(highs.MatrixFormat.kColwise),
        int(highs.ObjSense.kMinimize), 0.0, lp.objective, lower, upper,
        np.where(senses == LE, -np.inf, lp.rhs), np.where(senses == GE, np.inf, lp.rhs),
        start, np.nonzero(nonzero)[1].astype(np.int32), columns[nonzero], integrality,
    )
    if passed == highs.HighsStatus.kError:
        raise MixedControlError("HiGHS rejects the program")
    return model
