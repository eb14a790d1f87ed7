"""Mixed-binary linear programs on HiGHS's branch and cut.

`solve_milp` hands a `MilpProblem` to ``scipy.optimize.milp`` with the
tolerances of `lpsolve.HIGHS_TOLERANCES`. The search stops once the
incumbent is within ``abs_gap`` of the best bound (no relative gap) or
after ``max_nodes`` nodes.

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
# `solve_lp` is re-exported: tracing wraps `mixedctrl.milp.solve_lp` by name
from .lpsolve import GE, HIGHS_TOLERANCES, LE, SCIPY_STATUS, LpProblem, solve_lp  # noqa: F401


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
class MilpSolution:
    status: str  # optimal | infeasible | unbounded | suboptimal
    x: np.ndarray | None = None
    objective: float | None = None
    node_count: int = 0  # HiGHS's mip_node_count


def solve_milp(
    problem: MilpProblem,
    abs_gap: float = 1e-6,
    max_nodes: int = 100_000,
) -> MilpSolution:
    """Minimize (or maximize) with the binaries in {0, 1}.

    A node or time limit reports ``suboptimal``, with the incumbent if
    there is one; any outcome but the four statuses raises
    MixedControlError.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp  # lazy, as in `lpsolve.solve_lp`
    lp = problem.lp
    sign = 1.0 if lp.sense == "min" else -1.0
    bins = list(problem.binary)
    lower, upper = lp.lower.copy(), lp.upper.copy()
    lower[bins] = np.maximum(lower[bins], 0.0)
    upper[bins] = np.minimum(upper[bins], 1.0)
    if np.any(lower > upper):
        return MilpSolution("infeasible")
    integrality = np.zeros(lp.num_vars)
    integrality[bins] = 1
    senses = np.array(lp.senses)
    rows = LinearConstraint(
        lp.lhs, np.where(senses == LE, -np.inf, lp.rhs), np.where(senses == GE, np.inf, lp.rhs)
    )
    options = {
        **HIGHS_TOLERANCES,
        "mip_feasibility_tolerance": HIGHS_TOLERANCES["primal_feasibility_tolerance"],
        "mip_rel_gap": 0.0,
        "mip_abs_gap": abs_gap,
        "node_limit": max_nodes,
        "mip_heuristic_run_feasibility_jump": False,
    }
    with warnings.catch_warnings():
        # scipy passes the HiGHS option names it does not know through, with a warning
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        res = milp(
            sign * lp.objective,
            integrality=integrality,
            bounds=Bounds(lower, upper),
            constraints=rows,
            options=options,
        )
    nodes = int(res.mip_node_count or 0)
    status = {**SCIPY_STATUS, 1: "suboptimal"}.get(res.status)
    if res.status == 4 and nodes >= max_nodes:
        # HiGHS's node limit is its "solution limit", which scipy reports as 4
        status = "suboptimal"
    if status is None:
        raise MixedControlError(f"HiGHS stopped without an answer: {res.message}")
    if res.x is None:
        return MilpSolution(status, node_count=nodes)
    return MilpSolution(status, x=res.x, objective=sign * res.fun, node_count=nodes)
