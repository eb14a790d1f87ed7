"""Branch and bound for mixed-binary linear programs.

Nodes are explored best-first by relaxation bound; branching picks the
most fractional binary (ties to the lowest index) and children re-solve
the relaxation from scratch with tightened bounds. The incumbent is
accepted once every open node's bound is within ``abs_gap`` of it, so the
returned objective is optimal to that absolute gap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .core import InvalidInputError
from .lpsolve import LpProblem, LpSolution, solve_lp

INT_TOL = 1e-6


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
    node_count: int = 0
    pivots: int = field(default=0, repr=False)


def _relax(lp: LpProblem, lower: np.ndarray, upper: np.ndarray) -> LpSolution:
    node_lp = LpProblem(
        objective=lp.objective,
        lhs=lp.lhs,
        senses=lp.senses,
        rhs=lp.rhs,
        lower=lower,
        upper=upper,
        sense="min",
    )
    return solve_lp(node_lp)


def solve_milp(
    problem: MilpProblem,
    abs_gap: float = 1e-6,
    max_nodes: int = 100_000,
) -> MilpSolution:
    """Minimize (or maximize) with binaries integral to INT_TOL.

    ``node_count`` reports how many relaxations were solved. When the node
    budget runs out the best incumbent is returned flagged 'suboptimal'.
    """
    lp = problem.lp
    maximize = lp.sense == "max"
    work = lp if not maximize else LpProblem(
        objective=-lp.objective,
        lhs=lp.lhs,
        senses=lp.senses,
        rhs=lp.rhs,
        lower=lp.lower,
        upper=lp.upper,
        sense="min",
    )
    lower = work.lower.copy()
    upper = work.upper.copy()
    bins = np.array(problem.binary, dtype=int)
    if bins.size:
        lower[bins] = np.maximum(lower[bins], 0.0)
        upper[bins] = np.minimum(upper[bins], 1.0)
        if np.any(lower[bins] > upper[bins]):
            return MilpSolution("infeasible")

    best_x: np.ndarray | None = None
    best_obj = np.inf
    nodes = 0
    pivots = 0
    seq = 0
    heap: list[tuple[float, int, np.ndarray, np.ndarray]] = []
    heapq.heappush(heap, (-np.inf, seq, lower, upper))
    exhausted = False

    while heap:
        bound, _, lo, hi = heapq.heappop(heap)
        if bound >= best_obj - abs_gap:
            break
        if nodes >= max_nodes:
            exhausted = True
            break
        rel = _relax(work, lo, hi)
        nodes += 1
        pivots += rel.pivots
        if rel.status == "infeasible":
            continue
        if rel.status == "unbounded":
            return MilpSolution("unbounded", node_count=nodes, pivots=pivots)
        assert rel.objective is not None and rel.x is not None
        if rel.objective >= best_obj - abs_gap:
            continue
        if bins.size:
            frac = np.abs(rel.x[bins] - np.round(rel.x[bins]))
        else:
            frac = np.zeros(0)
        if frac.size == 0 or frac.max() <= INT_TOL:
            if rel.objective < best_obj:
                best_obj = rel.objective
                best_x = rel.x
            continue
        j = bins[int(np.argmax(frac))]  # argmax ties resolve to the lowest index
        for fixed in (0.0, 1.0):
            if not (lo[j] <= fixed <= hi[j]):
                continue
            lo2, hi2 = lo.copy(), hi.copy()
            lo2[j] = fixed
            hi2[j] = fixed
            seq += 1
            heapq.heappush(heap, (rel.objective, seq, lo2, hi2))

    if best_x is None:
        status = "suboptimal" if exhausted else "infeasible"
        return MilpSolution(status, node_count=nodes, pivots=pivots)
    status = "suboptimal" if exhausted else "optimal"
    obj = -best_obj if maximize else best_obj
    return MilpSolution(status, x=best_x, objective=obj, node_count=nodes, pivots=pivots)
