"""Problem backends packaged as Lagrangian oracles.

The finite-set oracle answers queries by scanning an explicit candidate
list; it doubles as the reference backend in tests. Its policies are
candidate indices, so it saves no component file: a report names each
component by its index. Grid and landing scenarios build finite MDPs for
the dynamic-programming backend.
"""

from __future__ import annotations

import math
from collections import deque
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .ccmdp import Mdp, MdpOracle, ShiftSpread
from .core import (
    CostVector,
    InvalidInputError,
    LagrangianOracle,
    PureCandidate,
    check_multiplier,
    lagrangian_value,
)


class FiniteSetOracle(LagrangianOracle):
    """Pointwise minimizer over an explicit finite set of cost vectors.

    Policies are indices into the candidate list; ties break to the lowest
    index so queries are deterministic.
    """

    def __init__(self, costs: Sequence[CostVector], risk_bound: float):
        self.costs = tuple(costs)
        if not self.costs:
            raise InvalidInputError("finite oracle needs at least one cost vector")
        self.risk_bound = risk_bound

    def query(self, lam: float) -> PureCandidate:
        lam = check_multiplier(lam)
        values = [lagrangian_value(c, lam, self.risk_bound) for c in self.costs]
        best = values.index(min(values))
        return PureCandidate(best, self.costs[best])

    def evaluate(self, policy: object) -> CostVector:
        return self.costs[int(policy)]

    def save(self, policy: object, stem: str, out_dir: Path) -> int:
        """Write nothing: the candidate index is its own reference."""
        return int(policy)

    def load(self, ref: object, out_dir: Path) -> int:
        if type(ref) is not int or not 0 <= ref < len(self.costs):
            raise InvalidInputError(f"bad policy index {ref!r} in report")
        return ref


# --- grid plumbing shared by the MDP scenarios ---
#
# Cells are (x, y) with x in [0, width) and y in [0, height); y grows
# downward so map files read naturally. Flat index is x * height + y.


def parse_grid_map(text: str):
    """Read a character grid: '#' infeasible, '.' feasible, else a marker.

    Returns the feasibility array indexed [x, y] and a dict mapping each
    marker character to its cell list (marker cells are feasible).
    """
    lines = [ln.rstrip("\r") for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidInputError("empty map")
    width = len(lines[0])
    if any(len(ln) != width for ln in lines):
        raise InvalidInputError("map rows have unequal lengths")
    height = len(lines)
    feasible = np.ones((width, height), dtype=bool)
    markers: dict[str, list[tuple[int, int]]] = {}
    for y, line in enumerate(lines):
        for x, ch in enumerate(line):
            if ch == "#":
                feasible[x, y] = False
            elif ch != ".":
                markers.setdefault(ch, []).append((x, y))
    return feasible, markers


def _kernel_1d(sigma: float):
    if sigma < 0:
        raise InvalidInputError("noise scale must be nonnegative")
    if sigma == 0:
        return np.array([0]), np.array([1.0])
    radius = max(1, math.ceil(3.0 * sigma))
    off = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 * (off / sigma) ** 2)
    return off, w / w.sum()


def _product_kernel(sigma_x: float, sigma_y: float):
    ox, wx = _kernel_1d(sigma_x)
    oy, wy = _kernel_1d(sigma_y)
    offs = np.array([(a, b) for a in ox for b in oy], dtype=np.int64)
    ws = np.outer(wx, wy).ravel()
    return offs, ws


def _clipped_spread(width: int, height: int, offsets, weights) -> sp.csr_matrix:
    """Row-stochastic disturbance matrix; mass pushed off-grid piles on the edge."""
    n = width * height
    xs, ys = np.divmod(np.arange(n), height)
    tx = np.clip(xs[:, None] + offsets[None, :, 0], 0, width - 1)
    ty = np.clip(ys[:, None] + offsets[None, :, 1], 0, height - 1)
    rows = np.repeat(np.arange(n), len(weights))
    cols = (tx * height + ty).ravel()
    data = np.tile(weights, n)
    m = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    m.sum_duplicates()
    return m


def _shift_targets(width: int, height: int, offsets) -> np.ndarray:
    """(cells, offsets) flat index of each cell moved by each offset; -1 off the grid."""
    xs, ys = np.divmod(np.arange(width * height), height)
    off = np.asarray(offsets, dtype=np.int64).reshape(-1, 2)
    tx = xs[:, None] + off[:, 0]
    ty = ys[:, None] + off[:, 1]
    ok = (tx >= 0) & (tx < width) & (ty >= 0) & (ty < height)
    return np.where(ok, tx * height + ty, -1)


def grid_actions(max_step: int):
    """Integer displacements of Euclidean length at most max_step, in fixed order."""
    d = max_step
    return [
        (dx, dy)
        for dx in range(-d, d + 1)
        for dy in range(-d, d + 1)
        if dx * dx + dy * dy <= d * d
    ]


def grid_scenario(
    feasible: np.ndarray, start, goal, horizon: int, max_step: int, sigma: float
):
    """Build the navigation Mdp; the goal is enforced by a terminal miss penalty.

    Stage cost is the displacement length, so the cost channel is the
    expected path length. Mass that ends the horizon alive anywhere but
    the goal pays ``10 * horizon * max_step``, ten times the longest
    path; mass absorbed by a crash (an infeasible cell) pays only the
    risk channel.
    """
    w, h = feasible.shape
    t = horizon
    if t < 1 or max_step < 1:
        raise InvalidInputError("horizon and step must be positive")

    def check_cell(cell, what):
        x, y = cell
        if not (0 <= x < w and 0 <= y < h):
            raise InvalidInputError(f"{what} {cell} outside the grid")
        if not feasible[x, y]:
            raise InvalidInputError(f"{what} {cell} sits on an obstacle")

    check_cell(start, "start")
    check_cell(goal, "goal")
    n = w * h
    goal_idx = goal[0] * h + goal[1]
    actions = grid_actions(max_step)
    lengths = np.array([math.hypot(dx, dy) for dx, dy in actions])
    pairs = _shift_targets(w, h, actions)  # (states, actions), as every table below
    spread = _clipped_spread(w, h, *_product_kernel(sigma, sigma))
    # the goal is absorbing: once there the only move is a free noise-free
    # stay, implemented as an extra deterministic spread row
    park = sp.csr_matrix(
        (np.ones(1), (np.zeros(1, dtype=int), np.array([goal_idx]))), shape=(1, n)
    )
    spread = sp.vstack([spread, park]).tocsr()
    stay = actions.index((0, 0))
    pairs[goal_idx] = -1
    pairs[goal_idx, stay] = n
    dyn = ShiftSpread(pairs.T, spread)

    base = np.where(pairs >= 0, lengths[None, :], np.inf)
    fail = ~feasible.ravel()
    goal_mass = spread[:, goal_idx].toarray().ravel()
    crash_mass = spread @ fail.astype(float)
    miss = np.clip(1.0 - goal_mass - crash_mass, 0.0, 1.0)
    safe_t = np.where(pairs >= 0, pairs, 0)
    last = base + 10.0 * t * max_step * np.where(pairs >= 0, miss[safe_t], 0.0)

    initial = np.zeros(n)
    initial[start[0] * h + start[1]] = 1.0
    return Mdp(
        horizon=t,
        state_counts=(n,) * (t + 1),
        dynamics=(dyn,) * t,
        stage_costs=(base,) * (t - 1) + (last,),
        failure_masks=(fail,) * (t + 1),
        initial=initial,
    )


def grid_oracle(feasible, start, goal, horizon, max_step, sigma, risk_bound) -> MdpOracle:
    mdp = grid_scenario(feasible, start, goal, horizon, max_step, sigma)
    return MdpOracle(mdp, risk_bound)


def _bfs_distance(feasible: np.ndarray, source) -> np.ndarray:
    w, h = feasible.shape
    dist = np.full((w, h), np.inf)
    sx, sy = source
    if not feasible[sx, sy]:
        return dist
    dist[sx, sy] = 0.0
    queue = deque([(sx, sy)])
    while queue:
        x, y = queue.popleft()
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nx < w and 0 <= ny < h and feasible[nx, ny]:
                if dist[nx, ny] == np.inf:
                    dist[nx, ny] = dist[x, y] + 1.0
                    queue.append((nx, ny))
    return dist


def traverse_field(feasible: np.ndarray, sites) -> np.ndarray:
    """Walk distance from each cell through both sites, cheaper order first."""
    if len(sites) != 2:
        raise InvalidInputError("exactly two science sites expected")
    (ax, ay), (bx, by) = sites
    if not (feasible[ax, ay] and feasible[bx, by]):
        raise InvalidInputError("science site on an infeasible cell")
    da = _bfs_distance(feasible, (ax, ay))
    db = _bfs_distance(feasible, (bx, by))
    between = da[bx, by]
    if not np.isfinite(between):
        raise InvalidInputError("science sites are not connected")
    return np.minimum(da, db) + between


def ellipsoid_offsets(matrix, radius: float):
    """Integer points with offset' @ matrix @ offset <= radius^2, fixed order."""
    mat = np.asarray(matrix, dtype=float)
    if mat.shape != (2, 2) or not np.allclose(mat, mat.T, atol=1e-12):
        raise InvalidInputError("ellipsoid matrix must be symmetric 2x2")
    eigs = np.linalg.eigvalsh(mat)
    if eigs[0] <= 0:
        raise InvalidInputError("ellipsoid matrix must be positive definite")
    reach = int(math.ceil(radius / math.sqrt(eigs[0])))
    side = np.arange(-reach, reach + 1)
    points = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 1, 2)
    # batched (1, 2) @ (2, 2) and (1, 2) @ (2, 1) products run the kernels that
    # v @ mat @ v runs for one point, so each value is that point's, bit for bit
    v = points.astype(float)
    inside = ((v @ mat) @ v.transpose(0, 2, 1)).ravel() <= radius * radius + 1e-12
    return [tuple(p) for p in points[inside, 0].tolist()]


def edl_scenario(feasible: np.ndarray, start, sites, stages: int, ellipsoids, sigmas):
    """Multi-stage landing-site targeting over a hazard map.

    Stage k re-aims within ``ellipsoids[k]`` (a (matrix, radius) pair)
    around the current projected point and picks up disturbance with
    standard deviations ``sigmas[k]``. The only failure check is the
    touchdown cell, and the only cost is the surface traverse from the
    touchdown cell through both science sites in the cheaper order; a
    cell with no route to the sites costs ``4 * width * height``.
    """
    w, h = feasible.shape
    t = stages
    if t < 2:
        raise InvalidInputError("landing problem needs at least two stages")
    if not feasible.any():
        raise InvalidInputError("feasibility map has no feasible cell")
    if len(ellipsoids) != t or len(sigmas) != t:
        raise InvalidInputError("need one ellipsoid and one noise pair per stage")
    sx, sy = start
    if not (0 <= sx < w and 0 <= sy < h):
        raise InvalidInputError("start outside the grid")

    trav = traverse_field(feasible, sites)
    landed_cost = np.where(feasible, np.where(np.isfinite(trav), trav, 4.0 * w * h), 0.0)

    n = w * h
    dynamics = []
    costs = []
    for k in range(t):
        pairs = _shift_targets(w, h, ellipsoid_offsets(*ellipsoids[k]))
        spread = _clipped_spread(w, h, *_product_kernel(*sigmas[k]))
        dynamics.append(ShiftSpread(pairs.T, spread))
        admissible = pairs >= 0
        if k < t - 1:
            costs.append(np.where(admissible, 0.0, np.inf))
        else:
            expected = spread @ landed_cost.ravel()
            safe_t = np.where(admissible, pairs, 0)
            costs.append(np.where(admissible, expected[safe_t], np.inf))
    masks = [np.zeros(n, dtype=bool) for _ in range(t)]
    masks.append(~feasible.ravel())
    initial = np.zeros(n)
    initial[sx * h + sy] = 1.0
    return Mdp(
        horizon=t,
        state_counts=(n,) * (t + 1),
        dynamics=tuple(dynamics),
        stage_costs=tuple(costs),
        failure_masks=tuple(masks),
        initial=initial,
    )


def edl_oracle(feasible, start, sites, stages, ellipsoids, sigmas, risk_bound) -> MdpOracle:
    mdp = edl_scenario(feasible, start, sites, stages, ellipsoids, sigmas)
    return MdpOracle(mdp, risk_bound)
