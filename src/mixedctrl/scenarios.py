"""Problem backends packaged as Lagrangian oracles.

The finite-set oracle answers queries by scanning an explicit candidate
list; it doubles as the reference backend in tests. Its policies are
candidate indices, so it saves no component file: a report names each
component by its index. Grid and landing scenarios build finite MDPs for
the dynamic-programming backend. Their tables come from whole-array
operations that make no (cells, actions) array but their outputs and
boolean masks of the off-grid moves, and every row they give is bit
for bit the one that full broadcasts, a COO spread matrix and a
cell-by-cell breadth-first search give. A grid's tables have a row for
every cell. A landing's have rows only for the cells its start can
reach, found stage by stage as the tables are built, so its policy
files list only those cells.
"""

from __future__ import annotations

import math
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


# The largest reach, in cells, of a noise kernel or an ellipsoid; at 2**31
# their (2 * reach + 1)**2 tables are more than any host holds.
_MAX_REACH = 2**31 - 1


def _kernel_1d(sigma: float):
    if sigma < 0:
        raise InvalidInputError("noise scale must be nonnegative")
    if sigma == 0:
        return np.array([0]), np.array([1.0])
    if not 3.0 * sigma <= _MAX_REACH:
        raise InvalidInputError(f"noise scale {sigma!r} reaches 2**31 cells or more")
    radius = max(1, math.ceil(3.0 * sigma))
    off = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 * (off / sigma) ** 2)
    return off, w / w.sum()


def _clipped_spread(
    width: int, height: int, sigma_x: float, sigma_y: float, rows=None
) -> sp.csr_matrix:
    """Disturbance matrix, row-stochastic on ``rows``; mass pushed off-grid piles on the edge.

    Row ``c`` spreads cell ``c`` by the product of two 1-D Gaussian
    kernels: offset (dx, dy), taken in order dx, then dy, carries weight
    ``wx[dx] * wy[dy]`` to the cell it reaches once each coordinate is
    clipped into the grid. Only the cells in ``rows`` (ascending, default
    every cell) get their row; the others stay empty. The columns are
    sums of one clipped table per axis, and each row reaches scipy's
    sort-and-sum in the order and with the index type that a COO matrix
    of all (cell, offset) entries would give it. That sort decides the
    order in which the weights piling on one edge cell are added, so
    every stored probability has the bits of the COO construction.
    """
    ox, wx = _kernel_1d(sigma_x)
    oy, wy = _kernel_1d(sigma_y)
    weights = np.outer(wx, wy).ravel()
    n, k = width * height, weights.size
    idx = sp.get_index_dtype(maxval=n * k)
    rows = np.arange(n, dtype=idx) if rows is None else np.asarray(rows, dtype=idx)
    x, y = np.divmod(rows, height)
    cx = np.clip(np.arange(width, dtype=idx)[:, None] + ox.astype(idx), 0, width - 1) * height
    cy = np.clip(np.arange(height, dtype=idx)[:, None] + oy.astype(idx), 0, height - 1)
    cols = (cx[x][:, :, None] + cy[y][:, None, :]).ravel()  # row; offset dx, dy
    indptr = np.zeros(n + 1, dtype=idx)
    indptr[rows + 1] = k
    spread = sp.csr_matrix((np.tile(weights, rows.size), cols, np.cumsum(indptr, dtype=idx)),
                           shape=(n, n))
    spread.sum_duplicates()
    return spread


def _shift_targets(width: int, height: int, offsets, cells=None) -> np.ndarray:
    """(cells, offsets) flat index of each cell moved by each offset; -1 off the grid.

    ``cells`` (default every cell, in order) picks the rows, each the row
    that the whole grid would give. A move stays on the grid when each
    coordinate does, so each axis is checked on its own (coordinates,
    offsets) table; beside the output, the only (cells, offsets) arrays
    made are boolean masks of the off-grid moves.
    """
    off = np.asarray(offsets, dtype=np.int64).reshape(-1, 2)
    cells = np.arange(width * height) if cells is None else np.asarray(cells, dtype=np.int64)
    x, y = np.divmod(cells, height)
    tx = np.arange(width)[:, None] + off[:, 0]
    ty = np.arange(height)[:, None] + off[:, 1]
    off_grid = ((tx < 0) | (tx >= width))[x]
    off_grid |= ((ty < 0) | (ty >= height))[y]
    out = cells[:, None] + (off[:, 0] * height + off[:, 1])
    np.copyto(out, -1, where=off_grid)
    return out


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
    # a step whose predecessor already reaches the map's far corner adds no
    # move, only (2 max_step + 1)**2 candidates for `grid_actions` to list
    longest = math.isqrt(max((w - 1) ** 2 + (h - 1) ** 2 - 1, 0)) + 1
    if max_step > longest:
        raise InvalidInputError(
            f"max_step must be at most {longest} on a {w}x{h} map, got {max_step}"
        )

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
    spread = _clipped_spread(w, h, sigma, sigma)
    # the goal is absorbing: once there the only move is a free noise-free
    # stay, implemented as an extra deterministic spread row
    park = sp.csr_matrix(
        (np.ones(1), (np.zeros(1, dtype=int), np.array([goal_idx]))), shape=(1, n)
    )
    spread = sp.vstack([spread, park]).tocsr()
    stay = actions.index((0, 0))
    pairs[goal_idx] = -1
    pairs[goal_idx, stay] = n
    dyn = ShiftSpread(pairs, spread)

    base = np.where(pairs >= 0, lengths[None, :], np.inf)
    fail = ~feasible.ravel()
    goal_mass = spread[:, goal_idx].toarray().ravel()
    crash_mass = spread @ fail.astype(float)
    miss = np.clip(1.0 - goal_mass - crash_mass, 0.0, 1.0)
    # target -1 (an inadmissible pair) reads the appended 0 and keeps base's inf
    last = np.append(miss, 0.0)[pairs]
    last *= 10.0 * t * max_step
    last += base

    initial = np.zeros(n)
    initial[start[0] * h + start[1]] = 1.0
    return Mdp(
        dynamics=(dyn,) * t,
        stage_costs=(base,) * (t - 1) + (last,),
        failure_masks=(fail,) * (t + 1),
        initial=initial,
    )


def grid_oracle(feasible, start, goal, horizon, max_step, sigma, risk_bound) -> MdpOracle:
    mdp = grid_scenario(feasible, start, goal, horizon, max_step, sigma)
    return MdpOracle(mdp, risk_bound)


def _walk_distances(feasible: np.ndarray, sources) -> np.ndarray:
    """(sources, width, height) four-neighbour walk distance from each source; inf off its reach.

    One breadth-first search for all sources, a whole level at a time.
    Each source walks its own copy of the map, ringed by infeasible cells
    so that no neighbour index leaves the copy.
    """
    w, h = feasible.shape
    stride = h + 2
    free = np.zeros((len(sources), w + 2, stride), dtype=bool)
    free[:, 1:-1, 1:-1] = feasible
    free = free.ravel()
    dist = np.full(free.size, np.inf)
    front = np.array([(i * (w + 2) + x + 1) * stride + y + 1 for i, (x, y) in enumerate(sources)])
    front = front[free[front]]
    steps = np.array([stride, -stride, 1, -1])
    level = 0.0
    while front.size:
        free[front] = False
        dist[front] = level
        level += 1.0
        front = (front[:, None] + steps).ravel()
        front = np.unique(front[free[front]])
    return dist.reshape(len(sources), w + 2, stride)[:, 1:-1, 1:-1]


def traverse_field(feasible: np.ndarray, sites) -> np.ndarray:
    """Walk distance from each cell through both sites, cheaper order first."""
    if len(sites) != 2:
        raise InvalidInputError("exactly two science sites expected")
    (ax, ay), (bx, by) = sites
    if not (feasible[ax, ay] and feasible[bx, by]):
        raise InvalidInputError("science site on an infeasible cell")
    da, db = _walk_distances(feasible, sites)
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
    reach = radius / math.sqrt(eigs[0])
    if not reach <= _MAX_REACH:  # not: an infinite or NaN reach too
        raise InvalidInputError(f"ellipsoid radius {radius!r} reaches 2**31 cells or more")
    reach = math.ceil(reach)
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

    The tables hold rows only for the cells the start can reach, worked
    out forward as they are built: stage 0 is the start cell, and stage
    k+1 the columns of the spread rows that stage k's admissible pairs
    use. Only those spread rows are filled. Each kept row is the one a
    build over every cell gives.
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
    cells = np.array([sx * h + sy])
    dynamics = []
    costs = []
    for k in range(t):
        pairs = _shift_targets(w, h, ellipsoid_offsets(*ellipsoids[k]), cells)
        used = np.zeros(n + 1, dtype=bool)
        used[pairs] = True  # target -1 (an inadmissible pair) marks the extra entry
        spread = _clipped_spread(w, h, *sigmas[k], rows=np.flatnonzero(used[:n]))
        dynamics.append(ShiftSpread(pairs, spread, cells, n))
        if k < t - 1:
            costs.append(np.where(pairs >= 0, 0.0, np.inf))
        else:
            # target -1 (an inadmissible pair) reads the appended inf
            costs.append(np.append(spread @ landed_cost.ravel(), np.inf)[pairs])
        reached = np.zeros(n, dtype=bool)
        reached[spread.indices] = True
        cells = np.flatnonzero(reached)
    masks = [np.zeros(n, dtype=bool) for _ in range(t)]
    masks.append(~feasible.ravel())
    initial = np.zeros(n)
    initial[sx * h + sy] = 1.0
    return Mdp(
        dynamics=tuple(dynamics),
        stage_costs=tuple(costs),
        failure_masks=tuple(masks),
        initial=initial,
    )


def edl_oracle(feasible, start, sites, stages, ellipsoids, sigmas, risk_bound) -> MdpOracle:
    mdp = edl_scenario(feasible, start, sites, stages, ellipsoids, sigmas)
    return MdpOracle(mdp, risk_bound)
