"""Linear-Gaussian model predictive control with obstacle chance constraints.

The plant is x_{k+1} = A x_k + B u_k + w_k with known Gaussian noise and a
deterministic start, so the state mean is affine in the controls and the
covariance follows a fixed recursion. Obstacles are convex polytopes; a
trajectory fails if any step lands inside one. The per-step, per-obstacle
collision probability is over-approximated by (1) picking one separating
face per obstacle and step via binaries, (2) bounding the Gaussian tail
across that face with a piecewise-linear majorant of the normal CDF, and
(3) summing the pieces with a union bound. That makes the multiplier
oracle one mixed-binary linear program per query. Only the objective
weight on the risk terms depends on the multiplier, so each oracle
builds the program once and each query writes its weights into that one
program and hands it to HiGHS (`milp.solve_milp`), which solves it from
scratch; each answer depends on the multiplier alone. A program that
runs out of its node budget raises SolverLimitError; only a program with
no feasible point is reported as infeasible.

Control effort is the L1 norm of the input sequence, linearized with the
usual pair of slack inequalities per entry.

A saved mixture component is a ``plan_<stem>.csv`` table: a
``u0,...,u{m-1}`` header, then one row of controls per step.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from .core import (
    CostVector,
    InfeasibleProblemError,
    InvalidInputError,
    LagrangianOracle,
    MixedControlError,
    MixedSolution,
    MonteCarloCheck,
    PureCandidate,
    SolverLimitError,
    check_multiplier,
    read_component,
    split_rollouts,
)
from . import milp
from .milp import EQ, GE, LE, LpProblem, MilpProblem, solve_lp, solve_milp

# below this the face distance in standard deviations is treated as exact
_SIGMA_FLOOR = 1e-12
# a mean separates from an obstacle face when it is at most this far on the inner side
_SEPARATION_TOL = 1e-9
# a saved plan's control may lie this far outside [u_lower, u_upper]
_BOX_SLACK = 1e-9
# left end of the chord range, where the normal CDF is about 1e-9
PWL_Y_MIN = -6.0
# Monte Carlo rollouts per block. Block i of a plan draws from child i of
# the plan's seed, so the block size decides which normal draw goes to
# which rollout, and changing it changes every estimate. Blocks are the
# unit of work the sampler hands to its threads.
_MC_BLOCK = 2**15
# bytes the sampler's workers may hold in scratch arrays together. Each
# worker allocates one scratch of `_block_bytes` per call and writes
# every block it takes into it, so this caps the worker count on
# machines with many cores; a model whose scratch alone is larger still
# gets one worker. The shipped corridor's scratch takes 2.7 MiB.
_MC_MEMORY = 7 * 2**20


@dataclass(frozen=True)
class Obstacle:
    """Convex region {x : face_normals @ x <= face_offsets}, entered means failed."""

    face_normals: np.ndarray
    face_offsets: np.ndarray

    def __post_init__(self):
        normals = np.asarray(self.face_normals, dtype=float)
        offsets = np.asarray(self.face_offsets, dtype=float)
        if normals.ndim != 2 or offsets.shape != (normals.shape[0],):
            raise InvalidInputError("obstacle faces need matching normal/offset counts")
        if normals.shape[0] < 1:
            raise InvalidInputError("obstacle needs at least one face")
        if not (np.isfinite(normals).all() and np.isfinite(offsets).all()):
            raise InvalidInputError("obstacle faces must be finite")
        if np.any(np.all(normals == 0.0, axis=1)):
            raise InvalidInputError("obstacle face with zero normal")
        object.__setattr__(self, "face_normals", normals)
        object.__setattr__(self, "face_offsets", offsets)

    @property
    def num_faces(self) -> int:
        return self.face_normals.shape[0]


@dataclass(eq=False)
class SmpcModel:
    a_mat: np.ndarray
    b_mat: np.ndarray
    sigma_w: np.ndarray
    horizon: int
    x_init: np.ndarray
    x_goal: np.ndarray
    u_lower: np.ndarray
    u_upper: np.ndarray
    obstacles: tuple[Obstacle, ...]

    def __post_init__(self):
        self.a_mat = np.asarray(self.a_mat, dtype=float)
        self.b_mat = np.asarray(self.b_mat, dtype=float)
        self.sigma_w = np.asarray(self.sigma_w, dtype=float)
        self.x_init = np.asarray(self.x_init, dtype=float)
        self.x_goal = np.asarray(self.x_goal, dtype=float)
        self.u_lower = np.asarray(self.u_lower, dtype=float)
        self.u_upper = np.asarray(self.u_upper, dtype=float)
        self.obstacles = tuple(self.obstacles)
        if self.a_mat.ndim != 2 or self.a_mat.shape[0] != self.a_mat.shape[1]:
            raise InvalidInputError("state matrix must be square")
        n = self.a_mat.shape[0]
        if self.b_mat.ndim != 2 or self.b_mat.shape[0] != n:
            raise InvalidInputError("input matrix rows must match the state dimension")
        m = self.b_mat.shape[1]
        if self.sigma_w.shape != (n, n):
            raise InvalidInputError("noise covariance must be state-sized")
        if not np.allclose(self.sigma_w, self.sigma_w.T, atol=1e-12):
            raise InvalidInputError("noise covariance must be symmetric")
        if np.linalg.eigvalsh(self.sigma_w).min() < -1e-10:
            raise InvalidInputError("noise covariance must be positive semidefinite")
        if self.horizon < 1:
            raise InvalidInputError("horizon must be at least one step")
        if self.x_init.shape != (n,) or self.x_goal.shape != (n,):
            raise InvalidInputError("start and goal must be state-sized vectors")
        if self.u_lower.shape != (m,) or self.u_upper.shape != (m,):
            raise InvalidInputError("control bounds must be input-sized vectors")
        if not (np.isfinite(self.u_lower).all() and np.isfinite(self.u_upper).all()):
            raise InvalidInputError("control bounds must be finite")
        if np.any(self.u_lower > self.u_upper):
            raise InvalidInputError("control lower bound exceeds upper bound")
        for obs in self.obstacles:
            if obs.face_normals.shape[1] != n:
                raise InvalidInputError("obstacle faces must be state-sized")

    @property
    def dim_x(self) -> int:
        return self.a_mat.shape[0]

    @property
    def dim_u(self) -> int:
        return self.b_mat.shape[1]


def propagate_covariance(model: SmpcModel) -> list[np.ndarray]:
    """State covariances for steps 1..N+1; the start is deterministic."""
    n = model.dim_x
    covs = [np.zeros((n, n))]
    for _ in range(model.horizon):
        covs.append(model.a_mat @ covs[-1] @ model.a_mat.T + model.sigma_w)
    return covs


def mean_path(model: SmpcModel, controls: np.ndarray) -> np.ndarray:
    """Noise-free trajectory (N+1, n) under the given (N, m) control sequence."""
    controls = np.asarray(controls, dtype=float)
    if controls.shape != (model.horizon, model.dim_u):
        raise InvalidInputError(
            f"control sequence must be ({model.horizon}, {model.dim_u})"
        )
    path = np.empty((model.horizon + 1, model.dim_x))
    path[0] = model.x_init
    for k in range(model.horizon):
        path[k + 1] = model.a_mat @ path[k] + model.b_mat @ controls[k]
    return path


@dataclass(frozen=True)
class PwlCdf:
    """Chord majorant of the standard normal CDF on [PWL_Y_MIN, 0], floored at zero.

    The CDF is convex left of zero, so chords between grid points lie on
    or above it there; evaluating the max of the chords gives a
    conservative tail probability for any separating-face margin in the
    covered range.
    """

    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]

    def value(self, y):
        """The majorant at ``y``, a number or an array of them."""
        chords = np.multiply.outer(np.asarray(y, dtype=float), self.slopes) + self.intercepts
        return np.maximum(0.0, chords.max(axis=-1))


def build_pwl_cdf(n_segments: int = 24) -> PwlCdf:
    if n_segments < 1:
        raise InvalidInputError("need at least one segment")
    if n_segments >= 2**31:
        raise InvalidInputError(f"{n_segments} chord segments are more than a table can hold")
    ys = np.linspace(PWL_Y_MIN, 0.0, n_segments + 1)
    ps = ndtr(ys)
    slopes = (ps[1:] - ps[:-1]) / (ys[1:] - ys[:-1])
    intercepts = ps[:-1] - slopes * ys[:-1]
    return PwlCdf(tuple(slopes), tuple(intercepts))


def _face_sigmas(model: SmpcModel, covs) -> list[np.ndarray]:
    """Per obstacle, the (faces, N) deviations of ``a @ x`` at steps 2..N+1 under ``covs``."""
    cov = np.stack(covs[1:])
    faces = [obs.face_normals[:, None, None, :] for obs in model.obstacles]  # (faces, 1, 1, n)
    return [np.sqrt(np.maximum((a @ cov @ a.swapaxes(2, 3))[..., 0, 0], 0.0)) for a in faces]


def _tail_bound(pwl: PwlCdf, gap: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Chord bound on P(a @ x < b) for ``gap`` = b - E[a @ x] and ``sigma`` its deviation.

    Both are arrays of one shape; the bound is 0 where ``sigma`` is at most `_SIGMA_FLOOR`.
    """
    live = sigma > _SIGMA_FLOOR
    return np.where(live, pwl.value(gap / np.where(live, sigma, 1.0)), 0.0)


def _interval_matvec(mat, lo, hi):
    pos = np.clip(mat, 0.0, None)
    neg = np.clip(mat, None, 0.0)
    return pos @ lo + neg @ hi, pos @ hi + neg @ lo


def _mean_ranges(model: SmpcModel):
    """Componentwise reachable intervals of the mean at steps 2..N+1.

    Forward propagation through the control box always applies. When the
    state matrix is the identity the terminal pin on the mean also bounds
    earlier steps (the mean must stay within N+1-t control moves of the
    goal), and intersecting both funnels tightens every big-M constant
    and lets more face binaries be pinned outright.
    """
    lo = hi = model.x_init
    blo, bhi = _interval_matvec(model.b_mat, model.u_lower, model.u_upper)
    out = []
    for _ in range(model.horizon):
        alo, ahi = _interval_matvec(model.a_mat, lo, hi)
        lo, hi = alo + blo, ahi + bhi
        out.append([lo, hi])
    if np.array_equal(model.a_mat, np.eye(model.dim_x)):
        back_lo = back_hi = model.x_goal
        for t in range(model.horizon - 1, -1, -1):
            out[t][0] = np.maximum(out[t][0], back_lo)
            out[t][1] = np.minimum(out[t][1], back_hi)
            # an empty slice means the goal is unreachable; keep the
            # arrays ordered and let the relaxation report infeasibility
            out[t][1] = np.maximum(out[t][1], out[t][0])
            back_lo, back_hi = out[t][0] - bhi, out[t][1] - blo
    return [(lo, hi) for lo, hi in out]


def _blocks(*shapes):
    """Consecutive column-index arrays of the given shapes, and the column count."""
    blocks, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        blocks.append(np.arange(start, start + size).reshape(shape))
        start += size
    return blocks, start


class Columns(NamedTuple):
    """Column indices of each variable block of the inner program."""

    u: np.ndarray  # (N, m) controls
    v: np.ndarray  # (N, m) L1 slacks
    x: np.ndarray  # (N, n) means at steps 2..N+1
    delta: np.ndarray  # (obstacles, N) risk terms
    z: tuple[np.ndarray, ...]  # (faces, N) relax binaries, one per obstacle


def _dynamics_rows(model: SmpcModel, u: np.ndarray, x: np.ndarray, num_cols: int):
    """Rows and right-hand sides of x_{t+1} - A x_t - B u_t = 0, step-major.

    ``u`` and ``x`` are the (N, m) and (N, n) column indices of the
    controls and of the means at steps 2..N+1; the first step moves
    A x_init to the right-hand side.
    """
    n = model.dim_x
    rows = np.zeros((model.horizon, n, num_cols))
    for t in range(model.horizon):
        rows[t][np.arange(n), x[t]] = 1.0
        rows[t][:, u[t]] -= model.b_mat
        if t > 0:
            rows[t][:, x[t - 1]] -= model.a_mat
    rhs = np.zeros((model.horizon, n))
    rhs[0] = [row @ model.x_init for row in model.a_mat]
    return rows.reshape(-1, num_cols), rhs.ravel()


def build_inner_milp(
    model: SmpcModel, risk_weight: float, pwl: PwlCdf
) -> tuple[MilpProblem, Columns]:
    """Assemble the multiplier subproblem as a mixed-binary LP.

    Columns: controls u, L1 slacks v, means for steps 2..N+1, one risk
    term per obstacle and step, and one relax binary per obstacle face
    and step (0 keeps the face as the separating constraint, so each
    obstacle needs at least one zero per step). Minimizes sum(v) +
    risk_weight * sum(delta).
    """
    n, m, big_n = model.dim_x, model.dim_u, model.horizon
    blocks, num_cols = _blocks(
        (big_n, m), (big_n, m), (big_n, n), (len(model.obstacles), big_n),
        *((obs.num_faces, big_n) for obs in model.obstacles),
    )
    cols = Columns(*blocks[:4], tuple(blocks[4:]))

    binary = [int(zi) for z in cols.z for zi in z.flat]
    objective = np.zeros(num_cols)
    objective[cols.v] = 1.0
    objective[cols.delta] = risk_weight
    lower = np.full(num_cols, -np.inf)
    upper = np.full(num_cols, np.inf)
    lower[cols.u] = model.u_lower
    upper[cols.u] = model.u_upper
    lower[cols.v] = 0.0
    lower[cols.delta] = lower[binary] = 0.0
    upper[cols.delta] = upper[binary] = 1.0
    rows, senses, rhs = [], [], []

    def add_row(idx, vals, sense, b):
        row = np.zeros(num_cols)
        row[idx] = vals
        rows.append(row)
        senses.append(sense)
        rhs.append(b)

    # |u| linearization: u - v <= 0 and -u - v <= 0
    for ui, vi in zip(cols.u.flat, cols.v.flat):
        add_row([ui, vi], [1.0, -1.0], LE, 0.0)
        add_row([ui, vi], [-1.0, -1.0], LE, 0.0)

    dyn_rows, dyn_rhs = _dynamics_rows(model, cols.u, cols.x, num_cols)
    rows.extend(dyn_rows)
    senses.extend([EQ] * len(dyn_rhs))
    rhs.extend(dyn_rhs)

    # terminal condition on the mean
    for xi, goal in zip(cols.x[-1], model.x_goal):
        add_row([xi], [1.0], EQ, float(goal))

    # obstacle separation and tail bounds at steps 2..N+1. The binary of
    # face j relaxes that face's rows; the per-group cap makes at least
    # one face bind, and the risk term answers only to bound faces.
    # Pinning more than one binary to zero would therefore overcount the
    # risk (delta would have to clear every pinned face's chords), so a
    # group is pre-resolved only when a single face settles it for free:
    # the reachable mean set never crosses it and its tail is past the
    # chord range. Such a group emits no rows at all.
    lo, hi = (np.array(side).T for side in zip(*_mean_ranges(model)))  # (n, N) each
    sigmas = _face_sigmas(model, propagate_covariance(model))
    for i, (obs, sigma, z) in enumerate(zip(model.obstacles, sigmas, cols.z)):
        # (faces, N): the reachable range of a @ x and the worst margin's tail
        row_lo, row_hi = _interval_matvec(obs.face_normals, lo, hi)
        offsets = obs.face_offsets[:, None]
        gap = offsets - row_lo
        always = row_lo >= offsets - _SEPARATION_TOL
        never = row_hi < offsets - _SEPARATION_TOL
        vacuous = _tail_bound(pwl, gap, sigma) == 0.0
        settled = always & vacuous
        grouped = settled.any(axis=0)  # steps that one face settles
        # such a step keeps its first settling face and relaxes the others;
        # a face that cannot separate relaxes too, and its rows, vacuous
        # under z = 1, are skipped
        lower[z[never | grouped]] = upper[z[never | grouped]] = 1.0
        keep = settled & (settled.cumsum(axis=0) == 1)
        lower[z[keep]] = upper[z[keep]] = 0.0
        for t in np.flatnonzero(~grouped):
            for j in np.flatnonzero(~never[:, t]):
                a, b, zi = obs.face_normals[j], obs.face_offsets[j], z[j, t]
                if not always[j, t]:
                    # face kept (z = 0) forces the mean to its outer side
                    m_out = max(0.0, gap[j, t]) + 1.0
                    add_row([*cols.x[t], zi], [*a, m_out], GE, b)
                if vacuous[j, t]:
                    # the worst reachable margin already sits past the
                    # left end of every chord: delta >= 0 covers them
                    continue
                s = sigma[j, t]
                y_max = gap[j, t] / s
                for alpha, beta in zip(pwl.slopes, pwl.intercepts):
                    # delta >= alpha*(b - a@x)/s + beta unless relaxed
                    m_c = max(0.0, alpha * y_max + beta) + 1e-3
                    add_row(
                        [cols.delta[i, t], *cols.x[t], zi],
                        [1.0, *(alpha * a / s), m_c],
                        GE,
                        alpha * b / s + beta,
                    )
            # keep at least one face per obstacle and step
            add_row(z[:, t], 1.0, LE, float(obs.num_faces - 1))

    lp = LpProblem(
        objective=objective,
        lhs=np.array(rows),
        senses=tuple(senses),
        rhs=np.array(rhs),
        lower=lower,
        upper=upper,
    )
    return MilpProblem(lp=lp, binary=tuple(binary)), cols


@dataclass(frozen=True, eq=False)
class ControlPlan:
    """Open-loop control sequence, (N, m)."""

    controls: np.ndarray


def _risk_terms(model: SmpcModel, sigmas, pwl: PwlCdf, path: np.ndarray):
    """Tightest per-face tail bound for each obstacle and step 2..N+1.

    Returns the (n_obs, N) bound matrix under the `_face_sigmas`
    deviations ``sigmas`` and a mask of (obstacle, step) pairs whose mean
    had no separating face at all; those entries carry probability one.
    """
    inside = np.zeros((len(model.obstacles), model.horizon), dtype=bool)
    terms = np.zeros(inside.shape)
    for i, (obs, sigma) in enumerate(zip(model.obstacles, sigmas)):
        margin = obs.face_normals @ path[1:].T - obs.face_offsets[:, None]  # (faces, N)
        separating = margin >= -_SEPARATION_TOL
        bound = _tail_bound(pwl, np.minimum(-margin, 0.0), sigma)
        inside[i] = ~separating.any(axis=0)
        terms[i] = np.where(inside[i], 1.0, bound.min(axis=0, where=separating, initial=np.inf))
    return terms, inside


class SmpcOracle(LagrangianOracle):
    """Multiplier oracle solving one mixed-binary program per query.

    The inner program is built on the first query and kept; only its
    objective weights on the risk terms change from one query to the
    next. Each answer is a function of the multiplier alone: every query
    writes its weights into the one program, over the only entries that
    differ, and HiGHS solves it from scratch with no warm start. Reported
    costs are recomputed from the extracted control sequence rather than
    read off the solver objective, so `evaluate` reproduces them exactly.
    """

    risk_is_upper_bound = True  # a union bound over chord majorants

    def __init__(self, model: SmpcModel, risk_bound: float, pwl: PwlCdf | None = None):
        self.model = model
        self.risk_bound = risk_bound
        self.pwl = pwl if pwl is not None else build_pwl_cdf()
        self._sigmas = _face_sigmas(model, propagate_covariance(model))
        self._program: tuple[MilpProblem, Columns] | None = None  # built on the first query

    def query(self, lam: float) -> PureCandidate:
        lam = check_multiplier(lam)
        if self._program is None:
            self._program = build_inner_milp(self.model, lam, self.pwl)
        problem, cols = self._program
        problem.lp.objective[cols.delta] = lam
        sol = solve_milp(problem)
        if sol.status == "suboptimal":
            raise SolverLimitError(
                f"inner problem at multiplier {lam:g} used its node budget of "
                f"{milp.MAX_NODES} nodes before proving a plan optimal"
            )
        if sol.status != "optimal":
            raise InfeasibleProblemError(
                f"inner problem ended {sol.status}: {diagnose_infeasible(self.model)}"
            )
        plan = ControlPlan(sol.x[cols.u])
        cost, inside = self._cost(plan.controls)
        if inside.any():
            i, t = np.argwhere(inside)[0]
            raise MixedControlError(
                f"solver returned a mean inside obstacle {i} at step {t + 2}"
            )
        return PureCandidate(plan, cost)

    def _cost(self, controls: np.ndarray) -> tuple[CostVector, np.ndarray]:
        """L1 effort and summed risk bound, plus `_risk_terms`'s inside mask."""
        path = mean_path(self.model, controls)
        terms, inside = _risk_terms(self.model, self._sigmas, self.pwl, path)
        return CostVector(np.abs(controls).sum(), terms.sum()), inside

    def evaluate(self, policy: object) -> CostVector:
        if not isinstance(policy, ControlPlan):
            raise InvalidInputError("expected a control plan")
        return self._cost(policy.controls)[0]

    def save(self, policy: ControlPlan, stem: str, out_dir: Path) -> str:
        """Write ``plan_<stem>.csv`` into ``out_dir`` and return its name."""
        name = f"plan_{stem}.csv"
        lines = [",".join(f"u{j}" for j in range(policy.controls.shape[1]))]
        lines += [",".join(repr(float(v)) for v in row) for row in policy.controls]
        (out_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return name

    def load(self, ref: object, out_dir: Path) -> ControlPlan:
        """Read back the control plan that `save` named ``ref``."""
        path, lines = read_component(ref, out_dir)
        if not lines or lines[0] != ",".join(f"u{j}" for j in range(self.model.dim_u)):
            raise InvalidInputError(f"{path} is not a control plan table")
        try:
            controls = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        except ValueError as exc:
            raise InvalidInputError(f"{path} is not a control plan table") from exc
        expected = (self.model.horizon, self.model.dim_u)
        if controls.shape != expected:
            raise InvalidInputError(f"{path} has shape {controls.shape}, expected {expected}")
        if not np.isfinite(controls).all():
            raise InvalidInputError(f"{path} holds a control that is not a finite number")
        lo, hi = self.model.u_lower, self.model.u_upper
        outside = (controls < lo - _BOX_SLACK) | (controls > hi + _BOX_SLACK)
        if outside.any():
            k, j = np.argwhere(outside)[0]
            raise InvalidInputError(
                f"{path} sets u{j} = {float(controls[k, j])!r} at step {k}, outside "
                f"[u_lower, u_upper] = [{float(lo[j])!r}, {float(hi[j])!r}]"
            )
        return ControlPlan(controls)


def diagnose_infeasible(model: SmpcModel) -> str:
    """Distinguish an unreachable goal from unsatisfiable obstacle constraints."""
    big_n, n = model.horizon, model.dim_x
    (u, x, miss), num = _blocks((big_n, model.dim_u), (big_n, n), (n,))
    rows, rhs = _dynamics_rows(model, u, x, num)
    # miss slacks: x_{N+1} - goal <= miss and goal - x_{N+1} <= miss
    bound = np.zeros((n, 2, num))
    for d in range(n):
        bound[d, :, x[-1, d]] = [1.0, -1.0]
        bound[d, :, miss[d]] = -1.0
    objective = np.zeros(num)
    objective[miss] = 1.0
    lower = np.full(num, -np.inf)
    upper = np.full(num, np.inf)
    lower[u] = model.u_lower
    upper[u] = model.u_upper
    lower[miss] = 0.0
    sol = solve_lp(
        LpProblem(
            objective=objective,
            lhs=np.vstack([rows, bound.reshape(2 * n, num)]),
            senses=(EQ,) * len(rhs) + (LE,) * (2 * n),
            rhs=np.concatenate([rhs, np.outer(model.x_goal, [1.0, -1.0]).ravel()]),
            lower=lower,
            upper=upper,
        )
    )
    if sol.status == "optimal" and sol.objective > 1e-6:
        return (
            f"terminal stage {big_n} cannot reach the goal, "
            f"best L1 miss {sol.objective:.6g}"
        )
    return "goal reachable but obstacle constraints cannot all be met"


def _noise_sqrt(sigma: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(sigma)
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


class _Scratch(NamedTuple):
    """One worker's arrays, flat and sized for ``_MC_BLOCK`` rollouts.

    ``_block_failures`` writes every block into the same arrays, taking
    views of their first ``size`` rollouts for a shorter last block.
    """

    draws: np.ndarray  # the step's normals, (rollouts, dim_x)
    state: np.ndarray  # one state column per rollout, (dim_x, rollouts)
    spare: np.ndarray  # the next state, then the step's noise
    products: np.ndarray  # one obstacle's face products, (faces, rollouts)
    tests: np.ndarray  # which of them lie outside a face
    outside: np.ndarray  # outside some face of the obstacle, per rollout
    safe: np.ndarray  # in no obstacle so far, per rollout


def _block_bytes(model: SmpcModel) -> int:
    """Bytes of one worker's ``_Scratch``, all the arrays it holds.

    Three float (dim_x, block) arrays, the float products and bool tests
    of the obstacle with the most faces, and two bool rows.
    """
    faces = max((obs.num_faces for obs in model.obstacles), default=0)
    return _MC_BLOCK * (8 * (3 * model.dim_x + faces) + faces + 2)


def _scratch(model: SmpcModel) -> _Scratch:
    faces = max((obs.num_faces for obs in model.obstacles), default=0)
    floats = _MC_BLOCK * model.dim_x
    return _Scratch(
        draws=np.empty(floats),
        state=np.empty(floats),
        spare=np.empty(floats),
        products=np.empty(_MC_BLOCK * faces),
        tests=np.empty(_MC_BLOCK * faces, dtype=bool),
        outside=np.empty(_MC_BLOCK, dtype=bool),
        safe=np.empty(_MC_BLOCK, dtype=bool),
    )


def _block_failures(
    model: SmpcModel, root: np.ndarray, controls: np.ndarray, seed: int, index: int,
    size: int, scratch: _Scratch,
) -> int:
    """Number of rollouts in block ``index`` of one control sequence that enter an obstacle.

    The block has ``size`` rollouts and draws from child ``index`` of
    ``SeedSequence(seed)``. The state is held with one column per
    rollout, so each obstacle's face test is one (faces, rollouts)
    product: a rollout is inside when it is on the inner side of every
    face. Every array is a view into the worker's ``scratch``, and each
    step forms ``A x + B u + root z^T`` in that order of operations, so
    the count does not depend on which arrays are reused.
    """
    n = model.dim_x
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    draws = scratch.draws[: n * size].reshape(size, n)
    x = scratch.state[: n * size].reshape(n, size)
    spare = scratch.spare[: n * size].reshape(n, size)
    outside, safe = scratch.outside[:size], scratch.safe[:size]
    x[...] = model.x_init[:, None]
    safe.fill(True)
    for k in range(model.horizon):
        rng.standard_normal(out=draws)  # the stream of standard_normal((size, n))
        np.matmul(model.a_mat, x, out=spare)
        spare += (model.b_mat @ controls[k])[:, None]
        x, spare = spare, x  # the old state's array takes the noise
        np.matmul(root, draws.T, out=spare)
        x += spare
        for obs in model.obstacles:
            faces = obs.num_faces
            products = scratch.products[: faces * size].reshape(faces, size)
            tests = scratch.tests[: faces * size].reshape(faces, size)
            np.matmul(obs.face_normals, x, out=products)
            np.greater(products, obs.face_offsets[:, None], out=tests)
            np.logical_or.reduce(tests, axis=0, out=outside)
            safe &= outside
    return size - int(np.count_nonzero(safe))


def _schedule(jobs):
    """Lazy (controls, size, seed, block index) for each block of each job."""
    for controls, n_rollouts, seed in jobs:
        for index, start in enumerate(range(0, n_rollouts, _MC_BLOCK)):
            yield controls, min(_MC_BLOCK, n_rollouts - start), seed, index


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _count_failures(model: SmpcModel, jobs: list[tuple[np.ndarray, int, int]]) -> int:
    """Failed rollouts over ``(controls, n_rollouts, seed)`` jobs, on every usable core.

    Each job is cut into blocks of ``_MC_BLOCK`` rollouts, and each block
    has its own seed, so the count depends on neither the number of
    workers nor which of them runs a block. The calling thread and a pool
    opened for this call take the blocks of one schedule in turn, each
    the next block as soon as it is free, so a worker slowed by a busy
    core takes fewer. Each worker allocates one ``_Scratch`` for the call
    and runs all its blocks in it. There are no more workers than usable
    cores, nor more than ``_MC_MEMORY`` holds one scratch each for. The
    schedule is walked lazily: at most one block per worker is in flight
    whatever the rollout count, and a block that raises stops the other
    workers at their next block.
    """
    root = _noise_sqrt(model.sigma_w)
    jobs = [(np.asarray(controls, dtype=float), n, seed) for controls, n, seed in jobs]
    blocks = sum(-(-n // _MC_BLOCK) for _, n, _ in jobs)
    fits = _MC_MEMORY // _block_bytes(model)
    workers = max(1, min(_usable_cores(), blocks, fits))
    schedule = _schedule(jobs)
    taking = threading.Lock()  # a generator must not be advanced by two threads at once
    stop = threading.Event()

    def work() -> int:
        failures = 0
        try:
            scratch = _scratch(model)
            while not stop.is_set():
                with taking:
                    block = next(schedule, None)
                if block is None:
                    break
                controls, size, seed, index = block
                failures += _block_failures(model, root, controls, seed, index, size, scratch)
        except BaseException:
            stop.set()
            raise
        return failures

    if workers <= 1:
        return work()
    with ThreadPoolExecutor(workers - 1) as pool:
        try:
            others = [pool.submit(work) for _ in range(workers - 1)]
            return work() + sum(f.result() for f in others)
        finally:
            stop.set()  # lets the pool close at once if the caller was interrupted


def estimate_mixture_risk_mc(
    model: SmpcModel,
    solution: MixedSolution,
    n_rollouts: int,
    seed: int,
) -> MonteCarloCheck:
    """Collisions and mean effort in ``n_rollouts`` sampled rollouts of a mixed strategy.

    `split_rollouts` splits the rollouts among the components, and each
    component with rollouts then takes its own seed from the same stream;
    the blocks of all components share one schedule. Plans are open-loop,
    so a rollout costs its plan's effort.
    """
    rng, counts = split_rollouts(solution, seed, n_rollouts)
    jobs = [
        (cand.policy.controls, int(cnt), int(rng.integers(2**63)))
        for (cand, _), cnt in zip(solution.components, counts)
        if cnt > 0
    ]
    failures = _count_failures(model, jobs)
    efforts = np.array([cand.cost.c0 for cand, _ in solution.components])
    return MonteCarloCheck(n_rollouts, failures, float(counts @ efforts / n_rollouts))
