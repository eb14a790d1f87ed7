"""Linear-Gaussian model predictive control with obstacle chance constraints.

The plant is x_{k+1} = A x_k + B u_k + w_k with known Gaussian noise and a
deterministic start, so the state mean is affine in the controls and the
covariance follows a fixed recursion. Obstacles are convex polytopes; a
trajectory fails if any step lands inside one. The per-step, per-obstacle
collision probability is over-approximated by (1) picking one separating
face per obstacle and step via binaries, (2) bounding the Gaussian tail
across that face with a piecewise-linear majorant of the normal CDF, and
(3) summing the pieces with a union bound. That makes the multiplier
oracle one mixed-binary linear program per query, built and solved from
scratch by HiGHS (`milp.solve_milp`), so each answer depends on the
multiplier alone. A program that runs out of its node budget raises
SolverLimitError; only a program with no feasible point is reported as
infeasible.

Control effort is the L1 norm of the input sequence, linearized with the
usual pair of slack inequalities per entry.

A saved mixture component is a ``plan_<stem>.csv`` table: a
``u0,...,u{m-1}`` header, then one row of controls per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from .core import (
    Bounds,
    CostVector,
    DualVector,
    InfeasibleProblemError,
    InvalidInputError,
    LagrangianOracle,
    MixedControlError,
    MixedSolution,
    PureCandidate,
    SolverLimitError,
    read_component,
    wilson_ci_99,
)
from .lpsolve import EQ, GE, LE, LpProblem, solve_lp
from .milp import MilpProblem, solve_milp

# below this the face distance in standard deviations is treated as exact
_SIGMA_FLOOR = 1e-12
# objective weight on risk terms when the multiplier is zero, keeps the
# inner solve deterministic instead of leaving risk ties to pivot order
_RISK_WEIGHT_FLOOR = 1e-9
# absolute optimality gap at which HiGHS stops each inner program
MILP_GAP = 1e-9
# Monte Carlo rollouts simulated per block. The block size decides which
# normal draw goes to which rollout, so changing it changes every estimate.
_MC_CHUNK = 100_000


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
        n = self.a_mat.shape[0]
        if self.a_mat.shape != (n, n):
            raise InvalidInputError("state matrix must be square")
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
    """Chord majorant of the standard normal CDF on [y_min, 0], floored at zero.

    The CDF is convex left of zero, so chords between grid points lie on
    or above it there; evaluating the max of the chords gives a
    conservative tail probability for any separating-face margin in the
    covered range.
    """

    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]
    y_min: float

    def value(self, y: float) -> float:
        best = max(a * y + b for a, b in zip(self.slopes, self.intercepts))
        return max(0.0, best)


def build_pwl_cdf(n_segments: int = 24, y_min: float = -6.0) -> PwlCdf:
    if n_segments < 1 or y_min >= 0.0:
        raise InvalidInputError("need at least one segment over a negative range")
    ys = np.linspace(y_min, 0.0, n_segments + 1)
    ps = ndtr(ys)
    slopes = (ps[1:] - ps[:-1]) / (ys[1:] - ys[:-1])
    intercepts = ps[:-1] - slopes * ys[:-1]
    return PwlCdf(tuple(slopes), tuple(intercepts), float(y_min))


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
    lo = model.x_init.copy()
    hi = model.x_init.copy()
    out = []
    for _ in range(model.horizon):
        alo, ahi = _interval_matvec(model.a_mat, lo, hi)
        blo, bhi = _interval_matvec(model.b_mat, model.u_lower, model.u_upper)
        lo, hi = alo + blo, ahi + bhi
        out.append([lo, hi])
    if np.array_equal(model.a_mat, np.eye(model.dim_x)):
        blo, bhi = _interval_matvec(model.b_mat, model.u_lower, model.u_upper)
        back_lo = model.x_goal.copy()
        back_hi = model.x_goal.copy()
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

    covs = propagate_covariance(model)
    ranges = _mean_ranges(model)
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
    z_fix: dict[int, float] = {}
    for i, obs in enumerate(model.obstacles):
        for t in range(big_n):
            lo_t, hi_t = ranges[t]
            cov = covs[t + 1]
            zcols = cols.z[i][:, t]
            faces = []
            certificate = None
            for j in range(obs.num_faces):
                a = obs.face_normals[j]
                b = float(obs.face_offsets[j])
                s = math.sqrt(max(float(a @ cov @ a), 0.0))
                row_lo, row_hi = (float(r) for r in _interval_matvec(a, lo_t, hi_t))
                always = row_lo >= b - 1e-9
                never = row_hi < b - 1e-9
                vacuous = s <= _SIGMA_FLOOR or pwl.value((b - row_lo) / s) == 0.0
                if always and vacuous and certificate is None:
                    certificate = j
                faces.append((j, a, b, s, row_lo, always, never, vacuous))
            if certificate is not None:
                for j, zi in enumerate(zcols):
                    z_fix[zi] = 0.0 if j == certificate else 1.0
                continue
            for j, a, b, s, row_lo, always, never, vacuous in faces:
                zi = zcols[j]
                if never:
                    z_fix[zi] = 1.0  # cannot separate; its rows relax
                    continue  # to vacuity under z = 1, so skip them
                if not always:
                    # face kept (z = 0) forces the mean to its outer side
                    m_out = max(0.0, b - row_lo) + 1.0
                    add_row([*cols.x[t], zi], [*a, m_out], GE, b)
                if vacuous:
                    # the worst reachable margin already sits past the
                    # left end of every chord: delta >= 0 covers them
                    continue
                y_max = (b - row_lo) / s
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
            add_row(zcols, 1.0, LE, float(obs.num_faces - 1))

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
    for zi, val in z_fix.items():
        lower[zi] = upper[zi] = val

    lp = LpProblem(
        objective=objective,
        lhs=np.array(rows) if rows else np.zeros((0, num_cols)),
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


def _risk_terms(model: SmpcModel, covs, pwl: PwlCdf, path: np.ndarray):
    """Tightest per-face tail bound for each obstacle and step 2..N+1.

    Returns the (n_obs, N) bound matrix and a mask of (obstacle, step)
    pairs whose mean had no separating face at all; those entries carry
    probability one.
    """
    n_obs, big_n = len(model.obstacles), model.horizon
    terms = np.zeros((n_obs, big_n))
    inside = np.zeros((n_obs, big_n), dtype=bool)
    for i, obs in enumerate(model.obstacles):
        for t in range(big_n):
            x = path[t + 1]
            cov = covs[t + 1]
            best = None
            for j in range(obs.num_faces):
                a = obs.face_normals[j]
                b = float(obs.face_offsets[j])
                margin = float(a @ x) - b
                if margin < -1e-9:
                    continue
                s = math.sqrt(max(float(a @ cov @ a), 0.0))
                if s <= _SIGMA_FLOOR:
                    val = 0.0
                else:
                    val = pwl.value(min(-margin, 0.0) / s)
                best = val if best is None else min(best, val)
            if best is None:
                inside[i, t] = True
                terms[i, t] = 1.0
            else:
                terms[i, t] = best
    return terms, inside


class SmpcOracle(LagrangianOracle):
    """Multiplier oracle solving one mixed-binary program per query.

    Each answer is a function of the multiplier alone: every query solves
    its program from scratch. Reported costs are recomputed from the
    extracted control sequence rather than read off the solver objective,
    so `evaluate` reproduces them exactly.
    """

    risk_is_upper_bound = True  # a union bound over chord majorants

    def __init__(
        self, model: SmpcModel, bounds: Bounds, pwl: PwlCdf | None = None, max_nodes: int = 200_000
    ):
        self.model = model
        self.bounds = bounds
        self.pwl = pwl if pwl is not None else build_pwl_cdf()
        self.max_nodes = max_nodes
        self._covs = propagate_covariance(model)

    def query(self, lam: DualVector) -> PureCandidate:
        if lam.k != 1:
            raise InvalidInputError("this oracle has a single risk channel")
        weight = max(lam.values[0], _RISK_WEIGHT_FLOOR)
        problem, cols = build_inner_milp(self.model, weight, self.pwl)
        sol = solve_milp(problem, abs_gap=MILP_GAP, max_nodes=self.max_nodes)
        if sol.status == "suboptimal":
            raise SolverLimitError(
                f"inner problem at multiplier {lam.values[0]:g} used its node budget "
                f"(max_nodes={self.max_nodes}) before proving a plan optimal"
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
        terms, inside = _risk_terms(self.model, self._covs, self.pwl, path)
        return CostVector(float(np.abs(controls).sum()), (float(terms.sum()),)), inside

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


@dataclass(frozen=True)
class RiskEstimate:
    rate: float
    ci99: tuple[float, float]
    n_rollouts: int


def _noise_sqrt(sigma: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(sigma)
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def _count_failures(
    model: SmpcModel, controls: np.ndarray, n_rollouts: int, seed: int
) -> int:
    """Number of rollouts of one control sequence that enter an obstacle.

    The state is held with one column per rollout, so each obstacle's
    face test is one (faces, rollouts) product: a rollout is inside when
    it is on the inner side of every face.
    """
    rng = np.random.default_rng(seed)
    root = _noise_sqrt(model.sigma_w)
    controls = np.asarray(controls, dtype=float)
    failures = 0
    for done in range(0, n_rollouts, _MC_CHUNK):
        size = min(_MC_CHUNK, n_rollouts - done)
        x = np.repeat(model.x_init[:, None], size, axis=1)
        failed = np.zeros(size, dtype=bool)
        for k in range(model.horizon):
            z = rng.standard_normal((size, model.dim_x))
            x = model.a_mat @ x
            x += (model.b_mat @ controls[k])[:, None]
            x += root @ z.T
            for obs in model.obstacles:
                outside = obs.face_normals @ x > obs.face_offsets[:, None]
                failed |= ~np.logical_or.reduce(outside, axis=0)
        failures += int(np.count_nonzero(failed))
    return failures


def _estimate(failures: int, n_rollouts: int) -> RiskEstimate:
    lo, hi = wilson_ci_99(failures, n_rollouts)
    return RiskEstimate(failures / n_rollouts, (lo, hi), n_rollouts)


def estimate_risk_mc(
    model: SmpcModel, controls: np.ndarray, n_rollouts: int, seed: int
) -> RiskEstimate:
    """Empirical collision probability of one control sequence."""
    if n_rollouts < 1:
        raise InvalidInputError("need at least one rollout")
    return _estimate(_count_failures(model, controls, n_rollouts, seed), n_rollouts)


def estimate_mixture_risk_mc(
    model: SmpcModel,
    solution: MixedSolution,
    n_rollouts: int,
    seed: int,
) -> RiskEstimate:
    """Empirical collision probability of a mixed strategy over plans."""
    rng = np.random.default_rng(seed)
    probs = np.array(solution.probabilities)
    counts = rng.multinomial(n_rollouts, probs / probs.sum())
    failures = 0
    for (cand, _), cnt in zip(solution.components, counts):
        if cnt == 0:
            continue
        failures += _count_failures(
            model, cand.policy.controls, int(cnt), int(rng.integers(2**63))
        )
    return _estimate(failures, n_rollouts)
