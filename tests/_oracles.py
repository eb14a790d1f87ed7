"""Brute-force reference solvers used only by the test suite.

These deliberately avoid the production code paths: LPs are solved by
enumerating basis vertices, mixed-binary programs by enumerating binary
assignments, and the K=1 dual and mixture optima come from exact
envelopes and hulls, so agreement with the package solvers is meaningful.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import scipy.sparse as sp

from mixedctrl.milp import LpProblem


def _vertex_candidates(problem: LpProblem):
    """Rows, then each variable's finite lower and upper bound, as planes."""
    eye = np.eye(problem.num_vars)
    bounds = [
        (eye[j], value)
        for j in range(problem.num_vars)
        for value in (problem.lower[j], problem.upper[j])
        if np.isfinite(value)
    ]
    normals = np.vstack([problem.lhs] + [e for e, _ in bounds])
    offsets = np.concatenate([problem.rhs, [value for _, value in bounds]])
    must_active = [i for i, s in enumerate(problem.senses) if s == "="]
    return normals, offsets, must_active


def brute_lp_solve(problem: LpProblem, tol: float = 1e-7):
    """Enumerate candidate vertices of a bounded LP.

    Only meaningful for problems whose optimum sits at a vertex (bounded
    feasible sets). Every choice of n candidate planes (rows and finite
    bounds, always including the equality rows) is solved in one batched
    call; a choice whose LU factorization meets an exact zero pivot (zero
    determinant) has no vertex. Returns (status, objective, x).
    """
    n = problem.num_vars
    normals, offsets, must_active = _vertex_candidates(problem)
    # every choice holds all equality rows: pick only the rest, then sort
    # back into the lexicographic order of all n-subsets
    free = [i for i in range(len(offsets)) if i not in must_active]
    r = n - len(must_active)
    picks = list(combinations(free, r)) if r >= 0 else []
    picks = np.array(picks, dtype=int).reshape(len(picks), max(r, 0))
    held = np.broadcast_to(np.array(must_active, dtype=int), (len(picks), len(must_active)))
    combos = np.sort(np.hstack([held, picks]), axis=1).reshape(-1, n)
    combos = combos[np.lexsort(combos.T[::-1])]
    a, b = normals[combos], offsets[combos]
    nonsingular = np.linalg.det(a) != 0.0
    a, b = a[nonsingular], b[nonsingular]
    x = np.linalg.solve(a, b[..., None])[..., 0]
    ok = np.all(np.isfinite(x), axis=1)
    ok &= np.all(np.abs(np.einsum("kij,kj->ki", a, x) - b) <= 1e-8 + 1e-5 * np.abs(b), axis=1)
    lhs = x @ problem.lhs.T
    senses = np.array(problem.senses, dtype=object)
    ok &= np.all(np.where(senses == "<=", lhs <= problem.rhs + tol, True), axis=1)
    ok &= np.all(np.where(senses == ">=", lhs >= problem.rhs - tol, True), axis=1)
    ok &= np.all(np.where(senses == "=", np.abs(lhs - problem.rhs) <= tol, True), axis=1)
    ok &= np.all((x >= problem.lower - tol) & (x <= problem.upper + tol), axis=1)

    best_obj = None
    best_x = None
    for xk in x[ok]:
        obj = float(problem.objective @ xk)
        if best_obj is None or obj < best_obj - 1e-12:
            best_obj = obj
            best_x = xk
    if best_obj is None:
        return "infeasible", None, None
    return "optimal", best_obj, best_x


def brute_milp_solve(lp: LpProblem, binary: tuple[int, ...], tol: float = 1e-7):
    """Try every binary assignment, solving the continuous rest by vertices.

    Fixed binaries are substituted out first so the vertex enumeration only
    runs over the continuous variables.
    """
    best_obj = None
    best_x = None
    bins = list(binary)
    cont = [j for j in range(lp.num_vars) if j not in set(bins)]
    for assignment in product((0.0, 1.0), repeat=len(bins)):
        vals = np.array(assignment)
        if np.any(vals < lp.lower[bins] - tol) or np.any(vals > lp.upper[bins] + tol):
            continue
        fixed_part = lp.lhs[:, bins] @ vals
        obj_const = float(lp.objective[bins] @ vals)
        if cont:
            sub = LpProblem(
                objective=lp.objective[cont],
                lhs=lp.lhs[:, cont],
                senses=lp.senses,
                rhs=lp.rhs - fixed_part,
                lower=lp.lower[cont],
                upper=lp.upper[cont],
            )
            status, obj, xc = brute_lp_solve(sub, tol=tol)
            if status != "optimal":
                continue
            obj = obj + obj_const
            x = np.zeros(lp.num_vars)
            x[bins] = vals
            x[cont] = xc
        else:
            lhs_val = fixed_part
            ok = True
            for i, s in enumerate(lp.senses):
                r = lp.rhs[i]
                if s == "<=" and lhs_val[i] > r + tol:
                    ok = False
                if s == ">=" and lhs_val[i] < r - tol:
                    ok = False
                if s == "=" and abs(lhs_val[i] - r) > tol:
                    ok = False
            if not ok:
                continue
            obj = obj_const
            x = np.zeros(lp.num_vars)
            x[bins] = vals
        if best_obj is None or obj < best_obj - 1e-12:
            best_obj = obj
            best_x = x
    if best_obj is None:
        return "infeasible", None, None
    return "optimal", best_obj, best_x


def random_box_lp(rng: np.random.Generator, nvar: int = 4, nrow: int = 5) -> LpProblem:
    """Random bounded-feasible LP: box bounds plus rows satisfied by an interior point."""
    lhs = rng.integers(-4, 5, size=(nrow, nvar)).astype(float)
    x0 = rng.uniform(0.5, 2.5, size=nvar)
    slack = rng.uniform(0.3, 2.0, size=nrow)
    rhs = lhs @ x0 + slack
    objective = rng.integers(-5, 6, size=nvar).astype(float)
    if rng.random() >= 0.5:
        objective = -objective  # the maximization of the objective as drawn
    return LpProblem(
        objective=objective,
        lhs=lhs,
        senses=("<=",) * nrow,
        rhs=rhs,
        lower=np.zeros(nvar),
        upper=np.full(nvar, 3.0),
    )


def random_milp(rng: np.random.Generator, nbin: int = 5, ncont: int = 3, nrow: int = 5):
    """Random bounded mixed-binary program plus its binary index tuple."""
    nvar = nbin + ncont
    lp = random_box_lp(rng, nvar=nvar, nrow=nrow)
    upper = np.where(np.arange(nvar) < nbin, 1.0, lp.upper)
    # re-center rows so the all-half binary point plus interior rest stays feasible
    x0 = np.concatenate([np.full(nbin, 0.5), rng.uniform(0.5, 2.5, size=ncont)])
    rhs = lp.lhs @ x0 + rng.uniform(0.5, 2.5, size=nrow)
    return replace(lp, upper=upper, rhs=rhs), tuple(range(nbin))


def _crosses_before(a, b, c) -> bool:
    """For lines a, b, c of strictly falling slope: c meets a no later than b does.

    Lines are exact (slope, intercept) pairs; cross-multiplying keeps the
    comparison exact.
    """
    return (c[1] - a[1]) * (a[0] - b[0]) <= (b[1] - a[1]) * (a[0] - c[0])


def brute_scalar_dual(costs, v: float):
    """Exact dual optimum for a finite K=1 candidate set.

    The dual function q(lam) = min c0 + lam * (c1 - v) is the lower
    envelope of one line per candidate: concave and piecewise linear, so
    its maximum over lam >= 0 sits at zero or at a breakpoint of the
    envelope. The envelope comes from sorting the lines by slope and
    keeping each line that beats its neighbours somewhere, O(n log n), in
    exact rational arithmetic. Returns (q*, lam*) with the smallest
    maximizing lam*, or (inf, inf) when every candidate is above v.
    """
    lines = sorted(
        {(Fraction(c.c1) - Fraction(v), Fraction(c.c0)) for c in costs},
        key=lambda line: (-line[0], line[1]),
    )
    hull = []  # envelope lines in order of growing lam, so falling slope
    for line in lines:
        if hull and hull[-1][0] == line[0]:
            continue  # same slope, higher intercept: never below
        while len(hull) >= 2 and _crosses_before(hull[-2], hull[-1], line):
            hull.pop()
        hull.append(line)
    if hull[-1][0] > 0:
        return math.inf, math.inf
    best_q, best_lam = min(b for _, b in hull), Fraction(0)
    for a, b in zip(hull, hull[1:]):
        lam = (b[1] - a[1]) / (a[0] - b[0])
        q = a[1] + lam * a[0]
        if lam > 0 and q > best_q:
            best_q, best_lam = q, lam
    return float(best_q), float(best_lam)


def brute_pure_best(costs, v: float):
    """Cheapest candidate meeting the bound, or None when none does."""
    feasible = [c.c0 for c in costs if c.c1 <= v]
    return min(feasible) if feasible else None


def brute_mixed_lp(costs, v: float):
    """Optimal mixture cost over all candidates, or None when none meets v.

    The mixtures of the candidates reach exactly the convex hull of their
    (c1, c0) points, so the cheapest mixture with risk at most v lies on
    the lower hull: at v while the hull still falls there, else at the
    cheapest point. The lower hull is a monotone chain in exact rational
    arithmetic, so no LP solver is involved.
    """
    points = sorted({(Fraction(c.c1), Fraction(c.c0)) for c in costs})
    v = Fraction(v)
    if v < points[0][0]:
        return None
    hull = []
    for p in points:
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
            <= (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(p)
    cheapest = min(hull, key=lambda p: (p[1], p[0]))
    if v >= cheapest[0]:
        return float(cheapest[1])
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        if x0 <= v <= x1:
            return float(y0 + (y1 - y0) * (v - x0) / (x1 - x0))
    raise AssertionError("v lies left of the cheapest hull point, so a segment holds it")


def random_tiny_mdp(rng: np.random.Generator, max_policies: int = 1500):
    """Random small MDP whose full policy set stays enumerable.

    Every state-action pair is admissible and at least one state per
    step stays alive, so the instance always has evaluable policies.
    Pair (x, a) moves by row a * states + x of the stacked transition rows.
    """
    from mixedctrl.ccmdp import Mdp, ShiftSpread

    while True:
        t = int(rng.integers(1, 4))
        counts = tuple(int(rng.integers(2, 4)) for _ in range(t + 1))
        n_actions = [int(rng.integers(1, 4)) for _ in range(t)]
        masks = []
        for k, n in enumerate(counts):
            mask = rng.random(n) < (0.0 if k == 0 else 0.3)
            if mask.all():
                mask[int(rng.integers(0, n))] = False
            masks.append(mask)
        total = 1
        for k in range(t):
            total *= n_actions[k] ** int((~masks[k]).sum())
        if total <= max_policies:
            break
    dynamics = []
    stage_costs = []
    for k in range(t):
        n_k, n_next, a_k = counts[k], counts[k + 1], n_actions[k]
        rows = []
        for _ in range(a_k):
            raw = rng.random((n_k, n_next)) + 1e-3
            rows.append(raw / raw.sum(axis=1, keepdims=True))
        targets = n_k * np.arange(a_k) + np.arange(n_k)[:, None]
        dynamics.append(ShiftSpread(targets, np.vstack(rows)))
        stage_costs.append(rng.uniform(0.0, 10.0, size=(n_k, a_k)))
    init = rng.random(counts[0]) + 1e-3
    return Mdp(
        dynamics=tuple(dynamics),
        stage_costs=tuple(stage_costs),
        failure_masks=tuple(masks),
        initial=init / init.sum(),
    )


def enumerate_policies(mdp):
    """Every deterministic policy over the alive states."""
    from itertools import product as iproduct

    import numpy as np

    from mixedctrl.ccmdp import Policy

    per_step = []
    for k in range(mdp.horizon):
        alive = np.flatnonzero(~mdp.failure_masks[k])
        n_a = mdp.stage_costs[k].shape[1]
        choices = list(iproduct(range(n_a), repeat=alive.size))
        per_step.append((alive, choices))
    policies = []
    for combo in iproduct(*[choices for _, choices in per_step]):
        actions = []
        for k, (alive, _) in enumerate(per_step):
            act = np.full(mdp.state_counts[k], -1, dtype=np.int64)
            act[alive] = combo[k]
            actions.append(act)
        policies.append(Policy(tuple(actions)))
    return policies


def brute_policy_costs(mdp):
    """(policy, c0, c1) for every deterministic policy."""
    from mixedctrl.ccmdp import evaluate_policy

    out = []
    for pol in enumerate_policies(mdp):
        ev = evaluate_policy(mdp, pol)
        out.append((pol, ev.c0, ev.c1))
    return out


def path_moments(horizon: int, transitions: dict, costs: dict, failures, initial: dict, policy: dict):
    """Exact first-passage risk and cost moments of one policy, by listing every path.

    Takes the tables of ``mixedctrl.ccmdp.from_tables`` plus
    ``policy[(k, state)]``, the action label taken in ``state`` at step k,
    and walks each path from the initial distribution until it enters a
    failure state or reaches the horizon; a path pays the stage costs of
    the steps it took before failing. Returns (risk, E[cost], E[cost**2]).
    """
    risk = mean = square = 0.0
    paths = [(0, state, p, 0.0) for state, p in initial.items() if p > 0]
    while paths:
        k, state, p, cost = paths.pop()
        failed = state in failures[k]
        if failed or k == horizon:
            risk += p if failed else 0.0
            mean += p * cost
            square += p * cost * cost
            continue
        action = policy[(k, state)]
        step_cost = cost + costs[(k, state, action)]
        for nxt, q in transitions[(k, state, action)].items():
            if q > 0:
                paths.append((k + 1, nxt, p * q, step_cost))
    return risk, mean, square


def mc_failures_rowmajor(a_mat, b_mat, sigma_w, x_init, controls, obstacles, n_rollouts, seed):
    """Collision count of one control sequence, one rollout per row.

    A transcription of the straightforward sampler on raw arrays:
    ``obstacles`` is a list of (normals, offsets) pairs, and a rollout
    fails when some step puts it on the inner side of every face of one
    of them. It draws the same normals in the same order as
    ``mixedctrl.smpc`` (blocks of 2**15 rollouts, block i drawing from
    child i of ``SeedSequence(seed)``, one (block, dim_x) draw per step,
    noise root from the eigendecomposition of sigma_w), so the two counts
    agree exactly.
    """
    a_mat, b_mat = np.asarray(a_mat, dtype=float), np.asarray(b_mat, dtype=float)
    controls = np.asarray(controls, dtype=float)
    vals, vecs = np.linalg.eigh(np.asarray(sigma_w, dtype=float))
    root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
    block = 2**15
    children = np.random.SeedSequence(seed).spawn(-(-n_rollouts // block))
    failures = 0
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        size = min(block, n_rollouts - i * block)
        x = np.tile(np.asarray(x_init, dtype=float), (size, 1))
        failed = np.zeros(size, dtype=bool)
        for k in range(len(controls)):
            noise = rng.standard_normal((size, len(x_init))) @ root.T
            x = x @ a_mat.T + b_mat @ controls[k] + noise
            for normals, offsets in obstacles:
                failed |= np.all(x @ np.asarray(normals).T <= np.asarray(offsets), axis=-1)
        failures += int(failed.sum())
    return failures


def simulate_per_state(mdp, solution, seed: int, n_rollouts: int):
    """Failure count, total cost and generator of the per-state count sampler.

    A transcription of the straightforward MDP sampler: the same
    component split and initial draws as ``mixedctrl.ccmdp.simulate``,
    then, at each step, one ``multinomial`` call per occupied state on
    that state's spread row (read with ``ShiftSpread.row``) divided by
    its own sum. Stage costs are looked up at the state's row. Returns the
    generator too, so a caller can compare the state it is left in.
    """
    rng = np.random.default_rng(seed)
    probs = np.array(solution.probabilities)
    shares = rng.multinomial(n_rollouts, probs / probs.sum())
    failures, cost = 0, 0.0
    for (cand, _), m in zip(solution.components, shares):
        if m == 0:
            continue
        counts = rng.multinomial(int(m), mdp.initial)
        failures += int(counts[mdp.failure_masks[0]].sum())
        counts[mdp.failure_masks[0]] = 0
        part = 0.0  # this component's cost, added to the total once
        for k in range(mdp.horizon):
            occ = np.flatnonzero(counts)
            if occ.size == 0:
                break
            acts = cand.policy.actions[k][occ]
            own = mdp.dynamics[k].row_of[occ]  # each state's row of the step's tables
            part += float(counts[occ] @ mdp.stage_costs[k][own, acts])
            nxt = np.zeros(mdp.state_counts[k + 1], dtype=np.int64)
            for x, a in zip(occ.tolist(), acts.tolist()):
                idxs, pvals = mdp.dynamics[k].row(x, a)
                nxt[idxs] += rng.multinomial(counts[x], pvals / pvals.sum())
            fail = mdp.failure_masks[k + 1]
            failures += int(nxt[fail].sum())
            nxt[fail] = 0
            counts = nxt
        cost += part
    return failures, cost, rng


def policy_csv_per_row(actions) -> str:
    """The text of a policy table, written one row at a time."""
    lines = ["step,state,action"]
    for step, acts in enumerate(actions):
        for state in np.flatnonzero(acts >= 0):
            lines.append(f"{step},{int(state)},{int(acts[state])}")
    return "\n".join(lines) + "\n"


def read_policy_csv_per_row(mdp, text: str):
    """Per-step action arrays of a policy table, read one row at a time.

    Raises ``ValueError`` with the old loader's message on the first bad
    row; a repeated (step, state) keeps the last row.
    """
    lines = text.splitlines()
    actions = [np.full(count, -1, dtype=int) for count in mdp.state_counts[:-1]]
    if not lines or lines[0] != "step,state,action":
        raise ValueError("is not a policy table")
    for line in lines[1:]:
        try:
            step, state, action = (int(v) for v in line.split(","))
        except ValueError as exc:
            raise ValueError(f"has a bad row {line!r}") from exc
        if not 0 <= step < mdp.horizon or not 0 <= state < mdp.state_counts[step]:
            raise ValueError(f"references step {step}, state {state}")
        if not 0 <= action < mdp.stage_costs[step].shape[1]:
            raise ValueError(f"references action {action} at step {step}")
        actions[step][state] = action
    return actions


def ellipsoid_offsets_per_point(matrix, radius: float):
    """Integer offsets v with (v @ matrix) @ v <= radius**2 + 1e-12, one point at a time.

    Points run over dx, then dy, from -reach to reach, with reach from
    the smallest eigenvalue as in ``mixedctrl.scenarios.ellipsoid_offsets``.
    """
    mat = np.asarray(matrix, dtype=float)
    reach = int(math.ceil(radius / math.sqrt(np.linalg.eigvalsh(mat)[0])))
    out = []
    for dx in range(-reach, reach + 1):
        for dy in range(-reach, reach + 1):
            v = np.array([dx, dy], dtype=float)
            if v @ mat @ v <= radius * radius + 1e-12:
                out.append((dx, dy))
    return out


def shift_targets_per_offset(width: int, height: int, offsets):
    """(offsets, cells) flat index of each cell moved by each offset, -1 off the grid.

    One offset at a time, as the grid and landing builders once filled
    their target maps.
    """
    n = width * height
    xs, ys = np.divmod(np.arange(n), height)
    targets = np.full((len(offsets), n), -1, dtype=np.int64)
    for a, (dx, dy) in enumerate(offsets):
        tx, ty = xs + dx, ys + dy
        ok = (tx >= 0) & (tx < width) & (ty >= 0) & (ty < height)
        targets[a, ok] = tx[ok] * height + ty[ok]
    return targets


def shift_targets_broadcast(width: int, height: int, offsets):
    """(cells, offsets) flat index of each cell moved by each offset; -1 off the grid.

    Every cell against every offset in full (cells, offsets) arrays, as the
    grid and landing builders once made their target maps.
    """
    xs, ys = np.divmod(np.arange(width * height), height)
    off = np.asarray(offsets, dtype=np.int64).reshape(-1, 2)
    tx = xs[:, None] + off[:, 0]
    ty = ys[:, None] + off[:, 1]
    ok = (tx >= 0) & (tx < width) & (ty >= 0) & (ty < height)
    return np.where(ok, tx * height + ty, -1)


def clipped_spread_coo(width: int, height: int, offsets, weights):
    """Row-stochastic disturbance matrix; mass pushed off-grid piles on the edge.

    Every cell against every offset, clipped into the grid, as one COO
    matrix that scipy sorts and sums into CSR: the construction the grid
    and landing builders once used, kept as the bitwise reference.
    """
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


def product_kernel_pairs(sigma_x: float, sigma_y: float):
    """Offsets (dx outer, dy inner) and weights of the separable Gaussian kernel.

    Each 1-D kernel runs from -r to r with r = max(1, ceil(3 sigma)) and is
    normalised by its own sum; sigma 0 is the single offset 0.
    """
    def one(sigma):
        if sigma == 0:
            return np.array([0]), np.array([1.0])
        radius = max(1, math.ceil(3.0 * sigma))
        off = np.arange(-radius, radius + 1)
        w = np.exp(-0.5 * (off / sigma) ** 2)
        return off, w / w.sum()

    ox, wx = one(sigma_x)
    oy, wy = one(sigma_y)
    offs = np.array([(a, b) for a in ox for b in oy], dtype=np.int64)
    return offs, np.outer(wx, wy).ravel()


def bfs_distance_deque(feasible, source):
    """Four-neighbour walk distance from ``source`` over feasible cells, inf elsewhere.

    One cell at a time from a FIFO queue.
    """
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


def grid_tables_reference(feasible, goal, horizon: int, max_step: int, sigma: float):
    """Targets (cells, actions), spread, and the stage and last-step costs of a grid.

    Made as the grid builder once made them: broadcast targets, the COO
    spread with the goal's parking row stacked under it, and costs from
    masked ``np.where`` calls. Actions are the displacements of length at
    most ``max_step``, dx outer, dy inner.
    """
    w, h = feasible.shape
    n = w * h
    goal_idx = goal[0] * h + goal[1]
    d = max_step
    span = range(-d, d + 1)
    actions = [(dx, dy) for dx in span for dy in span if dx * dx + dy * dy <= d * d]
    lengths = np.array([math.hypot(dx, dy) for dx, dy in actions])
    pairs = shift_targets_broadcast(w, h, actions)
    spread = clipped_spread_coo(w, h, *product_kernel_pairs(sigma, sigma))
    park = sp.csr_matrix(
        (np.ones(1), (np.zeros(1, dtype=int), np.array([goal_idx]))), shape=(1, n)
    )
    spread = sp.vstack([spread, park]).tocsr()
    pairs[goal_idx] = -1
    pairs[goal_idx, actions.index((0, 0))] = n
    base = np.where(pairs >= 0, lengths[None, :], np.inf)
    goal_mass = spread[:, goal_idx].toarray().ravel()
    crash_mass = spread @ (~feasible.ravel()).astype(float)
    miss = np.clip(1.0 - goal_mass - crash_mass, 0.0, 1.0)
    safe_t = np.where(pairs >= 0, pairs, 0)
    last = base + 10.0 * horizon * max_step * np.where(pairs >= 0, miss[safe_t], 0.0)
    return pairs, spread, base, last


def edl_tables_reference(feasible, sites, ellipsoids, sigmas):
    """Per stage, targets (cells, actions), spread and stage cost of a landing map.

    Made as the landing builder once made them, with a deque BFS from each
    science site and the per-point ellipsoid offsets.
    """
    w, h = feasible.shape
    (ax, ay), (bx, by) = sites
    da = bfs_distance_deque(feasible, (ax, ay))
    db = bfs_distance_deque(feasible, (bx, by))
    trav = np.minimum(da, db) + da[bx, by]
    landed_cost = np.where(feasible, np.where(np.isfinite(trav), trav, 4.0 * w * h), 0.0)
    stages = []
    for k, ((matrix, radius), sig) in enumerate(zip(ellipsoids, sigmas)):
        pairs = shift_targets_broadcast(w, h, ellipsoid_offsets_per_point(matrix, radius))
        spread = clipped_spread_coo(w, h, *product_kernel_pairs(*sig))
        admissible = pairs >= 0
        if k < len(ellipsoids) - 1:
            cost = np.where(admissible, 0.0, np.inf)
        else:
            expected = spread @ landed_cost.ravel()
            safe_t = np.where(admissible, pairs, 0)
            cost = np.where(admissible, expected[safe_t], np.inf)
        stages.append((pairs, spread, cost))
    return stages


def pwl_value_float(slopes, intercepts, y: float) -> float:
    """The chord majorant at one point in Python floats: max(0, max over chords of a*y + b)."""
    return max(0.0, max(a * y + b for a, b in zip(slopes, intercepts)))


def risk_terms_per_face(model, covs, pwl, path):
    """Tightest per-face tail bound for each obstacle and step 2..N+1, one face at a time.

    A transcription of the straightforward per-face loop: a face
    separates the mean when the mean is at most 1e-9 on its inner side,
    its deviation is sqrt(a' cov a), a deviation at most 1e-12 bounds
    the tail by 0, and otherwise the tail is the chord majorant at the
    clipped margin over the deviation. A pair with no separating face is
    inside and carries 1.0. Returns the (obstacles, N) bounds and that
    inside mask.
    """
    terms = np.zeros((len(model.obstacles), model.horizon))
    inside = np.zeros(terms.shape, dtype=bool)
    for i, obs in enumerate(model.obstacles):
        for t in range(model.horizon):
            best = None
            for a, b in zip(obs.face_normals, obs.face_offsets):
                margin = float(a @ path[t + 1]) - float(b)
                if margin < -1e-9:
                    continue
                s = math.sqrt(max(float(a @ covs[t + 1] @ a), 0.0))
                val = 0.0
                if s > 1e-12:
                    val = pwl_value_float(pwl.slopes, pwl.intercepts, min(-margin, 0.0) / s)
                best = val if best is None else min(best, val)
            inside[i, t] = best is None
            terms[i, t] = 1.0 if best is None else best
    return terms, inside
