"""Output checks that do not trust the program under test.

Each checker returns a list of problems (empty when the output passes).
They recompute what they can from the config alone, or use properties
any correct mixture must have:

* the mixture has at most two components whose weights form a
  distribution, it sits on the risk bound whenever the multiplier is
  active, and it never costs more than the best pure solution;
* on small MDPs its cost equals the optimum of the constrained MDP's
  occupation-measure LP, solved by scipy's HiGHS;
* every SMPC plan's mean path, rebuilt from A, B and the start state,
  reaches the goal within the control box at the reported L1 cost, and
  its reported risk is at least the union bound of exact Gaussian tails;
* the Monte Carlo failure count lies within a 5-sigma binomial interval
  of the exact risk (MDP) or does not sit wholly above the certified
  risk (SMPC).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.special import ndtr

RISK_TOL = 1e-9
COST_TOL = 1e-9
WEIGHT_TOL = 1e-9
LP_REL_TOL = 1e-6
GOAL_TOL = 1e-6
MC_Z = 5.0
# The program bounds each tail with chords of the normal CDF on margins
# down to 6 sigma; past that a term may undercut the exact tail by at
# most ndtr(-6) < 1e-9.
TAIL_SLACK_PER_TERM = 1e-9


def check_mixture(report: dict) -> list[str]:
    """Properties every optimal K=1 mixture has, read from report.json."""
    problems = []
    v = float(report["risk_bound"])
    comps = report["mixed"]["components"]
    weights = [float(c["probability"]) for c in comps]
    agg = report["mixed"]["aggregate"]
    if not 1 <= len(comps) <= 2:
        problems.append(f"{len(comps)} components, expected 1 or 2")
    if any(not 0.0 <= w <= 1.0 for w in weights):
        problems.append(f"weights {weights} outside [0, 1]")
    if abs(math.fsum(weights) - 1.0) > WEIGHT_TOL:
        problems.append(f"weights sum to {math.fsum(weights)!r}")
    for key in ("cost", "risk"):
        mixed = math.fsum(w * float(c[key]) for w, c in zip(weights, comps))
        if abs(mixed - float(agg[key])) > COST_TOL * max(1.0, abs(mixed)):
            problems.append(f"aggregate {key} {agg[key]!r} is not the weighted sum {mixed!r}")
    if float(report["dual"]["lambda_star"]) > 0.0 and abs(float(agg["risk"]) - v) > RISK_TOL:
        problems.append(f"active multiplier but aggregate risk {agg['risk']!r} != bound {v!r}")
    if float(agg["cost"]) > float(report["pure"]["cost"]) + COST_TOL:
        problems.append(
            f"mixed cost {agg['cost']!r} above the pure cost {report['pure']['cost']!r}"
        )
    return problems


def occupation_lp_optimum(mdp, v: float) -> float:
    """Optimum of the constrained finite-horizon MDP as a linear program.

    Variables are the state-action occupation measures of every alive
    state and admissible action at each step; flow conservation ties the
    steps together, and the mass first entering failure states is capped
    at ``v``. Transition rows are read from the built ``Mdp``.
    """
    horizon = mdp.horizon
    blocks = []
    n_vars = 0
    for k in range(horizon):
        cost = mdp.stage_costs[k]
        alive = ~mdp.failure_masks[k]
        states, actions = np.nonzero(np.isfinite(cost) & alive[:, None])
        blocks.append((n_vars, states, actions, cost[states, actions]))
        n_vars += states.size
    row_of = []
    n_rows = 0
    for k in range(horizon):
        alive = ~mdp.failure_masks[k]
        index = np.full(alive.size, -1)
        index[alive] = np.arange(n_rows, n_rows + int(alive.sum()))
        row_of.append(index)
        n_rows += int(alive.sum())

    eq_r, eq_c, eq_v = [], [], []
    risk = np.zeros(n_vars)
    b_eq = np.zeros(n_rows)
    alive0 = ~mdp.failure_masks[0]
    b_eq[row_of[0][alive0]] = mdp.initial[alive0]
    for k, (start, states, actions, _) in enumerate(blocks):
        cols = start + np.arange(states.size)
        eq_r.append(row_of[k][states])
        eq_c.append(cols)
        eq_v.append(np.ones(states.size))
        fail_next = mdp.failure_masks[k + 1]
        for col, s, a in zip(cols, states, actions):
            nxt, prob = mdp.dynamics[k].row(int(s), int(a))
            risk[col] = prob[fail_next[nxt]].sum()
            if k + 1 < horizon:
                rows = row_of[k + 1][nxt]
                keep = rows >= 0
                eq_r.append(rows[keep])
                eq_c.append(np.full(int(keep.sum()), col))
                eq_v.append(-prob[keep])
    a_eq = sp.csr_matrix(
        (np.concatenate(eq_v), (np.concatenate(eq_r), np.concatenate(eq_c))),
        shape=(n_rows, n_vars),
    )
    cost = np.concatenate([blk[3] for blk in blocks])
    initial_fail = float(mdp.initial[mdp.failure_masks[0]].sum())
    res = linprog(
        cost,
        A_ub=sp.csr_matrix(risk[None, :]),
        b_ub=[v - initial_fail],
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise ValueError(f"occupation LP ended with status {res.status}: {res.message}")
    return float(res.fun)


def check_lp_optimum(mixed_cost: float, lp_cost: float) -> list[str]:
    if abs(mixed_cost - lp_cost) > LP_REL_TOL * max(1.0, abs(lp_cost)):
        return [f"mixed cost {mixed_cost!r} differs from the occupation LP optimum {lp_cost!r}"]
    return []


def exact_tail_union_bound(config: dict, path: np.ndarray) -> float:
    """Sum over obstacles and steps of the best face's exact Gaussian tail."""
    a_mat = np.asarray(config["a"], dtype=float)
    sigma_w = np.asarray(config["sigma_w"], dtype=float)
    cov = np.zeros_like(sigma_w)
    total = 0.0
    for t in range(1, path.shape[0]):
        cov = a_mat @ cov @ a_mat.T + sigma_w
        for obs in config["obstacles"]:
            normals = np.asarray(obs["normals"], dtype=float)
            offsets = np.asarray(obs["offsets"], dtype=float)
            scale = np.sqrt(np.einsum("ij,jk,ik->i", normals, cov, normals))
            total += float(np.min(ndtr((offsets - normals @ path[t]) / scale)))
    return total


def check_plan(config: dict, controls: np.ndarray, cost: float, risk: float) -> list[str]:
    """Rebuild one plan's mean path from the config and check what the report claims."""
    problems = []
    a_mat = np.asarray(config["a"], dtype=float)
    b_mat = np.asarray(config["b"], dtype=float)
    horizon = int(config["horizon"])
    if controls.shape != (horizon, b_mat.shape[1]):
        return [f"plan has shape {controls.shape}"]
    path = [np.asarray(config["x_init"], dtype=float)]
    for u in controls:
        path.append(a_mat @ path[-1] + b_mat @ u)
    path = np.array(path)
    miss = float(np.max(np.abs(path[-1] - np.asarray(config["x_goal"], dtype=float))))
    if miss > GOAL_TOL:
        problems.append(f"mean path ends {miss:.3g} from the goal")
    lo = np.asarray(config["u_lower"], dtype=float)
    hi = np.asarray(config["u_upper"], dtype=float)
    if np.any(controls < lo - 1e-9) or np.any(controls > hi + 1e-9):
        problems.append("controls leave the control box")
    l1 = float(np.abs(controls).sum())
    if abs(l1 - cost) > COST_TOL * max(1.0, l1):
        problems.append(f"plan L1 cost {l1!r} differs from the reported {cost!r}")
    exact = exact_tail_union_bound(config, path)
    slack = TAIL_SLACK_PER_TERM * horizon * len(config["obstacles"])
    if risk < exact - slack:
        problems.append(f"reported risk {risk!r} below the exact-tail union bound {exact!r}")
    return problems


def wilson_interval(failures: int, n: int, z: float = MC_Z) -> tuple[float, float]:
    p = failures / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


def check_monte_carlo(kind: str, monte_carlo: dict, risk: float) -> list[str]:
    """Recompute a wide binomial interval from the failure count and n."""
    n = int(monte_carlo["n"])
    failures = round(float(monte_carlo["failure_rate"]) * n)
    lo, hi = wilson_interval(failures, n)
    if kind == "smpc":
        if lo > risk:
            return [f"{failures}/{n} failures put the rate above the certified risk {risk!r}"]
    elif not lo <= risk <= hi:
        return [f"{failures}/{n} failures do not bracket the exact risk {risk!r}"]
    return []


def read_plan(path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def check_solve(config: dict, report: dict, out_dir, lp_cost: float | None) -> list[str]:
    """Every check that applies to one solve's artifacts."""
    kind = config["kind"]
    problems = check_mixture(report)
    agg = report["mixed"]["aggregate"]
    if lp_cost is not None:
        problems += check_lp_optimum(float(agg["cost"]), lp_cost)
    if kind == "smpc":
        plans = {c["policy"]: c for c in report["mixed"]["components"]}
        plans.setdefault(report["pure"]["policy"], report["pure"])
        for name, entry in plans.items():
            controls = read_plan(out_dir / name)
            problems += check_plan(config, controls, float(entry["cost"]), float(entry["risk"]))
    problems += check_monte_carlo(kind, report["monte_carlo"], float(agg["risk"]))
    return problems
