"""Finite-horizon MDP backend with a first-passage failure channel.

States live on a per-step basis (the spaces may differ between steps).
Entering a failure state charges the multiplier once and freezes the
trajectory: no further stage cost accrues. The backward sweep prices that
by assigning failure states the constant value ``lam``; the forward pass
splits probability mass into an alive distribution and an absorbed
failure mass, which keeps policy evaluation exact rather than sampled.

Transitions have one layout: each admissible (state, action) pair points
at a row of a shared row-stochastic "spread" matrix, so one sparse
product per step covers every action. Translation-invariant dynamics
(grid worlds) give the rows to cells and let every action that aims at a
cell share its noise row; a hand-built table gives each pair its own row.

The Monte Carlo check samples how many rollouts occupy each state, not
where each rollout is: rollouts that share a state and a policy are
exchangeable, so one multinomial draw per occupied state moves them all
with the same law as moving each on its own. The failure count and the
mean cost, which are all the check reports, are therefore exact samples,
and the work grows with the occupied states instead of the rollouts.

A saved mixture component is a ``policy_<stem>.csv`` table with one
``step,state,action`` row per defined action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .core import (
    Bounds,
    CostVector,
    DualVector,
    InvalidInputError,
    InvalidPolicyError,
    LagrangianOracle,
    MixedControlError,
    MixedSolution,
    PureCandidate,
    read_component,
    wilson_ci_99,
)

_MASS_TOL = 1e-12


class ShiftSpread:
    """Per-action target map into the rows of a shared row-stochastic spread.

    The next-state distribution of state ``x`` under action ``a`` is row
    ``targets[a][x]`` of ``spread`` (-1 marks an inadmissible pair), so a
    sweep needs a single sparse product shared by all actions. The rows
    may be pre-noise destination cells, extra rows (a deterministic
    parking row for an absorbing cell), or one row per pair.
    """

    def __init__(self, targets: np.ndarray, spread):
        self.targets = np.asarray(targets, dtype=np.int64)
        self.spread = sp.csr_matrix(spread, dtype=float)
        if self.targets.ndim != 2:
            raise InvalidInputError("targets must be (actions, states)")
        self.num_states = self.targets.shape[1]
        self.num_next = self.spread.shape[1]
        if self.targets.max() >= self.spread.shape[0]:
            raise InvalidInputError("target index outside the spread matrix")

    @property
    def num_actions(self) -> int:
        return self.targets.shape[0]

    def expected_next(self, j_next: np.ndarray) -> np.ndarray:
        # the appended zero is what target -1 (an inadmissible pair) reads
        return np.append(self.spread @ j_next, 0.0)[self.targets].T  # (states, actions)

    def push_forward(self, dist: np.ndarray, actions: np.ndarray) -> np.ndarray:
        inter = np.zeros(self.spread.shape[0])
        live = np.flatnonzero(dist > 0)
        t = self.targets[actions[live], live]
        np.add.at(inter, t, dist[live])
        return self.spread.T @ inter

    def row(self, state: int, action: int):
        t = int(self.targets[action, state])
        sl = slice(self.spread.indptr[t], self.spread.indptr[t + 1])
        return self.spread.indices[sl], self.spread.data[sl]

    def check_rows(self, admissible: np.ndarray):
        sums = np.asarray(self.spread.sum(axis=1)).ravel()
        if np.any(np.abs(sums - 1.0) > _MASS_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise InvalidInputError(f"spread row {bad} sums to {sums[bad]}")
        if (self.spread.data < 0).any():
            raise InvalidInputError("negative probability in the spread matrix")
        for a in range(self.num_actions):
            bad = admissible[:, a] & (self.targets[a] < 0)
            if np.any(bad):
                raise InvalidInputError(
                    f"action {a} marked admissible but has no target at state "
                    f"{int(np.flatnonzero(bad)[0])}"
                )


@dataclass(frozen=True, eq=False)
class Policy:
    """Per-step action index for every state; -1 where undefined."""

    actions: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class EvalResult:
    expected_cost: float
    failure_prob: float


@dataclass(eq=False)
class Mdp:
    """Time-varying finite MDP. ``stage_costs`` hold +inf for inadmissible pairs."""

    horizon: int
    state_counts: tuple[int, ...]
    dynamics: tuple
    stage_costs: tuple[np.ndarray, ...]
    failure_masks: tuple[np.ndarray, ...]
    initial: np.ndarray

    def __post_init__(self):
        t = self.horizon
        if t < 1:
            raise InvalidInputError("horizon must be at least one decision step")
        if len(self.state_counts) != t + 1:
            raise InvalidInputError("state_counts must have horizon+1 entries")
        if len(self.dynamics) != t or len(self.stage_costs) != t:
            raise InvalidInputError("dynamics and stage_costs must have horizon entries")
        if len(self.failure_masks) != t + 1:
            raise InvalidInputError("failure_masks must have horizon+1 entries")
        self.initial = np.asarray(self.initial, dtype=float)
        if self.initial.shape != (self.state_counts[0],):
            raise InvalidInputError("initial distribution does not match step-1 states")
        if np.any(self.initial < 0) or abs(self.initial.sum() - 1.0) > _MASS_TOL:
            raise InvalidInputError(
                f"initial distribution sums to {self.initial.sum()}"
            )
        self.failure_masks = tuple(
            np.asarray(m, dtype=bool) for m in self.failure_masks
        )
        for k, mask in enumerate(self.failure_masks):
            if mask.shape != (self.state_counts[k],):
                raise InvalidInputError(f"failure mask at step {k} has wrong length")
        self.stage_costs = tuple(np.asarray(c, dtype=float) for c in self.stage_costs)
        for k in range(t):
            dyn = self.dynamics[k]
            cost = self.stage_costs[k]
            n_k, n_next = self.state_counts[k], self.state_counts[k + 1]
            if dyn.num_states != n_k or dyn.num_next != n_next:
                raise InvalidInputError(f"dynamics at step {k} have wrong shape")
            if cost.shape != (n_k, dyn.num_actions):
                raise InvalidInputError(f"stage costs at step {k} have wrong shape")
            if np.any(np.isnan(cost)):
                raise InvalidInputError(f"NaN stage cost at step {k}")
            admissible = np.isfinite(cost)
            alive = ~self.failure_masks[k]
            if np.any(alive & ~admissible.any(axis=1)):
                x = int(np.flatnonzero(alive & ~admissible.any(axis=1))[0])
                raise InvalidInputError(
                    f"alive state {x} at step {k} has no admissible action"
                )
            dyn.check_rows(admissible)


def lagrangian_dp(mdp: Mdp, lam: float) -> tuple[Policy, float]:
    """Backward sweep minimizing stage cost plus ``lam`` per first failure.

    Failure states carry the constant value ``lam`` so transitioning into
    one charges the penalty exactly once with no continuation. Ties among
    actions break to the lowest index. Returns the greedy policy and the
    initial-distribution value (equal to c0 + lam*c1 of that policy).
    """
    if lam < 0 or not math.isfinite(lam):
        raise InvalidInputError(f"multiplier must be finite and nonnegative, got {lam}")
    t = mdp.horizon
    j_next = np.where(mdp.failure_masks[t], lam, 0.0)
    actions: list[np.ndarray] = [None] * t
    for k in reversed(range(t)):
        q = mdp.stage_costs[k] + mdp.dynamics[k].expected_next(j_next)
        act = np.argmin(q, axis=1)
        val = q[np.arange(q.shape[0]), act]
        fail_k = mdp.failure_masks[k]
        actions[k] = np.where(fail_k, -1, act).astype(np.int64)
        j_next = np.where(fail_k, lam, val)
    value = float(mdp.initial @ j_next)
    return Policy(tuple(actions)), value


def evaluate_policy(mdp: Mdp, policy: Policy) -> EvalResult:
    """Exact expected cost and first-passage failure probability.

    Mass entering a failure state is moved to an absorbed ledger and the
    trajectory accrues no further cost, matching the backward sweep's
    accounting exactly.
    """
    if len(policy.actions) != mdp.horizon:
        raise InvalidPolicyError("policy does not cover every decision step")
    dist = mdp.initial.copy()
    fail_mass = float(dist[mdp.failure_masks[0]].sum())
    dist = np.where(mdp.failure_masks[0], 0.0, dist)
    total_cost = 0.0
    for k in range(mdp.horizon):
        acts = np.asarray(policy.actions[k])
        if acts.shape != (mdp.state_counts[k],):
            raise InvalidPolicyError(f"policy at step {k} has wrong length")
        active = dist > 0
        if np.any(active & (acts < 0)):
            x = int(np.flatnonzero(active & (acts < 0))[0])
            raise InvalidPolicyError(f"no action for reachable state {x} at step {k}")
        safe_acts = np.where(acts >= 0, acts, 0)
        stage = mdp.stage_costs[k][np.arange(len(acts)), safe_acts]
        if np.any(active & ~np.isfinite(stage)):
            x = int(np.flatnonzero(active & ~np.isfinite(stage))[0])
            raise InvalidPolicyError(
                f"inadmissible action at reachable state {x}, step {k}"
            )
        total_cost += float(dist @ np.where(active, stage, 0.0))
        dist = mdp.dynamics[k].push_forward(dist, safe_acts)
        mask = mdp.failure_masks[k + 1]
        fail_mass += float(dist[mask].sum())
        dist = np.where(mask, 0.0, dist)
        if abs(dist.sum() + fail_mass - 1.0) > 1e-9:
            raise MixedControlError(
                f"probability mass not conserved at step {k}: "
                f"{dist.sum() + fail_mass}"
            )
    return EvalResult(total_cost, min(max(fail_mass, 0.0), 1.0))


class MdpOracle(LagrangianOracle):
    """Lagrangian oracle backed by the backward sweep, exact costs from the forward pass."""

    def __init__(self, mdp: Mdp, bounds: Bounds):
        if bounds.k != 1:
            raise InvalidInputError("MDP backend supports a single risk channel")
        self.mdp = mdp
        self.bounds = bounds

    def query(self, lam: DualVector) -> PureCandidate:
        policy, _ = lagrangian_dp(self.mdp, lam.values[0])
        return PureCandidate(policy, self.evaluate(policy))

    def evaluate(self, policy: object) -> CostVector:
        ev = evaluate_policy(self.mdp, policy)
        return CostVector(ev.expected_cost, (ev.failure_prob,))

    def save(self, policy: Policy, stem: str, out_dir: Path) -> str:
        """Write ``policy_<stem>.csv`` into ``out_dir`` and return its name."""
        name = f"policy_{stem}.csv"
        lines = ["step,state,action"]
        for step, actions in enumerate(policy.actions):
            for state in np.flatnonzero(actions >= 0):
                lines.append(f"{step},{int(state)},{int(actions[state])}")
        (out_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return name

    def load(self, ref: object, out_dir: Path) -> Policy:
        """Read back the policy table that `save` named ``ref``."""
        path, lines = read_component(ref, out_dir)
        actions = [np.full(count, -1, dtype=int) for count in self.mdp.state_counts[:-1]]
        if not lines or lines[0] != "step,state,action":
            raise InvalidInputError(f"{path} is not a policy table")
        for line in lines[1:]:
            try:
                step, state, action = (int(v) for v in line.split(","))
            except ValueError as exc:
                raise InvalidInputError(f"{path} has a bad row {line!r}") from exc
            if not 0 <= step < self.mdp.horizon or not 0 <= state < self.mdp.state_counts[step]:
                raise InvalidInputError(f"{path} references step {step}, state {state}")
            if not 0 <= action < self.mdp.stage_costs[step].shape[1]:
                raise InvalidInputError(f"{path} references action {action} at step {step}")
            actions[step][state] = action
        return Policy(tuple(actions))


@dataclass(frozen=True)
class SimulationSummary:
    cost_mean: float
    failure_rate: float
    failure_ci99: tuple[float, float]
    n_rollouts: int


def simulate(
    mdp: Mdp, solution: MixedSolution, seed: int, n_rollouts: int
) -> SimulationSummary:
    """Monte Carlo check of a mixed solution.

    Each rollout draws its component policy once up front (that is the
    whole randomization), then follows the policy through sampled
    transitions; costs stop accruing at the first failure. The rollouts
    are simulated as counts per state: one multinomial splits
    ``n_rollouts`` over the components, one draws each component's initial
    counts, and at each step one multinomial per occupied state splits its
    count over that state's transition row. For the failure count and the
    total cost, the only outputs, this is exactly the law of
    ``n_rollouts`` independent rollouts (see the module docstring), and
    the work does not grow with ``n_rollouts``. The 99%
    Wilson interval on the failure rate should cover the exact aggregate
    risk of the solution.
    """
    if n_rollouts < 1:
        raise InvalidInputError("need at least one rollout")
    if not all(isinstance(cand.policy, Policy) for cand, _ in solution.components):
        raise InvalidPolicyError("simulation needs MDP policies")
    rng = np.random.default_rng(seed)
    probs = np.array(solution.probabilities)
    shares = rng.multinomial(n_rollouts, probs / probs.sum())
    failures, cost = 0, 0.0
    for (cand, _), m in zip(solution.components, shares):
        if m > 0:
            f, c = _rollout_counts(mdp, cand.policy, rng, int(m))
            failures += f
            cost += c
    lo, hi = wilson_ci_99(failures, n_rollouts)
    return SimulationSummary(
        cost_mean=cost / n_rollouts,
        failure_rate=failures / n_rollouts,
        failure_ci99=(lo, hi),
        n_rollouts=n_rollouts,
    )


def _rollout_counts(mdp: Mdp, policy: Policy, rng: np.random.Generator, m: int):
    """Failure count and total cost of ``m`` rollouts of one policy."""
    counts = rng.multinomial(m, mdp.initial)
    failures = int(counts[mdp.failure_masks[0]].sum())
    counts[mdp.failure_masks[0]] = 0
    cost = 0.0
    for k in range(mdp.horizon):
        occ = np.flatnonzero(counts)
        if occ.size == 0:
            break
        acts = policy.actions[k][occ]
        if np.any(acts < 0):
            raise InvalidPolicyError(f"rollout reached an undefined action at step {k}")
        cost += float(counts[occ] @ mdp.stage_costs[k][occ, acts])
        nxt = np.zeros(mdp.state_counts[k + 1], dtype=np.int64)
        for x, a in zip(occ.tolist(), acts.tolist()):
            idxs, pvals = mdp.dynamics[k].row(x, a)
            nxt[idxs] += rng.multinomial(counts[x], pvals / pvals.sum())
        fail = mdp.failure_masks[k + 1]
        failures += int(nxt[fail].sum())
        nxt[fail] = 0
        counts = nxt
    return failures, cost


def from_tables(
    horizon: int,
    states: list[list[str]],
    actions: list[list[str]],
    transitions: dict,
    costs: dict,
    failures: list,
    initial: dict,
) -> Mdp:
    """Build a small labelled MDP from dictionaries.

    ``transitions[(k, state, action)]`` maps next-state labels to
    probabilities; pairs missing from ``transitions`` are inadmissible.
    Each admissible pair gets its own spread row.
    """
    t = horizon
    if len(states) != t + 1 or len(actions) != t or len(failures) != t + 1:
        raise InvalidInputError("states/actions/failures lengths do not match horizon")
    index = [{s: i for i, s in enumerate(level)} for level in states]
    counts = tuple(len(level) for level in states)
    dynamics = []
    stage_costs = []
    for k in range(t):
        n_k, n_next = counts[k], counts[k + 1]
        a_k = len(actions[k])
        pairs = [(key, row) for key, row in transitions.items() if key[0] == k]
        targets = np.full((a_k, n_k), -1, dtype=np.int64)
        spread = sp.lil_matrix((len(pairs), n_next))
        cost = np.full((n_k, a_k), np.inf)
        for r, ((_, s, a), row) in enumerate(pairs):
            x, ai = index[k][s], actions[k].index(a)
            targets[ai, x] = r
            for s_next, p in row.items():
                spread[r, index[k + 1][s_next]] = p
            cost[x, ai] = costs[(k, s, a)]
        dynamics.append(ShiftSpread(targets, spread))
        stage_costs.append(cost)
    masks = []
    for k in range(t + 1):
        mask = np.zeros(counts[k], dtype=bool)
        for s in failures[k]:
            mask[index[k][s]] = True
        masks.append(mask)
    init = np.zeros(counts[0])
    for s, p in initial.items():
        init[index[0][s]] = p
    return Mdp(
        horizon=t,
        state_counts=counts,
        dynamics=tuple(dynamics),
        stage_costs=tuple(stage_costs),
        failure_masks=tuple(masks),
        initial=init,
    )
