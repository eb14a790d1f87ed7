"""Finite-horizon MDP backend with a first-passage failure channel.

States live on a per-step basis (the spaces may differ between steps).
Entering a failure state charges the multiplier once and freezes the
trajectory: no further stage cost accrues. The backward sweep prices that
by assigning failure states the constant value ``lam``; the forward pass
splits probability mass into an alive distribution and an absorbed
failure mass, which keeps policy evaluation exact rather than sampled.

Transitions have one layout: each admissible (state, action) pair points
at a row of a shared row-stochastic "spread" matrix, so one sparse
product per step covers every action. The pair-to-row map is one
contiguous (rows, actions) array, the layout of every cost table, so
the sweep's table of expected values is gathered row by row and
minimised along contiguous rows. A ``ShiftSpread`` checks its spread
rows when it is built, and an `Mdp` each cost table's admissible pairs.
Translation-invariant dynamics (grid worlds) give the rows to cells and
let every action that aims at a cell share its noise row; a hand-built
table gives each pair its own row.

A step's tables may hold rows for only some of its states: a builder
that works forward from the start leaves out the states it cannot reach.
``ShiftSpread.row_of`` maps each state to its row. A state without one
gets action -1 and is never occupied, because `Mdp` checks that the
initial distribution reaches no alive state without a row; the sweep,
the forward pass and the sampler read every table through that map.

The Monte Carlo check samples how many rollouts occupy each state, not
where each rollout is: rollouts that share a state and a policy are
exchangeable, so one multinomial draw per occupied state moves them all
with the same law as moving each on its own. The failure count and the
mean cost, which are all the check reports, are therefore exact samples,
and the work grows with the occupied states instead of the rollouts. All
occupied states of a step go to numpy in one ``multinomial`` call, one
row of probabilities each. A row is the state's spread row divided by
its own sum, padded with zeros in front: numpy draws nothing for a zero
probability and gives the last entry the remainder, so the draws and
the random stream are those of one call per state.

A saved mixture component is a ``policy_<stem>.csv`` table with one
``step,state,action`` row per defined action, so it lists only states
that have a row. It is written with one format operation and read back
as one int64 array by numpy's C reader. The table is printable ASCII:
each field an optional sign and digits, spaces or tabs around them. A
file that names a (step, state) twice is rejected. A row for a state
without a row in the dynamics is checked and dropped, so tables that
list every state still load.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .core import (
    CostVector,
    InvalidInputError,
    InvalidPolicyError,
    LagrangianOracle,
    MixedControlError,
    MixedSolution,
    MonteCarloCheck,
    PureCandidate,
    check_multiplier,
    read_component,
    split_rollouts,
)

_MASS_TOL = 1e-12


class ShiftSpread:
    """Per-pair target map into the rows of a shared row-stochastic spread.

    Row ``r`` of the (rows, actions) map ``targets`` belongs to state
    ``states[r]``: the next-state distribution of that state under action
    ``a`` is row ``targets[r, a]`` of ``spread`` (-1 marks an inadmissible
    pair), so a sweep needs a single sparse product shared by all actions.
    The map may hold rows for a subset of the ``num_states`` states, in
    ascending state order; the default is one row per state. ``row_of``
    maps each state to its row, -1 for a state without one. The spread
    rows may be pre-noise destination cells, extra rows (a deterministic
    parking row for an absorbing cell), or one row per pair; a row that no
    pair uses may be empty. The constructor checks that each filled row
    sums to one and that no entry is negative.
    """

    def __init__(self, targets: np.ndarray, spread, states=None, num_states: int | None = None):
        self.targets = np.ascontiguousarray(targets, dtype=np.int64)
        self.spread = sp.csr_matrix(spread, dtype=float)
        # the CSC view that push_forward multiplies by; it shares the CSR arrays
        self._spread_t = self.spread.T
        if self.targets.ndim != 2:
            raise InvalidInputError("targets must be a (rows, actions) table")
        rows = self.targets.shape[0]
        if states is None:
            self.states = np.arange(rows)
            self.num_states = rows
        else:
            self.states = np.asarray(states, dtype=np.int64)
            self.num_states = int(num_states)
            if (
                self.states.shape != (rows,)
                or np.any(np.diff(self.states) <= 0)
                or np.any((self.states < 0) | (self.states >= self.num_states))
            ):
                raise InvalidInputError("row states must be ascending states, one per row")
        self.row_of = np.full(self.num_states, -1, dtype=np.int64)
        self.row_of[self.states] = np.arange(rows)
        self.num_next = self.spread.shape[1]
        if self.targets.max(initial=-1) >= self.spread.shape[0]:
            raise InvalidInputError("target index outside the spread matrix")
        sums = np.asarray(self.spread.sum(axis=1)).ravel()
        off = np.where(np.diff(self.spread.indptr) > 0, np.abs(sums - 1.0), 0.0)
        if np.any(off > _MASS_TOL):
            bad = int(np.argmax(off))
            raise InvalidInputError(f"spread row {bad} sums to {sums[bad]}")
        negative = np.flatnonzero(self.spread.data < 0)
        if negative.size:
            bad = int(np.searchsorted(self.spread.indptr, negative[0], side="right")) - 1
            raise InvalidInputError(f"negative probability in spread row {bad}")

    @property
    def num_actions(self) -> int:
        return self.targets.shape[1]

    def expected_next(self, j_next: np.ndarray) -> np.ndarray:
        # the appended zero is what target -1 (an inadmissible pair) reads
        return np.take(np.append(self.spread @ j_next, 0.0), self.targets)  # (rows, actions)

    def push_forward(self, dist: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Next-state distribution of ``dist`` (one entry per state) under per-state ``actions``.

        Every state that ``dist`` occupies must have a row.
        """
        live = np.flatnonzero(dist > 0)
        inter = np.bincount(
            self.targets[self.row_of[live], actions[live]], weights=dist[live],
            minlength=self.spread.shape[0],
        )
        return self._spread_t @ inter

    def row(self, state: int, action: int):
        """Columns and probabilities of the next-state distribution of one admissible pair."""
        r = int(self.row_of[state])
        if r < 0:
            raise InvalidInputError(f"state {state} has no row")
        t = int(self.targets[r, action])
        if t < 0:
            raise InvalidInputError(f"action {action} has no target at state {state}")
        sl = slice(self.spread.indptr[t], self.spread.indptr[t + 1])
        return self.spread.indices[sl], self.spread.data[sl]

    def padded_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Columns and normalised probabilities of spread ``rows``, right-aligned.

        Row i of both (len(rows), width) arrays ends with spread row
        ``rows[i]``, each probability divided by the row's sum; the entries
        in front are column 0 with probability 0. Each sum is the one
        ``p.sum()`` gives for the row alone: rows of one length are summed
        together along their contiguous axis, which adds in the same order.
        """
        start = self.spread.indptr[rows]
        length = self.spread.indptr[rows + 1] - start
        width = int(length.max())
        cols = np.zeros((rows.size, width), dtype=np.int64)
        probs = np.zeros((rows.size, width))
        for n in np.unique(length):
            which = np.flatnonzero(length == n)
            src = start[which, None] + np.arange(n)
            p = self.spread.data[src]
            cols[which, width - n:] = self.spread.indices[src]
            probs[which, width - n:] = p / p.sum(axis=1, keepdims=True)
        return cols, probs

    def check_pairs(self, admissible: np.ndarray):
        """Check that each pair ``admissible`` (rows, actions) marks has a target on a filled row.

        An empty spread row is one that no admissible pair may use.
        """
        filled = np.diff(self.spread.indptr) > 0
        if filled.all():
            missing = admissible & (self.targets < 0)
        else:  # target -1 reads the appended False
            missing = admissible & ~np.append(filled, False)[self.targets]
        if missing.any():
            a, r = np.argwhere(missing.T)[0]  # lowest action first
            x, t = int(self.states[r]), int(self.targets[r, a])
            if t < 0:
                raise InvalidInputError(
                    f"action {a} marked admissible but has no target at state {x}"
                )
            raise InvalidInputError(f"action {a} at state {x} uses the empty spread row {t}")


@dataclass(frozen=True, eq=False)
class Policy:
    """Per-step action index for every state; -1 where undefined."""

    actions: tuple[np.ndarray, ...]


@dataclass(eq=False)
class Mdp:
    """Time-varying finite MDP. ``stage_costs`` hold +inf for inadmissible pairs.

    ``stage_costs[k]`` has one row per row of ``dynamics[k]``; ``horizon``
    is the number of dynamics, and ``state_counts[k]`` the length of
    ``failure_masks[k]``, one mask per step and one after the last. An alive
    state with a row needs an admissible action; an alive state without
    one must be out of the initial distribution's reach. Each (dynamics,
    costs, mask) triple is checked once, its pairs by `ShiftSpread.check_pairs`.
    """

    dynamics: tuple
    stage_costs: tuple[np.ndarray, ...]
    failure_masks: tuple[np.ndarray, ...]
    initial: np.ndarray
    horizon: int = field(init=False)
    state_counts: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        self.horizon = t = len(self.dynamics)
        if t < 1:
            raise InvalidInputError("horizon must be at least one decision step")
        if len(self.stage_costs) != t:
            raise InvalidInputError("stage_costs must have one table per dynamics")
        if len(self.failure_masks) != t + 1:
            raise InvalidInputError("failure_masks must have one more entry than dynamics")
        self.failure_masks = tuple(
            np.asarray(m, dtype=bool) for m in self.failure_masks
        )
        for k, mask in enumerate(self.failure_masks):
            if mask.ndim != 1:
                raise InvalidInputError(f"failure mask at step {k} is not one-dimensional")
        self.state_counts = tuple(len(mask) for mask in self.failure_masks)
        self.initial = np.asarray(self.initial, dtype=float)
        if self.initial.shape != (self.state_counts[0],):
            raise InvalidInputError("initial distribution does not match step-1 states")
        if np.any(self.initial < 0) or abs(self.initial.sum() - 1.0) > _MASS_TOL:
            raise InvalidInputError(
                f"initial distribution sums to {self.initial.sum()}"
            )
        self.stage_costs = tuple(np.asarray(c, dtype=float) for c in self.stage_costs)
        seen = {}  # admissible pattern per (dynamics, costs, mask) triple already checked
        rowless = False  # some alive state has no row
        for k in range(t):
            dyn = self.dynamics[k]
            cost = self.stage_costs[k]
            n_k, n_next = self.state_counts[k], self.state_counts[k + 1]
            if dyn.num_states != n_k or dyn.num_next != n_next:
                raise InvalidInputError(f"dynamics at step {k} have wrong shape")
            if cost.shape != (len(dyn.states), dyn.num_actions):
                raise InvalidInputError(f"stage costs at step {k} have wrong shape")
            triple = (id(dyn), id(cost), id(self.failure_masks[k]))
            if triple in seen:
                continue
            if np.isnan(cost.min(initial=0.0)):  # min propagates NaN
                raise InvalidInputError(f"NaN stage cost at step {k}")
            admissible = seen[triple] = np.isfinite(cost)
            alive = ~self.failure_masks[k]
            stuck = alive[dyn.states] & ~admissible.any(axis=1)
            if np.any(stuck):
                x = int(dyn.states[np.argmax(stuck)])
                raise InvalidInputError(
                    f"alive state {x} at step {k} has no admissible action"
                )
            rowless = rowless or bool(np.any(alive & (dyn.row_of < 0)))
            dyn.check_pairs(admissible)
        if rowless:
            self._check_reach([
                seen[id(dyn), id(cost), id(mask)]
                for dyn, cost, mask in zip(self.dynamics, self.stage_costs, self.failure_masks)
            ])

    def _check_reach(self, admissible: list[np.ndarray]):
        """Raise unless every alive state that ``initial`` can reach has a row.

        Steps forward from the initial distribution's support through the
        admissible pairs of the alive states reached, to every state their
        spread rows give a positive probability.
        """
        reach = self.initial > 0
        for k, dyn in enumerate(self.dynamics):
            live = reach & ~self.failure_masks[k]
            if np.any(live & (dyn.row_of < 0)):
                x = int(np.argmax(live & (dyn.row_of < 0)))
                raise InvalidInputError(
                    f"state {x} at step {k} has no row, but the initial distribution can reach it"
                )
            used = np.zeros(dyn.spread.shape[0])
            used[dyn.targets[admissible[k] & live[dyn.states][:, None]]] = 1.0
            reach = dyn.spread.T @ used > 0  # the entries are not negative


def lagrangian_dp(mdp: Mdp, lam: float) -> tuple[Policy, float]:
    """Backward sweep minimizing stage cost plus ``lam`` per first failure.

    Failure states carry the constant value ``lam`` so transitioning into
    one charges the penalty exactly once with no continuation. Ties among
    actions break to the lowest index. The table of a step has one row per
    row of its dynamics; a state without one gets action -1 and value 0,
    which no state that the initial distribution reaches reads. Returns
    the greedy policy and the initial-distribution value (equal to
    c0 + lam*c1 of that policy).
    """
    lam = check_multiplier(lam)
    t = mdp.horizon
    j_next = np.where(mdp.failure_masks[t], lam, 0.0)
    actions: list[np.ndarray] = [None] * t
    for k in reversed(range(t)):
        dyn = mdp.dynamics[k]
        q = dyn.expected_next(j_next)
        q += mdp.stage_costs[k]
        act = np.argmin(q, axis=1)
        val = q[np.arange(q.shape[0]), act]
        # free the table before the next step makes its own, so that the
        # allocator hands the same memory back instead of fresh pages
        del q
        fail_k = mdp.failure_masks[k]
        actions[k] = np.full(mdp.state_counts[k], -1, dtype=np.int64)
        actions[k][dyn.states] = act
        actions[k][fail_k] = -1
        j_next = np.zeros(mdp.state_counts[k])
        j_next[dyn.states] = val
        j_next[fail_k] = lam
    value = float(mdp.initial @ j_next)
    return Policy(tuple(actions)), value


def evaluate_policy(mdp: Mdp, policy: Policy) -> CostVector:
    """Exact expected cost (c0) and first-passage failure probability (c1).

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
        occ = np.flatnonzero(dist > 0)
        if np.any(acts[occ] < 0):
            x = int(occ[np.argmax(acts[occ] < 0)])
            raise InvalidPolicyError(f"no action for reachable state {x} at step {k}")
        dyn = mdp.dynamics[k]
        # an occupied state has a row: the Mdp checks let no mass reach one without
        stage = np.zeros(len(acts))
        stage[occ] = mdp.stage_costs[k][dyn.row_of[occ], acts[occ]]
        if not np.all(np.isfinite(stage)):
            x = int(np.argmax(~np.isfinite(stage)))
            raise InvalidPolicyError(
                f"inadmissible action at reachable state {x}, step {k}"
            )
        total_cost += float(dist @ stage)
        dist = dyn.push_forward(dist, acts)
        mask = mdp.failure_masks[k + 1]
        fail_mass += float(dist[mask].sum())
        dist = np.where(mask, 0.0, dist)
        if abs(dist.sum() + fail_mass - 1.0) > 1e-9:
            raise MixedControlError(
                f"probability mass not conserved at step {k}: "
                f"{dist.sum() + fail_mass}"
            )
    return CostVector(total_cost, min(max(fail_mass, 0.0), 1.0))


class MdpOracle(LagrangianOracle):
    """Lagrangian oracle backed by the backward sweep, exact costs from the forward pass."""

    def __init__(self, mdp: Mdp, risk_bound: float):
        self.mdp = mdp
        self.risk_bound = risk_bound

    def query(self, lam: float) -> PureCandidate:
        policy, _ = lagrangian_dp(self.mdp, lam)
        return PureCandidate(policy, self.evaluate(policy))

    def evaluate(self, policy: object) -> CostVector:
        return evaluate_policy(self.mdp, policy)

    def save(self, policy: Policy, stem: str, out_dir: Path) -> str:
        """Write ``policy_<stem>.csv`` into ``out_dir`` and return its name.

        The table lists each (step, state) that has a row and an action.
        """
        name = f"policy_{stem}.csv"
        acts = np.concatenate([
            np.where(dyn.row_of >= 0, a, -1) for dyn, a in zip(self.mdp.dynamics, policy.actions)
        ])
        sizes = [len(a) for a in policy.actions]
        table = np.stack([
            np.repeat(np.arange(len(sizes)), sizes),
            np.concatenate([np.arange(n) for n in sizes]),
            acts,
        ], axis=1)[acts >= 0]
        body = "%d,%d,%d\n" * len(table) % tuple(table.ravel().tolist())
        (out_dir / name).write_text("step,state,action\n" + body, encoding="utf-8")
        return name

    def load(self, ref: object, out_dir: Path) -> Policy:
        """Read back the policy table that `save` named ``ref``.

        A valid table is parsed as one int64 array and checked together;
        a table that fails is read again row by row to name its first bad
        row. A row for a state without a row in the dynamics (one the
        initial distribution cannot reach, which older tables list) is
        checked like any other and then dropped: that state gets -1.
        """
        path, lines = read_component(ref, out_dir)
        if not lines or lines[0] != "step,state,action":
            raise InvalidInputError(f"{path} is not a policy table")
        body = lines[1:]
        table = _int64_table(body)
        if table is not None:
            step, state, action = table.T
            counts = np.array(self.mdp.state_counts[:-1])
            n_actions = np.array([cost.shape[1] for cost in self.mdp.stage_costs])
            offsets = np.concatenate([[0], np.cumsum(counts)])
            k = np.clip(step, 0, self.mdp.horizon - 1)
            ok = (step == k) & (state >= 0) & (state < counts[k])
            ok &= (action >= 0) & (action < n_actions[k])
            flat = offsets[k] + state
            if ok.all() and np.bincount(flat).max(initial=0) <= 1:  # no (step, state) twice
                actions = np.full(offsets[-1], -1, dtype=np.int64)
                actions[flat] = action
                actions[np.concatenate([dyn.row_of < 0 for dyn in self.mdp.dynamics])] = -1
                return Policy(tuple(np.split(actions, offsets[1:-1])))
        raise self._first_bad_row(path, body)

    def _first_bad_row(self, path: Path, body: list[str]) -> MixedControlError:
        """The error naming the first row of ``body`` that the array checks reject.

        Each row is read by the grammar of `_int64_table`, but into Python
        integers, so a field beyond int64 gets the range message.
        """
        seen = set()
        for line in body:
            fields = [_FIELD.fullmatch(v) for v in line.split(",")]
            if len(fields) != 3 or not all(fields):
                return InvalidInputError(f"{path} has a bad row {line!r}")
            step, state, action = (int(f[1]) for f in fields)
            if not 0 <= step < self.mdp.horizon or not 0 <= state < self.mdp.state_counts[step]:
                return InvalidInputError(f"{path} references step {step}, state {state}")
            if not 0 <= action < self.mdp.stage_costs[step].shape[1]:
                return InvalidInputError(f"{path} references action {action} at step {step}")
            if (step, state) in seen:
                return InvalidInputError(
                    f"{path} repeats step {step}, state {state} in row {line!r}"
                )
            seen.add((step, state))
        return MixedControlError(f"{path} passes the row checks but not the array checks")


# A policy table holds only printable ASCII and tabs. Each row is three
# fields; a field is an optional sign and digits, spaces or tabs around them.
_TABLE_BYTES = b"\t" + bytes(range(0x20, 0x7F))
_FIELD = re.compile(r"[ \t]*([+-]?[0-9]+)[ \t]*")


def _int64_table(lines: list[str]) -> np.ndarray | None:
    """(n, 3) int64 table of ``lines``, or None unless each is three int64 `_FIELD`s.

    numpy's C reader parses the table. It would skip a blank line, take
    some other characters for spaces or digits, and read a table of
    another width, so those tables are rejected here.
    """
    if not lines:
        return np.empty((0, 3), dtype=np.int64)
    if "".join(lines).encode().translate(None, _TABLE_BYTES):  # a byte outside the table's set
        return None
    try:
        with warnings.catch_warnings():  # a body of blank lines warns that it holds no data
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(lines, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError):
        return None
    return table if table.shape == (len(lines), 3) else None


def simulate(
    mdp: Mdp, solution: MixedSolution, seed: int, n_rollouts: int
) -> MonteCarloCheck:
    """Monte Carlo check of a mixed solution: failures and mean cost of the rollouts.

    Each rollout draws its component policy once up front (that is the
    whole randomization), then follows the policy through sampled
    transitions; costs stop accruing at the first failure. The rollouts
    are simulated as counts per state: one multinomial splits
    ``n_rollouts`` over the components, one draws each component's initial
    counts, and at each step one multinomial call splits the count of
    every occupied state over that state's transition row. For the
    failure count and the total cost, the only outputs, this is exactly
    the law of ``n_rollouts`` independent rollouts (see the module
    docstring), and the work does not grow with ``n_rollouts``. The
    check's 99% Wilson interval on the failure rate should cover the
    exact aggregate risk of the solution.
    """
    if n_rollouts < 1:
        raise InvalidInputError("need at least one rollout")
    if not all(isinstance(cand.policy, Policy) for cand, _ in solution.components):
        raise InvalidPolicyError("simulation needs MDP policies")
    rng, shares = split_rollouts(solution, seed, n_rollouts)
    failures, cost = 0, 0.0
    for (cand, _), m in zip(solution.components, shares):
        if m > 0:
            f, c = _rollout_counts(mdp, cand.policy, rng, int(m))
            failures += f
            cost += c
    return MonteCarloCheck(n_rollouts, failures, cost / n_rollouts)


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
        dyn = mdp.dynamics[k]
        own = dyn.row_of[occ]  # an occupied state has a row, as in evaluate_policy
        cost += float(counts[occ] @ mdp.stage_costs[k][own, acts])
        rows = dyn.targets[own, acts]
        if np.any(rows < 0):
            raise InvalidPolicyError(f"rollout reached an inadmissible action at step {k}")
        cols, probs = dyn.padded_rows(rows)
        drawn = rng.multinomial(counts[occ], probs)
        nxt = np.zeros(mdp.state_counts[k + 1], dtype=np.int64)
        np.add.at(nxt, cols.ravel(), drawn.ravel())  # in int64: exact for any count
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
        targets = np.full((n_k, a_k), -1, dtype=np.int64)
        spread = sp.lil_matrix((len(pairs), n_next))
        cost = np.full((n_k, a_k), np.inf)
        for r, ((_, s, a), row) in enumerate(pairs):
            x, ai = index[k][s], actions[k].index(a)
            targets[x, ai] = r
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
        dynamics=tuple(dynamics),
        stage_costs=tuple(stage_costs),
        failure_masks=tuple(masks),
        initial=init,
    )
