import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from mixedctrl.ccmdp import (
    Mdp,
    MdpOracle,
    Policy,
    ShiftSpread,
    evaluate_policy,
    from_tables,
    lagrangian_dp,
    simulate,
)
from mixedctrl.cli import build_setup, load_config
from mixedctrl.core import (
    Bounds,
    CostVector,
    DualVector,
    InvalidInputError,
    InvalidPolicyError,
    MixedSolution,
    PureCandidate,
    mix_costs,
    wilson_ci_99,
)
from mixedctrl.dual import check_optimality, solve_mixed_scalar

from _oracles import brute_policy_costs, path_moments, random_tiny_mdp

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def chain_mdp():
    """One decision: a is cheap but risky, b is safe but dear."""
    return from_tables(
        horizon=1,
        states=[["s"], ["ok", "bad"]],
        actions=[["a", "b"]],
        transitions={
            (0, "s", "a"): {"ok": 0.5, "bad": 0.5},
            (0, "s", "b"): {"ok": 1.0},
        },
        costs={(0, "s", "a"): 1.0, (0, "s", "b"): 3.0},
        failures=[[], ["bad"]],
        initial={"s": 1.0},
    )


def test_chain_policy_switches_with_multiplier():
    mdp = chain_mdp()
    pol_hi, val_hi = lagrangian_dp(mdp, 10.0)
    assert pol_hi.actions[0][0] == 1  # b: 3 beats 1 + 10*0.5
    assert val_hi == pytest.approx(3.0, abs=1e-12)
    pol_lo, val_lo = lagrangian_dp(mdp, 1.0)
    assert pol_lo.actions[0][0] == 0  # a: 1.5 beats 3
    assert val_lo == pytest.approx(1.5, abs=1e-12)
    # exact tie at lam=4 resolves to the lowest action index
    pol_tie, _ = lagrangian_dp(mdp, 4.0)
    assert pol_tie.actions[0][0] == 0


def test_chain_evaluate_frozen_values():
    mdp = chain_mdp()
    risky = Policy((np.array([0]),))
    safe = Policy((np.array([1]),))
    ev = evaluate_policy(mdp, risky)
    assert ev.expected_cost == pytest.approx(1.0, abs=1e-12)
    assert ev.failure_prob == pytest.approx(0.5, abs=1e-12)
    ev = evaluate_policy(mdp, safe)
    assert ev.expected_cost == pytest.approx(3.0, abs=1e-12)
    assert ev.failure_prob == 0.0


def test_first_passage_stops_cost_accrual():
    mdp = from_tables(
        horizon=2,
        states=[["s"], ["m", "f"], ["g", "f2"]],
        actions=[["go"], ["go"]],
        transitions={
            (0, "s", "go"): {"m": 0.6, "f": 0.4},
            (1, "m", "go"): {"g": 0.7, "f2": 0.3},
        },
        costs={(0, "s", "go"): 2.0, (1, "m", "go"): 1.0},
        failures=[[], ["f"], ["f2"]],
        initial={"s": 1.0},
    )
    pol = Policy((np.array([0]), np.array([0, -1])))
    ev = evaluate_policy(mdp, pol)
    # the 0.4 absorbed at the middle step pays no second-stage cost
    assert ev.expected_cost == pytest.approx(2.0 + 0.6 * 1.0, abs=1e-12)
    assert ev.failure_prob == pytest.approx(0.4 + 0.6 * 0.3, abs=1e-12)
    _, val = lagrangian_dp(mdp, 100.0)
    assert val == pytest.approx(2.6 + 100.0 * 0.58, abs=1e-9)


def test_dp_value_matches_forward_evaluation():
    rng = np.random.default_rng(321)
    for _ in range(10):
        mdp = random_tiny_mdp(rng)
        for lam in rng.uniform(0.0, 50.0, size=5):
            pol, val = lagrangian_dp(mdp, float(lam))
            ev = evaluate_policy(mdp, pol)
            assert val == pytest.approx(
                ev.expected_cost + lam * ev.failure_prob, abs=1e-9
            )


def test_dp_matches_policy_enumeration():
    rng = np.random.default_rng(777)
    for _ in range(6):
        mdp = random_tiny_mdp(rng)
        table = brute_policy_costs(mdp)
        for lam in rng.uniform(0.0, 40.0, size=20):
            _, val = lagrangian_dp(mdp, float(lam))
            best = min(c0 + lam * c1 for _, c0, c1 in table)
            assert val == pytest.approx(best, abs=1e-9)


def test_lagrangian_sweep_is_monotone():
    rng = np.random.default_rng(8)
    mdp = random_tiny_mdp(rng)
    oracle = MdpOracle(mdp, Bounds((0.1,)))
    grid = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0]
    cands = [oracle.query(_dv(lam)) for lam in grid]
    risks = [c.cost.c1 for c in cands]
    costs = [c.cost.c0 for c in cands]
    for a, b in zip(risks, risks[1:]):
        assert b <= a + 1e-12
    for a, b in zip(costs, costs[1:]):
        assert b >= a - 1e-12


def _dv(lam):
    from mixedctrl.core import DualVector

    return DualVector((float(lam),))


def test_validation_rejects_bad_rows():
    with pytest.raises(InvalidInputError):
        from_tables(
            horizon=1,
            states=[["s"], ["ok"]],
            actions=[["a"]],
            transitions={(0, "s", "a"): {"ok": 0.7}},
            costs={(0, "s", "a"): 1.0},
            failures=[[], []],
            initial={"s": 1.0},
        )
    with pytest.raises(InvalidInputError):
        from_tables(
            horizon=1,
            states=[["s"], ["ok"]],
            actions=[["a"]],
            transitions={(0, "s", "a"): {"ok": 1.0}},
            costs={(0, "s", "a"): 1.0},
            failures=[[], []],
            initial={"s": 0.9},
        )


def test_validation_requires_admissible_action_for_alive_states():
    with pytest.raises(InvalidInputError, match="no admissible action"):
        Mdp(
            horizon=1,
            state_counts=(2, 1),
            dynamics=(ShiftSpread(np.array([[0, 0]]), sp.csr_matrix([[1.0]])),),
            stage_costs=(np.array([[1.0], [np.inf]]),),
            failure_masks=(np.zeros(2, bool), np.zeros(1, bool)),
            initial=np.array([0.5, 0.5]),
        )


def test_policy_errors():
    mdp = chain_mdp()
    with pytest.raises(InvalidPolicyError, match="no action"):
        evaluate_policy(mdp, Policy((np.array([-1]),)))
    with pytest.raises(InvalidPolicyError):
        evaluate_policy(mdp, Policy((np.array([0]), np.array([0, 0]))))


def test_oracle_pipeline_recovers_two_policy_mixture():
    mdp = chain_mdp()
    bounds = Bounds((0.1,))
    oracle = MdpOracle(mdp, bounds)
    dual, sol = solve_mixed_scalar(oracle, bounds)
    assert sol.aggregate.c1 == pytest.approx(0.1, abs=1e-9)
    # p*1 + (1-p)*3 with 0.5p = 0.1 gives cost 2.6
    assert sol.aggregate.c0 == pytest.approx(2.6, abs=1e-6)
    probs = sorted(sol.probabilities)
    assert probs == pytest.approx([0.2, 0.8], abs=1e-6)
    report = check_optimality(sol, bounds, oracle)
    assert report.overall
    assert dual.q_star <= 2.6 + 1e-9


def test_simulate_mixture_covers_exact_risk():
    mdp = chain_mdp()
    bounds = Bounds((0.1,))
    _, sol = solve_mixed_scalar(MdpOracle(mdp, bounds), bounds)
    summary = simulate(mdp, sol, seed=7, n_rollouts=4000)
    lo, hi = summary.failure_ci99
    assert lo <= 0.1 <= hi
    assert summary.cost_mean == pytest.approx(2.6, abs=0.06)
    again = simulate(mdp, sol, seed=7, n_rollouts=4000)
    assert again == summary


def test_simulate_deterministic_policy_is_exact():
    mdp = chain_mdp()
    oracle = MdpOracle(mdp, Bounds((0.1,)))
    cand = oracle.query(_dv(1e6))
    from mixedctrl.core import DualVector, MixedSolution

    sol = MixedSolution(
        components=((cand, 1.0),),
        aggregate=cand.cost,
        dual=DualVector((0.0,)),
        gap_estimate=0.0,
    )
    summary = simulate(mdp, sol, seed=3, n_rollouts=200)
    assert summary.cost_mean == 3.0
    assert summary.failure_rate == 0.0
    assert summary.failure_ci99[0] == 0.0


def _single(policy, cost=CostVector(1.0, (0.5,))):
    cand = PureCandidate(policy, cost)
    return MixedSolution(((cand, 1.0),), cost, DualVector((0.0,)), 0.0)


def test_simulate_errors():
    mdp = chain_mdp()
    with pytest.raises(InvalidPolicyError, match="undefined action at step 0"):
        simulate(mdp, _single(Policy((np.array([-1]),))), seed=0, n_rollouts=10)
    with pytest.raises(InvalidPolicyError, match="MDP policies"):
        simulate(mdp, _single("not a policy"), seed=0, n_rollouts=10)
    with pytest.raises(InvalidInputError, match="at least one rollout"):
        simulate(mdp, _single(Policy((np.array([0]),))), seed=0, n_rollouts=0)


# Horizon 3, with failure mass at every step including the start. Failure
# states keep a priced action, which a sampler must never take: a failed
# rollout stops paying.
_LAW_STATES = [["s0", "s1", "f0"], ["m0", "m1", "f1"], ["n0", "n1", "f2"], ["g", "h", "f3"]]
_LAW_FAILURES = [["f0"], ["f1"], ["f2"], ["f3"]]
_LAW_INITIAL = {"s0": 0.5, "s1": 0.3, "f0": 0.2}
_LAW_STEPS = {
    (0, "s0", "a"): ({"m0": 0.7, "m1": 0.2, "f1": 0.1}, 1.0),
    (0, "s0", "b"): ({"m0": 0.2, "m1": 0.5, "f1": 0.3}, 0.5),
    (0, "s1", "a"): ({"m1": 0.6, "f1": 0.4}, 2.0),
    (0, "s1", "b"): ({"m0": 0.9, "f1": 0.1}, 4.0),
    (1, "m0", "a"): ({"n0": 0.8, "f2": 0.2}, 1.5),
    (1, "m0", "b"): ({"n0": 0.5, "n1": 0.5}, 3.0),
    (1, "m1", "a"): ({"n1": 0.7, "f2": 0.3}, 0.5),
    (1, "m1", "b"): ({"n0": 0.4, "n1": 0.4, "f2": 0.2}, 1.0),
    (2, "n0", "a"): ({"g": 0.9, "f3": 0.1}, 2.0),
    (2, "n0", "b"): ({"g": 0.6, "h": 0.4}, 2.5),
    (2, "n1", "a"): ({"h": 0.5, "f3": 0.5}, 0.2),
    (2, "n1", "b"): ({"g": 0.3, "h": 0.6, "f3": 0.1}, 1.2),
    **{
        (k, f"f{k}", a): ({f"f{k + 1}": 1.0}, 3.0)
        for k in range(3)
        for a in ("a", "b")
    },
}
# (weight, action label per state of steps 0 to 2, failure states included)
_LAW_MIXTURE = (
    (0.35, ({"s0": "b", "s1": "a", "f0": "a"}, {"m0": "a", "m1": "a", "f1": "a"},
            {"n0": "a", "n1": "a", "f2": "a"})),
    (0.65, ({"s0": "a", "s1": "b", "f0": "a"}, {"m0": "b", "m1": "b", "f1": "a"},
            {"n0": "b", "n1": "b", "f2": "a"})),
)


def test_count_sampler_follows_the_rollout_law():
    transitions = {key: row for key, (row, _) in _LAW_STEPS.items()}
    costs = {key: cost for key, (_, cost) in _LAW_STEPS.items()}
    actions = [["a", "b"]] * 3
    mdp = from_tables(
        3, _LAW_STATES, actions, transitions, costs, _LAW_FAILURES, _LAW_INITIAL
    )
    components, risk, mean, square = [], 0.0, 0.0, 0.0
    for weight, labels in _LAW_MIXTURE:
        table = {(k, s): a for k, step in enumerate(labels) for s, a in step.items()}
        r, m, m2 = path_moments(3, transitions, costs, _LAW_FAILURES, _LAW_INITIAL, table)
        policy = Policy(tuple(
            np.array([actions[k].index(step[s]) for s in _LAW_STATES[k]])
            for k, step in enumerate(labels)
        ))
        ev = evaluate_policy(mdp, policy)
        assert (ev.failure_prob, ev.expected_cost) == pytest.approx((r, m), abs=1e-12)
        components.append((PureCandidate(policy, CostVector(m, (r,))), weight))
        risk, mean, square = risk + weight * r, mean + weight * m, square + weight * m2
    aggregate = mix_costs([(cand.cost, w) for cand, w in components])
    solution = MixedSolution(tuple(components), aggregate, DualVector((0.0,)), 0.0)

    n, seeds = 60, range(400)
    runs = [simulate(mdp, solution, seed, n) for seed in seeds]
    failures = np.array([round(run.failure_rate * n) for run in runs])
    total = n * len(seeds)
    # each seed's count is Binomial(n, risk): its mean, then its spread
    assert abs(failures.mean() / n - risk) <= 4 * math.sqrt(risk * (1 - risk) / total)
    assert 0.75 <= failures.var(ddof=1) / (n * risk * (1 - risk)) <= 1.3
    cost = np.mean([run.cost_mean for run in runs])
    assert abs(cost - mean) <= 4 * math.sqrt((square - mean**2) / total)


def test_simulation_work_does_not_grow_with_the_rollout_count(monkeypatch):
    setup = build_setup(load_config(CONFIGS / "desk_grid.json"), CONFIGS)
    _, solution = solve_mixed_scalar(setup, setup.bounds)
    calls = []
    for dyn in {id(d): d for d in setup.mdp.dynamics}.values():
        def counted(x, a, row=dyn.row):
            calls.append(x)
            return row(x, a)

        monkeypatch.setattr(dyn, "row", counted)
    for n in (1_000, 1_000_000):
        calls.clear()
        tracemalloc.start()
        try:
            simulate(setup.mdp, solution, seed=11, n_rollouts=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < len(calls) <= sum(setup.mdp.state_counts), n
        # one float64 per rollout alone would take 8 MB at n = 1e6
        assert peak < 2**20, (n, peak)


def test_shift_spread_matches_explicit_matrices():
    rng = np.random.default_rng(15)
    n = 6
    spread = rng.random((n + 1, n)) + 0.05
    spread /= spread.sum(axis=1, keepdims=True)
    targets = rng.integers(0, n + 1, size=(3, n))
    targets[2, 0] = -1  # one inadmissible pair
    compact = ShiftSpread(targets, sp.csr_matrix(spread))
    # dense kernel of each action; the inadmissible row stays zero
    kernels = np.zeros((3, n, n))
    for a in range(3):
        for x in range(n):
            if targets[a, x] >= 0:
                kernels[a, x] = spread[targets[a, x]]

    j_next = rng.uniform(0.0, 5.0, size=n)
    np.testing.assert_allclose(
        compact.expected_next(j_next), np.stack([k @ j_next for k in kernels], axis=1),
        atol=1e-12,
    )
    dist = rng.random(n)
    dist /= dist.sum()
    acts = rng.integers(0, 2, size=n)
    pushed = sum(dist[x] * kernels[acts[x], x] for x in range(n))
    np.testing.assert_allclose(compact.push_forward(dist, acts), pushed, atol=1e-12)

    costs = rng.uniform(0.0, 4.0, size=(n, 3))
    costs[0, 2] = np.inf
    mask = np.zeros(n, bool)
    mask[4] = True
    mdp = Mdp(
        horizon=1,
        state_counts=(n, n),
        dynamics=(compact,),
        stage_costs=(costs,),
        failure_masks=(np.zeros(n, bool), mask),
        initial=np.full(n, 1.0 / n),
    )
    pol, val = lagrangian_dp(mdp, 7.0)
    q = costs + 7.0 * kernels[:, :, 4].T
    best = np.argmin(q, axis=1)
    assert tuple(pol.actions[0]) == tuple(best)
    assert val == pytest.approx(q.min(axis=1).mean(), abs=1e-12)
    ev = evaluate_policy(mdp, pol)
    rows = np.arange(n)
    assert ev.expected_cost == pytest.approx(costs[rows, best].mean(), abs=1e-12)
    assert ev.failure_prob == pytest.approx(kernels[best, rows, 4].mean(), abs=1e-12)


def test_step_without_admissible_pairs_carries_no_mass():
    # every state at step 1 is a failure state, so that step has no row
    mdp = from_tables(
        horizon=2,
        states=[["s"], ["crash"], ["end"]],
        actions=[["go"], ["stay"]],
        transitions={(0, "s", "go"): {"crash": 1.0}},
        costs={(0, "s", "go"): 2.0},
        failures=[[], ["crash"], []],
        initial={"s": 1.0},
    )
    dyn = mdp.dynamics[1]
    assert dyn.spread.shape == (0, 1)
    np.testing.assert_array_equal(dyn.expected_next(np.array([3.0])), [[0.0]])
    np.testing.assert_array_equal(dyn.push_forward(np.zeros(1), np.zeros(1, int)), [0.0])
    pol, val = lagrangian_dp(mdp, 5.0)
    assert val == 7.0
    ev = evaluate_policy(mdp, pol)
    assert (ev.expected_cost, ev.failure_prob) == (2.0, 1.0)
    sol = MixedSolution(
        ((PureCandidate(pol, CostVector(2.0, (1.0,))), 1.0),),
        CostVector(2.0, (1.0,)), DualVector((5.0,)), 0.0,
    )
    run = simulate(mdp, sol, seed=0, n_rollouts=50)
    assert (run.failure_rate, run.cost_mean) == (1.0, 2.0)


def test_wilson_interval_basics():
    lo, hi = wilson_ci_99(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.07
    lo, hi = wilson_ci_99(50, 100)
    assert lo < 0.5 < hi
    lo_big, hi_big = wilson_ci_99(5000, 10000)
    assert (hi_big - lo_big) < (hi - lo)
