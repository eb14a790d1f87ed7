import math
import tracemalloc
import warnings
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
    CostVector,
    InvalidInputError,
    InvalidPolicyError,
    MixedSolution,
    PureCandidate,
    wilson_ci_99,
)
from mixedctrl.dual import check_optimality, solve_mixed_scalar

from _oracles import (
    brute_policy_costs,
    path_moments,
    policy_csv_per_row,
    random_tiny_mdp,
    read_policy_csv_per_row,
    simulate_per_state,
)

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


def test_tied_actions_return_the_safe_one_alone():
    # two actions of equal cost; at lambda = 0 the sweep picks the riskier,
    # and mixing it in would add risk and save nothing
    mdp = from_tables(
        horizon=1,
        states=[["s"], ["ok", "crash"]],
        actions=[["a", "b"]],
        transitions={
            (0, "s", "a"): {"ok": 0.98, "crash": 0.02},
            (0, "s", "b"): {"ok": 0.995, "crash": 0.005},
        },
        costs={(0, "s", "a"): 1.0, (0, "s", "b"): 1.0},
        failures=[[], ["crash"]],
        initial={"s": 1.0},
    )
    queries, solution = solve_mixed_scalar(MdpOracle(mdp, 0.01))
    assert solution.dual == 0.0
    assert len(queries) == 2
    ((cand, p),) = solution.components
    assert p == 1.0
    assert cand.policy.actions[0][0] == 1
    assert cand.cost.c0 == 1.0
    assert cand.cost.c1 == pytest.approx(0.005, abs=1e-15)


def test_chain_evaluate_frozen_values():
    mdp = chain_mdp()
    risky = Policy((np.array([0]),))
    safe = Policy((np.array([1]),))
    ev = evaluate_policy(mdp, risky)
    assert ev.c0 == pytest.approx(1.0, abs=1e-12)
    assert ev.c1 == pytest.approx(0.5, abs=1e-12)
    ev = evaluate_policy(mdp, safe)
    assert ev.c0 == pytest.approx(3.0, abs=1e-12)
    assert ev.c1 == 0.0


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
    assert ev.c0 == pytest.approx(2.0 + 0.6 * 1.0, abs=1e-12)
    assert ev.c1 == pytest.approx(0.4 + 0.6 * 0.3, abs=1e-12)
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
                ev.c0 + lam * ev.c1, abs=1e-9
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
    oracle = MdpOracle(mdp, 0.1)
    grid = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0]
    cands = [oracle.query(lam) for lam in grid]
    risks = [c.cost.c1 for c in cands]
    costs = [c.cost.c0 for c in cands]
    for a, b in zip(risks, risks[1:]):
        assert b <= a + 1e-12
    for a, b in zip(costs, costs[1:]):
        assert b >= a - 1e-12


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
            dynamics=(ShiftSpread(np.array([[0], [0]]), sp.csr_matrix([[1.0]])),),
            stage_costs=(np.array([[1.0], [np.inf]]),),
            failure_masks=(np.zeros(2, bool), np.zeros(1, bool)),
            initial=np.array([0.5, 0.5]),
        )


def _rowless_mdp(spread_rows, initial, fail_1=(False, False)):
    """Two steps over states {0, 1}; only state 0 has a row at either step.

    At each step state 0's one action uses spread row 0 of ``spread_rows``.
    """
    dyn = ShiftSpread(np.array([[0]]), sp.csr_matrix(spread_rows), states=[0], num_states=2)
    return Mdp(
        dynamics=(dyn, dyn),
        stage_costs=(np.array([[1.0]]), np.array([[2.0]])),
        failure_masks=(np.zeros(2, bool), np.array(fail_1), np.array([False, True])),
        initial=np.asarray(initial, float),
    )


def test_a_state_without_a_row_must_be_out_of_reach(tmp_path):
    stay = [[1.0, 0.0]]
    mdp = _rowless_mdp(stay, [1.0, 0.0])  # state 1 is never reached
    policy, value = lagrangian_dp(mdp, 4.0)
    assert [a.tolist() for a in policy.actions] == [[0, -1], [0, -1]] and value == 3.0
    assert evaluate_policy(mdp, policy) == CostVector(3.0, 0.0)
    with pytest.raises(InvalidInputError, match="state 1 has no row"):
        mdp.dynamics[0].row(1, 0)
    inadmissible = ShiftSpread(np.array([[0], [-1]]), sp.csr_matrix([[1.0]]))
    with pytest.raises(InvalidInputError, match="action 0 has no target at state 1"):
        inadmissible.row(1, 0)
    # a table that also lists the row-less state loads without it
    oracle = MdpOracle(mdp, 0.1)
    (tmp_path / "p.csv").write_text("step,state,action\n0,0,0\n0,1,0\n1,1,0\n1,0,0\n", "utf-8")
    loaded = oracle.load("p.csv", tmp_path)
    assert [a.tolist() for a in loaded.actions] == [[0, -1], [0, -1]]
    ref = oracle.save(loaded, "round", tmp_path)
    assert (tmp_path / ref).read_text("utf-8") == "step,state,action\n0,0,0\n1,0,0\n"

    with pytest.raises(InvalidInputError, match="state 1 at step 0 has no row, but the initial"):
        _rowless_mdp(stay, [0.5, 0.5])
    split = [[0.5, 0.5]]
    with pytest.raises(InvalidInputError, match="state 1 at step 1 has no row, but the initial"):
        _rowless_mdp(split, [1.0, 0.0])
    # a failure state needs no row, reached or not
    failing = _rowless_mdp(split, [1.0, 0.0], fail_1=(False, True))
    assert evaluate_policy(failing, lagrangian_dp(failing, 4.0)[0]) == CostVector(2.0, 0.75)


def test_a_spread_is_checked_when_built_and_names_its_bad_row():
    uneven = sp.csr_matrix([[1.0, 0.0], [0.4, 0.5]])
    with pytest.raises(InvalidInputError, match=r"spread row 1 sums to 0\.9"):
        ShiftSpread(np.array([[0], [1]]), uneven)
    negative = sp.csr_matrix([[1.0, 0.0], [1.5, -0.5]])
    with pytest.raises(InvalidInputError, match="negative probability in spread row 1"):
        ShiftSpread(np.array([[0], [1]]), negative)


def test_check_pairs_names_the_first_pair_without_a_filled_row():
    # action 1 has no target at state 0, action 0 none at state 2: the lower action is named
    targets = np.array([[0, -1], [0, 0], [-1, 0]])
    with pytest.raises(
        InvalidInputError, match="action 0 marked admissible but has no target at state 2"
    ):
        ShiftSpread(targets, sp.csr_matrix([[1.0]])).check_pairs(np.ones((3, 2), bool))
    # an inadmissible pair needs no target
    admissible = np.array([[True, False], [True, True], [False, True]])
    ShiftSpread(targets, sp.csr_matrix([[1.0]])).check_pairs(admissible)
    # an empty spread row may stand unused, but no admissible pair may use it
    gap = sp.csr_matrix((np.array([1.0]), np.array([0]), np.array([0, 1, 1])), shape=(2, 1))
    ShiftSpread(np.array([[0], [1]]), gap).check_pairs(np.array([[True], [False]]))
    with pytest.raises(InvalidInputError, match="action 0 at state 1 uses the empty spread row 1"):
        ShiftSpread(np.array([[0], [1]]), gap).check_pairs(np.ones((2, 1), bool))


def test_an_mdp_reads_its_horizon_and_state_counts_off_its_tables():
    for name in ("desk_grid", "landing"):
        built = build_setup(load_config(CONFIGS / f"{name}.json"), CONFIGS).mdp
        mdp = Mdp(
            dynamics=built.dynamics,
            stage_costs=built.stage_costs,
            failure_masks=built.failure_masks,
            initial=built.initial,
        )
        assert mdp.horizon == len(mdp.dynamics) == {"desk_grid": 15, "landing": 3}[name]
        assert mdp.state_counts == tuple(len(mask) for mask in mdp.failure_masks)
        assert len(mdp.state_counts) == mdp.horizon + 1
    with pytest.raises(InvalidInputError, match="one more entry than dynamics"):
        Mdp(built.dynamics, built.stage_costs, built.failure_masks[:-1], built.initial)
    with pytest.raises(InvalidInputError, match="one table per dynamics"):
        Mdp(built.dynamics, built.stage_costs[:-1], built.failure_masks, built.initial)
    with pytest.raises(InvalidInputError, match="dynamics at step 0 have wrong shape"):
        Mdp(built.dynamics, built.stage_costs,
            built.failure_masks[:1] + (np.zeros(3, bool),) + built.failure_masks[2:],
            built.initial)


def test_policy_errors():
    mdp = chain_mdp()
    with pytest.raises(InvalidPolicyError, match="no action"):
        evaluate_policy(mdp, Policy((np.array([-1]),)))
    with pytest.raises(InvalidPolicyError):
        evaluate_policy(mdp, Policy((np.array([0]), np.array([0, 0]))))


def test_oracle_pipeline_recovers_two_policy_mixture():
    mdp = chain_mdp()
    oracle = MdpOracle(mdp, 0.1)
    _, sol = solve_mixed_scalar(oracle)
    assert sol.aggregate.c1 == pytest.approx(0.1, abs=1e-9)
    # p*1 + (1-p)*3 with 0.5p = 0.1 gives cost 2.6
    assert sol.aggregate.c0 == pytest.approx(2.6, abs=1e-6)
    probs = sorted(sol.probabilities)
    assert probs == pytest.approx([0.2, 0.8], abs=1e-6)
    report = check_optimality(sol, oracle)
    assert report.overall
    assert report.q_star <= 2.6 + 1e-9


def test_simulate_mixture_covers_exact_risk():
    mdp = chain_mdp()
    _, sol = solve_mixed_scalar(MdpOracle(mdp, 0.1))
    summary = simulate(mdp, sol, seed=7, n_rollouts=4000)
    lo, hi = summary.ci99
    assert lo <= 0.1 <= hi
    assert summary.cost_mean == pytest.approx(2.6, abs=0.06)
    again = simulate(mdp, sol, seed=7, n_rollouts=4000)
    assert again == summary


def test_simulate_deterministic_policy_is_exact():
    mdp = chain_mdp()
    oracle = MdpOracle(mdp, 0.1)
    cand = oracle.query(1e6)
    sol = MixedSolution(components=((cand, 1.0),))
    summary = simulate(mdp, sol, seed=3, n_rollouts=200)
    assert summary.cost_mean == 3.0
    assert summary.failure_rate == 0.0
    assert summary.ci99[0] == 0.0


def _single(policy, cost=CostVector(1.0, 0.5)):
    cand = PureCandidate(policy, cost)
    return MixedSolution(((cand, 1.0),))


def test_simulate_errors():
    mdp = chain_mdp()
    with pytest.raises(InvalidPolicyError, match="undefined action at step 0"):
        simulate(mdp, _single(Policy((np.array([-1]),))), seed=0, n_rollouts=10)
    with pytest.raises(InvalidPolicyError, match="MDP policies"):
        simulate(mdp, _single("not a policy"), seed=0, n_rollouts=10)
    with pytest.raises(InvalidInputError, match="at least one rollout"):
        simulate(mdp, _single(Policy((np.array([0]),))), seed=0, n_rollouts=0)
    only_a = from_tables(
        1, [["s"], ["ok"]], [["a", "b"]], {(0, "s", "a"): {"ok": 1.0}},
        {(0, "s", "a"): 1.0}, [[], []], {"s": 1.0},
    )
    with pytest.raises(InvalidPolicyError, match="inadmissible action at step 0"):
        simulate(only_a, _single(Policy((np.array([1]),))), seed=0, n_rollouts=10)


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
        assert (ev.c1, ev.c0) == pytest.approx((r, m), abs=1e-12)
        components.append((PureCandidate(policy, CostVector(m, r)), weight))
        risk, mean, square = risk + weight * r, mean + weight * m, square + weight * m2
    solution = MixedSolution(tuple(components))

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
    _, solution = solve_mixed_scalar(setup)
    rows = []
    make_rng = np.random.default_rng

    class CountingRng:
        """A generator that records how many rows of probabilities each draw gets."""

        def __init__(self, seed):
            self.rng = make_rng(seed)

        def multinomial(self, n, pvals):
            rows.append(math.prod(np.shape(pvals)[:-1]))
            return self.rng.multinomial(n, pvals)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    for n in (1_000, 1_000_000):
        rows.clear()
        tracemalloc.start()
        try:
            simulate(setup.mdp, solution, seed=11, n_rollouts=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < sum(rows) <= sum(setup.mdp.state_counts), (n, rows)
        # one float64 per rollout alone would take 8 MB at n = 1e6
        assert peak < 2**20, (n, peak)


@pytest.fixture(scope="module")
def reference_mixtures():
    """(name, mdp, two-policy mixture): random tiny MDPs and the shipped MDP configs."""
    rng = np.random.default_rng(5)
    cases = []
    for i in range(6):
        mdp = random_tiny_mdp(rng)
        oracle = MdpOracle(mdp, 0.1)
        weight = float(rng.uniform(0.1, 0.9))
        components = ((oracle.query(0.0), weight), (oracle.query(40.0), 1.0 - weight))
        cases.append((f"tiny-{i}", mdp, MixedSolution(components)))
    for name in ("desk_grid", "landing"):
        setup = build_setup(load_config(CONFIGS / f"{name}.json"), CONFIGS)
        cases.append((name, setup.mdp, solve_mixed_scalar(setup)[1]))
    return cases


def test_count_sampler_matches_the_per_state_reference(reference_mixtures, monkeypatch):
    made = []
    make_rng = np.random.default_rng

    def recorded_rng(seed):
        made.append(make_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recorded_rng)
    for name, mdp, solution in reference_mixtures:
        for seed, n in ((0, 1), (1, 37), (2, 1000), (3, 100_000)):
            want_failures, want_cost, want_rng = simulate_per_state(mdp, solution, seed, n)
            made.clear()
            got = simulate(mdp, solution, seed, n)
            assert (got.failures, got.cost_mean) == (want_failures, want_cost / n), (name, n)
            # the same draws, in the same order, from the same stream
            assert made[-1].bit_generator.state == want_rng.bit_generator.state, (name, n)


def test_count_sampler_is_exact_beyond_float_precision():
    # two states merge into one, which moves on surely or splits: every
    # count is an integer above 2**53, where float64 would round it
    transitions = {
        (0, "s0", "go"): {"m": 1.0},
        (0, "s1", "go"): {"m": 1.0},
        (1, "m", "sure"): {"ok": 1.0},
        (1, "m", "coin"): {"ok": 0.5, "bad": 0.5},
    }
    mdp = from_tables(
        2, [["s0", "s1"], ["m"], ["ok", "bad"]], [["go"], ["sure", "coin"]], transitions,
        dict.fromkeys(transitions, 1.0), [[], [], ["bad"]], {"s0": 0.5, "s1": 0.5},
    )
    for action in (0, 1):
        solution = _single(Policy((np.array([0, 0]), np.array([action]))))
        for n in (2**53 + 1, 2**63 - 1):
            want_failures, want_cost, _ = simulate_per_state(mdp, solution, 4, n)
            got = simulate(mdp, solution, 4, n)
            assert (got.failures, got.cost_mean) == (want_failures, want_cost / n), (action, n)
            assert 0 <= got.failures <= n and (got.failures == 0) == (action == 0)


def test_padded_rows_are_the_spread_rows_right_aligned(reference_mixtures):
    for name, mdp, _ in reference_mixtures:
        for dyn in {id(d): d for d in mdp.dynamics}.values():
            rows = np.unique(dyn.targets[dyn.targets >= 0])
            cols, probs = dyn.padded_rows(rows)
            for t, c, p in zip(rows.tolist(), cols, probs):
                sl = slice(dyn.spread.indptr[t], dyn.spread.indptr[t + 1])
                pvals = dyn.spread.data[sl]
                lead = len(p) - len(pvals)
                # the same floats as dividing the row alone by its sum, zeros in front
                assert np.array_equal(p[lead:], pvals / pvals.sum()), (name, t)
                assert np.array_equal(c[lead:], dyn.spread.indices[sl]) and not p[:lead].any()


def test_policy_files_match_the_per_row_reference(reference_mixtures, tmp_path):
    rng = np.random.default_rng(9)
    for name, mdp, solution in reference_mixtures:
        oracle = MdpOracle(mdp, 0.1)
        for i, (cand, _) in enumerate(solution.components):
            ref = oracle.save(cand.policy, f"{name}-{i}", tmp_path)
            text = (tmp_path / ref).read_text(encoding="utf-8")
            assert text == policy_csv_per_row(cand.policy.actions), name
            # rows in any order, with the spacing and signs that int() accepts
            lines = text.splitlines()
            body = [lines[1 + j] for j in rng.permutation(len(lines) - 1)]
            if body:
                body[0] = " +" + body[0].replace(",", " ,", 1)
            shuffled = "\n".join([lines[0], *body]) + "\n"
            for table in (text, shuffled):
                (tmp_path / ref).write_text(table, encoding="utf-8")
                got = oracle.load(ref, tmp_path).actions
                want = read_policy_csv_per_row(mdp, table)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)
                    assert g.dtype == w.dtype


@pytest.mark.parametrize(
    "row",
    ["0,1", "0,1,2,3", "", "a,b,c", "0,1.0,0", "-1,0,0", "0,-1,0", "0,0,-1", "0,0,7",
     "99999999999999999999,0,0", "0,99999999999999999999,0", "0,0,99999999999999999999"],
)
def test_policy_loader_names_the_first_bad_row_like_the_reference(tmp_path, row):
    mdp = chain_mdp()
    oracle = MdpOracle(mdp, 0.1)
    # a good row, the bad one, then a row that is bad in another way
    text = "step,state,action\n0,0,1\n" + row + "\n0,5,0\n"
    with pytest.raises(ValueError) as want:
        read_policy_csv_per_row(mdp, text)
    (tmp_path / "p.csv").write_text(text, encoding="utf-8")
    with pytest.raises(InvalidInputError) as got:
        oracle.load("p.csv", tmp_path)
    assert str(got.value) == f"{tmp_path / 'p.csv'} {want.value}"


@pytest.mark.parametrize(
    "rows, named, message",
    [
        (["0,0,1", "", "0,0,0"], "", "has a bad row"),  # numpy's reader skips blank lines
        (["0,0,1", "# 0,0,0"], "# 0,0,0", "has a bad row"),  # '#' starts no comment
        (["0,0,9223372036854775808"], None, "references action 9223372036854775808 at step 0"),
        (["-9223372036854775809,0,0"], None, "references step -9223372036854775809, state 0"),
        (["0,0", "0,0"], "0,0", "has a bad row"),  # a whole table of two fields
        (["0,0,1,0", "0,0,1,0"], "0,0,1,0", "has a bad row"),  # ... or of four
        # int() reads these as 1; the table grammar is ASCII digits only
        (["0,0,0_1"], "0,0,0_1", "has a bad row"),
        (["0,0,\u0661"], "0,0,\u0661", "has a bad row"),  # Arabic-Indic one
        (["0,0,\uff11"], "0,0,\uff11", "has a bad row"),  # fullwidth one
        (["0,0,\xa01"], "0,0,\xa01", "has a bad row"),  # no-break space
        # numpy's reader would take this Devanagari two for 2360
        (["0,0,\u0968"], "0,0,\u0968", "has a bad row"),
    ],
)
def test_policy_loader_rejects_rows_outside_the_table_grammar(tmp_path, rows, named, message):
    oracle = MdpOracle(chain_mdp(), 0.1)
    (tmp_path / "p.csv").write_text("\n".join(["step,state,action", *rows]) + "\n", "utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError) as got:
            oracle.load("p.csv", tmp_path)
    assert message in str(got.value)
    if named is not None:
        assert str(got.value).endswith(f"{message} {named!r}")


def test_policy_loader_keeps_the_empty_table_and_the_spacing_it_allows(tmp_path):
    oracle = MdpOracle(chain_mdp(), 0.1)
    cases = {
        "step,state,action\n": -1,  # no rows: no action anywhere
        "step,state,action\n 0 ,\t+0, 01 \n": 1,
        "step,state,action\r\n-0,0,0\r\n": 0,
    }
    for text, action in cases.items():
        (tmp_path / "p.csv").write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (got,) = oracle.load("p.csv", tmp_path).actions
        assert got.dtype == np.int64 and got.tolist() == [action]


def test_policy_loader_names_every_row_it_rejects(tmp_path):
    # the array parse and the row-by-row reading that names a bad row use
    # one grammar: no rejected file falls through without a named row
    oracle = MdpOracle(chain_mdp(), 0.1)
    rng = np.random.default_rng(8)
    fields = ["0", "1", " 0 ", "+1", "\t01", "-0", "2", "0_1", "\u0661", "\u0968", "\xa01",
              "1\x1f", "99999999999999999999", "", "x", "#0", "0 1"]
    outcomes = set()
    for _ in range(1500):
        line = ",".join(rng.choice(fields, size=int(rng.choice([1, 2, 3, 3, 3, 3, 4]))))
        (tmp_path / "p.csv").write_text(f"step,state,action\n{line}\n", encoding="utf-8")
        try:
            oracle.load("p.csv", tmp_path)
            outcomes.add("loaded")
        except InvalidInputError as exc:
            assert f" {line!r}" in str(exc) or "references" in str(exc), (line, str(exc))
            outcomes.add(str(exc).split(" ")[1])
    assert {"loaded", "has", "references"} <= outcomes


def test_spread_rows_are_checked_once_and_pairs_once_per_triple(monkeypatch):
    with pytest.raises(InvalidInputError, match=r"spread row 1 sums to 0\.6"):
        ShiftSpread(np.array([[0], [1]]), sp.csr_matrix([[1.0, 0.0], [0.3, 0.3]]))
    good = ShiftSpread(np.array([[0], [1]]), sp.csr_matrix([[1.0, 0.0], [0.0, 1.0]]))
    calls = []
    real = ShiftSpread.check_pairs

    def counted(self, admissible):
        calls.append(self)
        return real(self, admissible)

    monkeypatch.setattr(ShiftSpread, "check_pairs", counted)

    def build(dynamics, costs):
        return Mdp(
            dynamics=tuple(dynamics),
            stage_costs=tuple(costs),
            failure_masks=(np.zeros(2, bool),) * (len(dynamics) + 1),
            initial=np.array([1.0, 0.0]),
        )

    ones = np.ones((2, 1))
    build([good] * 4, [ones, 2 * ones, ones, ones])
    assert calls == [good, good]  # two (dynamics, costs, mask) triples: two pair checks
    # the spread's rows were checked when it was built, and an Mdp reads
    # none of their sums: spoiling them now goes unseen
    good.spread.data[:] = 0.3
    calls.clear()
    build([good] * 2, [ones] * 2)
    assert calls == [good]
    # the same spread under another cost table is checked again
    calls.clear()
    holes = ShiftSpread(np.array([[0, 0], [-1, 0]]), sp.csr_matrix([[1.0, 0.0]]))
    with pytest.raises(InvalidInputError, match="action 0 marked admissible but has no target"):
        build([holes, holes], [np.array([[1.0, 1.0], [np.inf, 1.0]]), np.ones((2, 2))])
    assert calls == [holes, holes]


def test_a_step_is_checked_unless_its_dynamics_costs_and_mask_were(monkeypatch):
    dyn = ShiftSpread(np.array([[0], [1]]), sp.csr_matrix([[1.0, 0.0], [0.0, 1.0]]))
    calls = []
    real = np.isfinite

    def counted(x, *args, **kwargs):
        calls.append(x.shape)
        return real(x, *args, **kwargs)

    def build(costs, masks):
        return Mdp(
            dynamics=(dyn,) * len(costs),
            stage_costs=tuple(costs),
            failure_masks=tuple(masks) + (np.zeros(2, bool),),
            initial=np.array([1.0, 0.0]),
        )

    # state 1 has no admissible action: fine while it is a failure state
    cost = np.array([[1.0], [np.inf]])
    failed, alive = np.array([False, True]), np.zeros(2, bool)
    monkeypatch.setattr(np, "isfinite", counted)
    build([cost] * 4, [failed] * 4)
    assert len(calls) == 1  # one (dynamics, costs, mask) triple
    with pytest.raises(InvalidInputError, match="alive state 1 at step 3 has no admissible"):
        build([cost] * 4, [failed] * 3 + [alive])
    with pytest.raises(InvalidInputError, match="NaN stage cost at step 2"):
        build([cost, cost, np.array([[1.0], [np.nan]])], [failed] * 3)


def test_shift_spread_matches_explicit_matrices():
    rng = np.random.default_rng(15)
    n = 6
    spread = rng.random((n + 1, n)) + 0.05
    spread /= spread.sum(axis=1, keepdims=True)
    targets = rng.integers(0, n + 1, size=(n, 3))
    targets[0, 2] = -1  # one inadmissible pair
    compact = ShiftSpread(targets, sp.csr_matrix(spread))
    # dense kernel of each action; the inadmissible row stays zero
    kernels = np.zeros((3, n, n))
    for a in range(3):
        for x in range(n):
            if targets[x, a] >= 0:
                kernels[a, x] = spread[targets[x, a]]

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
    assert ev.c0 == pytest.approx(costs[rows, best].mean(), abs=1e-12)
    assert ev.c1 == pytest.approx(kernels[best, rows, 4].mean(), abs=1e-12)


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
    assert (ev.c0, ev.c1) == (2.0, 1.0)
    sol = MixedSolution(((PureCandidate(pol, CostVector(2.0, 1.0)), 1.0),))
    run = simulate(mdp, sol, seed=0, n_rollouts=50)
    assert (run.failure_rate, run.cost_mean) == (1.0, 2.0)


def test_wilson_interval_basics():
    lo, hi = wilson_ci_99(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.07
    lo, hi = wilson_ci_99(50, 100)
    assert lo < 0.5 < hi
    lo_big, hi_big = wilson_ci_99(5000, 10000)
    assert (hi_big - lo_big) < (hi - lo)
