import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from _oracles import brute_milp_solve, mc_failures_rowmajor
from mixedctrl.cli import build_setup
from mixedctrl.core import Bounds, DualVector, InfeasibleProblemError, InvalidInputError
from mixedctrl.dual import MONOTONE_TOL
from mixedctrl.milp import solve_milp
from mixedctrl.smpc import (
    ControlPlan,
    Obstacle,
    SmpcModel,
    SmpcOracle,
    build_inner_milp,
    build_pwl_cdf,
    estimate_mixture_risk_mc,
    estimate_risk_mc,
    mean_path,
    propagate_covariance,
)

PHI_MINUS_3 = 0.0013498980316300933
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def phi_ref(y: float) -> float:
    """Normal CDF via the stdlib, independent of scipy."""
    return 0.5 * math.erfc(-y / math.sqrt(2.0))


def halfline_model(sigma=1.0, horizon=1, goal=0.0, boundary=3.0):
    """1-D walk; the 'obstacle' is the half-line x >= boundary."""
    return SmpcModel(
        a_mat=[[1.0]],
        b_mat=[[1.0]],
        sigma_w=[[sigma]],
        horizon=horizon,
        x_init=[0.0],
        x_goal=[goal],
        u_lower=[-5.0],
        u_upper=[5.0],
        obstacles=(Obstacle([[-1.0]], [-boundary]),),
    )


def gap_model():
    """Planar point mass that must skirt a unit box sitting on the straight route."""
    return SmpcModel(
        a_mat=np.eye(2),
        b_mat=np.eye(2),
        sigma_w=0.005 * np.eye(2),
        horizon=2,
        x_init=[0.0, 0.0],
        x_goal=[2.0, 0.0],
        u_lower=[-2.0, -2.0],
        u_upper=[2.0, 2.0],
        obstacles=(
            Obstacle(
                [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                [1.5, -0.5, 0.5, 0.5],
            ),
        ),
    )


def test_covariance_accumulates_noise_linearly():
    model = SmpcModel(
        a_mat=np.eye(2),
        b_mat=np.eye(2),
        sigma_w=0.01 * np.eye(2),
        horizon=5,
        x_init=[0.0, 0.0],
        x_goal=[0.0, 0.0],
        u_lower=[-1.0, -1.0],
        u_upper=[1.0, 1.0],
        obstacles=(),
    )
    covs = propagate_covariance(model)
    assert len(covs) == 6
    for i, cov in enumerate(covs):
        np.testing.assert_allclose(cov, i * 0.01 * np.eye(2), atol=1e-15)


def test_covariance_matches_direct_sum():
    rng = np.random.default_rng(4)
    a = rng.uniform(-0.8, 0.8, size=(2, 2))
    sw = rng.uniform(-0.3, 0.3, size=(2, 2))
    sw = sw @ sw.T
    model = SmpcModel(
        a_mat=a,
        b_mat=np.eye(2),
        sigma_w=sw,
        horizon=4,
        x_init=[0.0, 0.0],
        x_goal=[0.0, 0.0],
        u_lower=[-1.0, -1.0],
        u_upper=[1.0, 1.0],
        obstacles=(),
    )
    covs = propagate_covariance(model)
    for i in range(5):
        direct = sum(
            (np.linalg.matrix_power(a, j) @ sw @ np.linalg.matrix_power(a, j).T
             for j in range(i)),
            start=np.zeros((2, 2)),
        )
        np.testing.assert_allclose(covs[i], direct, atol=1e-12)


def test_pwl_chords_match_reference_cdf():
    pwl = build_pwl_cdf(2, y_min=-2.0)
    s0 = phi_ref(-1.0) - phi_ref(-2.0)
    s1 = phi_ref(0.0) - phi_ref(-1.0)
    assert pwl.slopes[0] == pytest.approx(s0, abs=1e-12)
    assert pwl.slopes[1] == pytest.approx(s1, abs=1e-12)
    assert pwl.intercepts[0] == pytest.approx(phi_ref(-2.0) + 2.0 * s0, abs=1e-12)
    assert pwl.value(0.0) == pytest.approx(0.5, abs=1e-12)
    assert pwl.value(-10.0) == 0.0


def test_pwl_is_conservative_and_tightens():
    fine = build_pwl_cdf(24)
    coarse = build_pwl_cdf(6)
    ys = np.linspace(-6.0, 0.0, 1201)
    gap_fine = max(fine.value(y) - ndtr(y) for y in ys)
    gap_coarse = max(coarse.value(y) - ndtr(y) for y in ys)
    assert all(fine.value(y) >= ndtr(y) - 1e-15 for y in ys)
    assert all(coarse.value(y) >= ndtr(y) - 1e-15 for y in ys)
    assert gap_fine < 0.002
    assert gap_fine < gap_coarse < 0.05


def test_inner_milp_structure_counts():
    model = gap_model()
    pwl = build_pwl_cdf(3)
    problem, cols = build_inner_milp(model, 10.0, pwl)
    # u, v, means, risk terms, face binaries
    assert cols.u[0, 0] == 0
    assert cols.v[0, 0] == 4
    assert cols.x[0, 0] == 8
    assert cols.delta[0, 0] == 12
    assert cols.z[0][0, 0] == 14
    assert problem.lp.num_vars == 22
    assert problem.binary == tuple(range(14, 22))
    # step 2 has all four faces open: 4 mean-outside + 4*3 chords + 1 cap.
    # Step 3 is pinned to the goal, so only the right face can separate:
    # its binary stays free with 3 chord rows (no mean-outside row, the
    # pinned mean is always past it) and the other three are never
    # separating, fixed to 1 with no rows. 1 cap row.
    assert problem.lp.num_rows == 8 + 4 + 2 + (4 + 12 + 1) + (3 + 1)
    for face in (1, 2, 3):
        zi = cols.z[0][face, 1]
        assert problem.lp.lower[zi] == problem.lp.upper[zi] == 1.0
    z_right = cols.z[0][0, 1]
    assert problem.lp.lower[z_right] == 0.0 and problem.lp.upper[z_right] == 1.0


def test_mean_ranges_use_terminal_funnel_when_state_matrix_is_identity():
    from mixedctrl.smpc import _mean_ranges

    far = (Obstacle([[-1.0]], [-50.0]),)
    pinned = SmpcModel(
        a_mat=[[1.0]],
        b_mat=[[1.0]],
        sigma_w=[[0.01]],
        horizon=2,
        x_init=[0.0],
        x_goal=[2.0],
        u_lower=[-1.0],
        u_upper=[1.0],
        obstacles=far,
    )
    ranges = _mean_ranges(pinned)
    # reaching 2.0 in two unit moves leaves no slack at either step
    assert ranges[0][0][0] == ranges[0][1][0] == pytest.approx(1.0)
    assert ranges[1][0][0] == ranges[1][1][0] == pytest.approx(2.0)

    drifting = SmpcModel(
        a_mat=[[2.0]],
        b_mat=[[1.0]],
        sigma_w=[[0.01]],
        horizon=2,
        x_init=[0.0],
        x_goal=[2.0],
        u_lower=[-1.0],
        u_upper=[1.0],
        obstacles=far,
    )
    ranges = _mean_ranges(drifting)
    # a non-identity state matrix keeps the plain forward intervals
    assert (ranges[0][0][0], ranges[0][1][0]) == (-1.0, 1.0)
    assert (ranges[1][0][0], ranges[1][1][0]) == (-3.0, 3.0)


def test_certified_group_emits_no_rows_and_pins_binaries():
    # with the goal a full unit past the box, the right face separates
    # the pinned terminal mean at 15 sigma: that one face settles the
    # whole terminal group, so it contributes no rows and no free z
    model = SmpcModel(
        a_mat=np.eye(2),
        b_mat=np.eye(2),
        sigma_w=0.005 * np.eye(2),
        horizon=2,
        x_init=[0.0, 0.0],
        x_goal=[3.0, 0.0],
        u_lower=[-2.0, -2.0],
        u_upper=[2.0, 2.0],
        obstacles=gap_model().obstacles,
    )
    problem, cols = build_inner_milp(model, 10.0, build_pwl_cdf(3))
    # step 2: right face and both y faces open (4 rows each incl. the
    # mean-outside row), left face unreachable, plus the cap row
    assert problem.lp.num_rows == 8 + 4 + 2 + (3 * 4 + 1)
    assert problem.lp.lower[cols.z[0][0, 1]] == 0.0
    assert problem.lp.upper[cols.z[0][0, 1]] == 0.0
    for face in (1, 2, 3):
        zi = cols.z[0][face, 1]
        assert problem.lp.lower[zi] == problem.lp.upper[zi] == 1.0
    # the terminal risk term is bound by nothing
    di = cols.delta[0, 1]
    assert not problem.lp.lhs[:, di].any()


def test_risk_term_follows_the_cheapest_separating_face():
    # the terminal mean sits 5 sigma past the right face but only 1
    # sigma above the top face; both separate, and the solver must be
    # free to account the tail against the far one alone
    model = SmpcModel(
        a_mat=np.eye(2),
        b_mat=np.eye(2),
        sigma_w=0.005 * np.eye(2),
        horizon=2,
        x_init=[0.0, 0.0],
        x_goal=[2.0, 0.6],
        u_lower=[-2.0, -2.0],
        u_upper=[2.0, 2.0],
        obstacles=gap_model().obstacles,
    )
    pwl = build_pwl_cdf(3)
    problem, cols = build_inner_milp(model, 1.0, pwl)
    sol = solve_milp(problem, abs_gap=1e-9)
    assert sol.status == "optimal"
    from mixedctrl.smpc import _risk_terms

    controls = sol.x[cols.u]
    terms, _ = _risk_terms(model, propagate_covariance(model), pwl, mean_path(model, controls))
    deltas = sol.x[cols.delta]
    assert deltas.sum() == pytest.approx(terms.sum(), abs=1e-6)
    # the 1-sigma top face would cost a quarter of the mass
    assert deltas.sum() < 1e-3


def test_halfplane_tail_bound_and_monte_carlo():
    model = halfline_model()
    oracle = SmpcOracle(model, Bounds((0.01,)))
    plan_cost = oracle.evaluate(ControlPlan(np.zeros((1, 1))))
    assert plan_cost.c0 == 0.0
    assert PHI_MINUS_3 <= plan_cost.c1 <= PHI_MINUS_3 + 2e-3
    est = estimate_risk_mc(model, np.zeros((1, 1)), 200_000, seed=123)
    assert est.ci99[0] <= PHI_MINUS_3 <= est.ci99[1]
    assert est.rate == pytest.approx(PHI_MINUS_3, abs=4e-4)


def test_oracle_sweep_trades_cost_for_risk():
    # obstacle interior is x >= 2; pushing the midpoint negative buys
    # safety at L1 control cost, so the sweep must trade monotonically
    model = SmpcModel(
        a_mat=[[1.0]],
        b_mat=[[1.0]],
        sigma_w=[[1.0]],
        horizon=2,
        x_init=[0.0],
        x_goal=[0.0],
        u_lower=[-5.0],
        u_upper=[5.0],
        obstacles=(Obstacle([[-1.0]], [-2.0]),),
    )
    oracle = SmpcOracle(model, Bounds((0.01,)), pwl=build_pwl_cdf(8))
    costs, risks = [], []
    for lam in (0.0, 5.0, 20.0, 100.0, 500.0):
        cand = oracle.query(DualVector((lam,)))
        costs.append(cand.cost.c0)
        risks.append(cand.cost.c1)
    for a, b in zip(risks, risks[1:]):
        assert b <= a + 1e-9
    for a, b in zip(costs, costs[1:]):
        assert b >= a - 1e-9
    assert risks[-1] < risks[0]


def test_shipped_corridor_risk_does_not_rise_from_64_to_128():
    # at HiGHS's default feasibility tolerance (1e-7) the risk terms may
    # undercut their chord rows, and the risk here rose from 0.00266682
    # to 0.00266711, which the dual search rejects as non-monotone
    config = json.loads((CONFIGS / "corridor.json").read_text(encoding="utf-8"))
    oracle = build_setup(config, CONFIGS)
    low, high = (oracle.query(DualVector((lam,))).cost.c1 for lam in (64.0, 128.0))
    assert high <= low + MONOTONE_TOL


def hop_model():
    """1-D walk that must hop over the interval [0.8, 1.2] on its way to 2.

    The binaries choose the side of the interval at each step, and the
    relaxation that lets them be fractional is cheaper than every plan.
    The continuous part stays small enough for vertex enumeration.
    """
    return SmpcModel(
        a_mat=[[1.0]],
        b_mat=[[1.0]],
        sigma_w=[[0.01]],
        horizon=2,
        x_init=[0.0],
        x_goal=[2.0],
        u_lower=[-1.5],
        u_upper=[1.5],
        obstacles=(Obstacle([[1.0], [-1.0]], [1.2, -0.8]),),
    )


def test_branch_and_bound_matches_binary_enumeration():
    problem, _ = build_inner_milp(hop_model(), 50.0, build_pwl_cdf(4))
    sol = solve_milp(problem, abs_gap=1e-9)
    assert sol.status == "optimal"
    status, best, _ = brute_milp_solve(problem.lp, problem.binary)
    assert status == "optimal"
    assert sol.objective == pytest.approx(best, abs=1e-6)


def test_query_and_evaluate_agree_exactly():
    model = gap_model()
    oracle = SmpcOracle(model, Bounds((0.01,)), pwl=build_pwl_cdf(4))
    cand = oracle.query(DualVector((25.0,)))
    again = oracle.evaluate(cand.policy)
    assert again.c0 == cand.cost.c0
    assert again.c_rest == cand.cost.c_rest
    # wide control bounds let the mean hop straight over the box between
    # steps, so the optimum is the minimum L1 effort to reach the goal
    assert cand.cost.c0 == pytest.approx(2.0, abs=1e-6)
    assert cand.cost.c1 < 1e-4
    box = model.obstacles[0]
    means = mean_path(model, cand.policy.controls)[1:]
    inside = np.all(means @ box.face_normals.T <= box.face_offsets, axis=-1)
    assert not inside.any()


def test_mean_inside_obstacle_counts_as_certain_failure():
    model = gap_model()
    oracle = SmpcOracle(model, Bounds((0.01,)))
    plan = ControlPlan(np.array([[1.0, 0.0], [1.0, 0.0]]))
    cost = oracle.evaluate(plan)
    assert cost.c_rest[0] >= 1.0


def test_infeasible_goal_reports_miss_distance():
    model = SmpcModel(
        a_mat=[[1.0]],
        b_mat=[[1.0]],
        sigma_w=[[0.01]],
        horizon=1,
        x_init=[0.0],
        x_goal=[5.0],
        u_lower=[-0.1],
        u_upper=[0.1],
        obstacles=(),
    )
    oracle = SmpcOracle(model, Bounds((0.01,)))
    with pytest.raises(InfeasibleProblemError, match="miss"):
        oracle.query(DualVector((1.0,)))


def test_infeasible_obstacle_wall_is_distinguished():
    model = SmpcModel(
        a_mat=[[1.0]],
        b_mat=[[1.0]],
        sigma_w=[[0.01]],
        horizon=1,
        x_init=[0.0],
        x_goal=[0.0],
        u_lower=[-1.0],
        u_upper=[1.0],
        obstacles=(Obstacle([[1.0], [-1.0]], [10.0, 10.0]),),
    )
    oracle = SmpcOracle(model, Bounds((0.01,)))
    with pytest.raises(InfeasibleProblemError, match="obstacle"):
        oracle.query(DualVector((1.0,)))


def test_model_validation():
    with pytest.raises(InvalidInputError, match="symmetric"):
        SmpcModel(
            a_mat=np.eye(2),
            b_mat=np.eye(2),
            sigma_w=[[0.1, 0.05], [0.0, 0.1]],
            horizon=1,
            x_init=[0.0, 0.0],
            x_goal=[0.0, 0.0],
            u_lower=[-1.0, -1.0],
            u_upper=[1.0, 1.0],
            obstacles=(),
        )
    with pytest.raises(InvalidInputError, match="finite"):
        halfline = halfline_model()
        SmpcModel(
            a_mat=halfline.a_mat,
            b_mat=halfline.b_mat,
            sigma_w=halfline.sigma_w,
            horizon=1,
            x_init=[0.0],
            x_goal=[0.0],
            u_lower=[-np.inf],
            u_upper=[1.0],
            obstacles=(),
        )
    with pytest.raises(InvalidInputError, match="state-sized"):
        SmpcModel(
            a_mat=[[1.0]],
            b_mat=[[1.0]],
            sigma_w=[[1.0]],
            horizon=1,
            x_init=[0.0],
            x_goal=[0.0],
            u_lower=[-1.0],
            u_upper=[1.0],
            obstacles=(Obstacle([[1.0, 0.0]], [1.0]),),
        )


def test_mean_path_shape_guard():
    model = halfline_model()
    with pytest.raises(InvalidInputError):
        mean_path(model, np.zeros((3, 1)))
    path = mean_path(model, np.array([[2.0]]))
    np.testing.assert_allclose(path, [[0.0], [2.0]])


def test_mixture_risk_mc_is_deterministic():
    model = halfline_model()
    from mixedctrl.core import CostVector, MixedSolution, PureCandidate

    near = ControlPlan(np.array([[2.0]]))
    far = ControlPlan(np.array([[-1.0]]))
    sol = MixedSolution(
        components=(
            (PureCandidate(near, CostVector(2.0, (0.15,))), 0.5),
            (PureCandidate(far, CostVector(1.0, (0.0001,))), 0.5),
        ),
        aggregate=CostVector(1.5, (0.07505,)),
        dual=DualVector((1.0,)),
        gap_estimate=0.0,
    )
    a = estimate_mixture_risk_mc(model, sol, 50_000, seed=9)
    b = estimate_mixture_risk_mc(model, sol, 50_000, seed=9)
    assert a == b
    exact_near = phi_ref(-1.0)  # mean 2, boundary 3, sigma 1
    exact_far = phi_ref(-4.0)
    expected = 0.5 * exact_near + 0.5 * exact_far
    assert a.ci99[0] <= expected <= a.ci99[1]


@pytest.fixture(scope="module")
def corridor_plans():
    """The shipped corridor's raw config and its plans at multipliers 0 and 100."""
    config = json.loads((CONFIGS / "corridor.json").read_text(encoding="utf-8"))
    setup = build_setup(config, CONFIGS)
    plans = [setup.query(DualVector((lam,))).policy.controls for lam in (0.0, 100.0)]
    return config, setup.model, plans


# 1-D walk with identity dynamics and diagonal noise, past the interval
# [0.8, 1.2] and towards the half-line x >= 2
_WALK = dict(
    a=[[1.0]],
    b=[[1.0]],
    sigma_w=[[0.09]],
    x_init=[0.0],
    obstacles=[([[1.0], [-1.0]], [1.2, -0.8]), ([[-1.0]], [-2.0])],
)


@pytest.mark.parametrize("n", [1, 100_000, 100_001, 250_000])
def test_sampler_counts_match_the_row_major_reference(corridor_plans, n):
    config, model, plans = corridor_plans
    shipped = dict(
        a=config["a"],
        b=config["b"],
        sigma_w=config["sigma_w"],
        x_init=config["x_init"],
        obstacles=[(o["normals"], o["offsets"]) for o in config["obstacles"]],
    )
    walk = SmpcModel(
        a_mat=_WALK["a"],
        b_mat=_WALK["b"],
        sigma_w=_WALK["sigma_w"],
        horizon=3,
        x_init=_WALK["x_init"],
        x_goal=[1.8],
        u_lower=[-1.0],
        u_upper=[1.0],
        obstacles=tuple(Obstacle(*faces) for faces in _WALK["obstacles"]),
    )
    cases = [(shipped, model, controls) for controls in plans]
    cases.append((_WALK, walk, np.array([[0.5], [0.6], [0.7]])))
    for seed, (raw, smpc_model, controls) in enumerate(cases, start=n):
        want = mc_failures_rowmajor(
            raw["a"], raw["b"], raw["sigma_w"], raw["x_init"], controls,
            raw["obstacles"], n, seed,
        )
        got = estimate_risk_mc(smpc_model, controls, n, seed)
        assert got.rate == want / n, (seed, got.rate * n, want)


def test_sampler_counts_follow_the_binomial_law():
    # one step of non-identity dynamics with correlated noise; the
    # obstacle is the half-plane normal @ x <= offset
    a_mat = np.array([[0.5, 0.2], [0.1, 0.9]])
    sigma = np.array([[1.0, 0.6], [0.6, 0.5]])
    x_init, u = np.array([1.0, 0.5]), np.array([0.3, -0.2])
    normal, offset = np.array([1.0, -2.0]), -0.3
    model = SmpcModel(
        a_mat=a_mat,
        b_mat=np.eye(2),
        sigma_w=sigma,
        horizon=1,
        x_init=x_init,
        x_goal=[0.0, 0.0],
        u_lower=[-1.0, -1.0],
        u_upper=[1.0, 1.0],
        obstacles=(Obstacle([normal], [offset]),),
    )
    mean = a_mat @ x_init + u
    p = float(ndtr((offset - normal @ mean) / math.sqrt(normal @ sigma @ normal)))
    n, seeds = 2_000, 200
    counts = np.array(
        [round(estimate_risk_mc(model, u[None, :], n, seed).rate * n) for seed in range(seeds)]
    )
    var = n * p * (1.0 - p)
    assert abs(counts.mean() - n * p) <= 4.0 * math.sqrt(var / seeds), (counts.mean(), n * p)
    assert 0.75 <= counts.var(ddof=1) / var <= 1.3, counts.var(ddof=1) / var


def test_corridor_monte_carlo_memory_stays_small(corridor_plans):
    _, model, plans = corridor_plans
    tracemalloc.start()
    try:
        estimate_risk_mc(model, plans[0], 1_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 100,000-rollout block of states alone takes 1.5 MiB
    assert peak < 8 * 2**20, peak


def skewed_model(x_goal):
    """Three states, two inputs, coupled dynamics and a B with zero entries."""
    return SmpcModel(
        a_mat=[[0.9, 0.2, 0.0], [-0.1, 1.1, 0.3], [0.0, 0.05, 0.8]],
        b_mat=[[1.0, 0.0], [0.0, 0.5], [0.3, 0.0]],
        sigma_w=0.01 * np.eye(3),
        horizon=4,
        x_init=[0.3, -0.2, 0.1],
        x_goal=x_goal,
        u_lower=[-1.0, -1.0],
        u_upper=[1.0, 1.5],
        obstacles=(),
    )


def test_dynamics_rows_hold_on_a_rolled_out_trajectory():
    from mixedctrl.smpc import _dynamics_rows

    model = skewed_model([0.0, 0.0, 0.0])
    a, b = model.a_mat, model.b_mat
    big_n, n, m = 4, 3, 2
    u_cols = np.arange(big_n * m).reshape(big_n, m)
    x_cols = big_n * m + np.arange(big_n * n).reshape(big_n, n)
    lhs, rhs = _dynamics_rows(model, u_cols, x_cols, big_n * (m + n))
    assert lhs.shape == (big_n * n, big_n * (m + n)) and rhs.shape == (big_n * n,)
    rng = np.random.default_rng(3)
    for _ in range(20):
        controls = rng.uniform(model.u_lower, model.u_upper, size=(big_n, m))
        states, rolled = [np.array([0.3, -0.2, 0.1])], [np.array([0.3, -0.2, 0.1])]
        for k in range(big_n):
            states.append(a @ states[-1] + b @ controls[k])
            rolled.append(a.T @ rolled[-1] + b @ controls[k])
        np.testing.assert_allclose(lhs @ np.concatenate([controls.ravel(), *states[1:]]), rhs,
                                   atol=1e-12)
        # a trajectory of the transposed dynamics breaks them
        wrong = lhs @ np.concatenate([controls.ravel(), *rolled[1:]]) - rhs
        assert np.abs(wrong).max() > 1e-3


def test_unreachable_goal_of_coupled_dynamics_reports_its_miss():
    # the terminal mean is affine in the stacked controls; the smallest
    # L1 miss from the goal is a small LP in the controls alone
    from scipy.optimize import linprog

    from mixedctrl.smpc import diagnose_infeasible

    goal = np.array([6.0, -4.0, 2.0])
    model = skewed_model(goal)
    a, b = model.a_mat, model.b_mat
    big_n, n, m = 4, 3, 2
    gain = np.hstack([np.linalg.matrix_power(a, big_n - 1 - k) @ b for k in range(big_n)])
    free = np.linalg.matrix_power(a, big_n) @ model.x_init
    # variables: controls (N*m) then slacks s >= |gain u + free - goal|
    cost = np.concatenate([np.zeros(big_n * m), np.ones(n)])
    a_ub = np.block([[gain, -np.eye(n)], [-gain, -np.eye(n)]])
    b_ub = np.concatenate([goal - free, free - goal])
    bounds = [(lo, hi) for lo, hi in zip(np.tile(model.u_lower, big_n),
                                          np.tile(model.u_upper, big_n))]
    ref = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds + [(0, None)] * n)
    assert ref.status == 0 and ref.fun > 1.0
    message = diagnose_infeasible(model)
    assert message.startswith("terminal stage 4 cannot reach the goal, best L1 miss ")
    assert float(message.rsplit(" ", 1)[1]) == pytest.approx(ref.fun, rel=1e-5)
    with pytest.raises(InfeasibleProblemError, match="terminal stage 4"):
        SmpcOracle(model, Bounds((0.01,))).query(DualVector((1.0,)))

    # a rolled-out endpoint is reachable, so no miss is reported
    state = model.x_init
    for k in range(big_n):
        state = a @ state + b @ np.array([0.5, -0.5])
    reachable = diagnose_infeasible(skewed_model(state))
    assert reachable == "goal reachable but obstacle constraints cannot all be met"
