"""Acceptance gate: one test per shipped criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s``, and in the failure report otherwise) and then asserts, so
the suite verdict and the human-readable summary cannot drift apart.
Criterion 2 replays published mixture recoveries. Their component risks
are printed to a few digits, so each is read as the interval of values
that round to its printed digits (half a unit in the last printed place,
taken from the digits themselves). A replay passes when each published
probability window meets the probabilities reachable over that input
box; the published windows themselves are kept as printed.
"""

from __future__ import annotations

import json
import time
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from _oracles import (
    brute_lp_solve,
    brute_milp_solve,
    brute_mixed_lp,
    brute_policy_costs,
    brute_pure_best,
    brute_scalar_dual,
    random_box_lp,
    random_milp,
    random_tiny_mdp,
)
from mixedctrl.ccmdp import MdpOracle, lagrangian_dp, simulate
from mixedctrl.cli import build_setup, load_config
from mixedctrl.cli import main as cli_main
from mixedctrl.core import CostVector, PureCandidate
from mixedctrl.dual import check_optimality, recover_mixture_scalar, solve_mixed_scalar
from mixedctrl.milp import MilpProblem, solve_lp, solve_milp
from mixedctrl.scenarios import FiniteSetOracle, parse_grid_map
from mixedctrl.smpc import PWL_Y_MIN, build_pwl_cdf, estimate_mixture_risk_mc

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _shipped(name: str):
    """The oracle of a shipped config."""
    return build_setup(load_config(CONFIGS / f"{name}.json"), CONFIGS)


@pytest.fixture(scope="module")
def corridor_run():
    setup = _shipped("corridor")
    started = time.perf_counter()
    queries, solution = solve_mixed_scalar(setup)
    return setup, queries, solution, time.perf_counter() - started


def test_criterion_1_toy_pipeline():
    oracle = _shipped("toy")
    started = time.perf_counter()
    _, solution = solve_mixed_scalar(oracle)
    elapsed = time.perf_counter() - started

    ok = (
        abs(solution.dual - 1000.0) <= 1e-3
        and sorted(solution.probabilities) == pytest.approx([0.5, 0.5], abs=1e-9)
        and solution.aggregate.c0 == pytest.approx(15.0, abs=1e-9)
        and solution.aggregate.c1 == pytest.approx(0.01, abs=1e-9)
        and elapsed < 1.0
    )
    _verdict(1, ok, f"lambda*={solution.dual:.6f}, {elapsed:.3f}s")
    assert ok


def _printed_range(text: str) -> tuple[float, float]:
    """The values that round to ``text`` at the precision it is printed to."""
    printed = Decimal(text)
    half_unit = Decimal(5).scaleb(printed.as_tuple().exponent - 1)
    return float(printed - half_unit), float(printed + half_unit)


def test_criterion_2_recovery_replays():
    # published (cost, risk) of the lower and upper endpoints; risks are kept
    # as printed so their precision reaches the replay
    replays = (
        ("2a", (3.692, "0.0278"), (4.175, "0.0021"), 0.01, (0.306, 0.694), 0.001,
         4.027, 0.001),
        ("2b", (98.7, "0.0228"), (130.8, "0.0064"), 0.02, (0.83, 0.17), 0.005,
         104.2, 0.2),
        ("2c", (44.9, "0.00574"), (45.3, "0.00016"), 0.001, (0.151, 0.849), 0.002,
         None, None),
    )
    details, failures = [], []
    for name, lo, hi, v, probs, ptol, cost, ctol in replays:

        def recover(r_lo: float, r_hi: float):
            lower = PureCandidate(0, CostVector(lo[0], r_lo))
            upper = PureCandidate(1, CostVector(hi[0], r_hi))
            return recover_mixture_scalar(lower, upper, v)

        # the weights are monotone in each risk, so the corners of the box of
        # inputs that print as published bound every reachable weight
        corners = [
            recover(r_lo, r_hi).probabilities
            for r_lo in _printed_range(lo[1])
            for r_hi in _printed_range(hi[1])
        ]
        for reached, want in zip(zip(*corners), probs):
            low, high = min(reached), max(reached)
            line = f"{name} probability [{low:.5f}, {high:.5f}] vs {want}+-{ptol}"
            if want + ptol < low or want - ptol > high:
                line += " MISSED"
                failures.append(line)
            details.append(line)
        sol = recover(float(lo[1]), float(hi[1]))
        if cost is not None and abs(sol.aggregate.c0 - cost) > ctol:
            failures.append(f"{name} aggregate {sol.aggregate.c0:.4f} vs {cost}+-{ctol}")
            details.append(failures[-1])
        if abs(sol.aggregate.c1 - v) > 1e-12:
            failures.append(f"{name} risk {sol.aggregate.c1!r} != {v}")
            details.append(failures[-1])
    _verdict(2, not failures, "; ".join(details))
    assert not failures, failures


def test_criterion_3_mixed_equals_dual_equals_pure_minus_gap():
    started = time.perf_counter()
    rng = np.random.default_rng(20240)

    def check(costs, v):
        pure = brute_pure_best(costs, v)
        q_ref, _ = brute_scalar_dual(costs, v)
        mixed_ref = brute_mixed_lp(costs, v)
        _, solution = solve_mixed_scalar(FiniteSetOracle(costs, v))
        got = solution.aggregate.c0
        assert pure is not None and mixed_ref is not None
        gap = pure - q_ref
        assert got == pytest.approx(q_ref, abs=1e-6)
        assert got == pytest.approx(mixed_ref, abs=1e-6)
        assert got == pytest.approx(pure - gap, abs=1e-6)
        assert got <= pure + 1e-9
        assert solution.aggregate.c1 <= v + 1e-9

    for _ in range(200):
        n = int(rng.integers(1, 9))
        costs = [
            CostVector(float(c0), float(c1))
            for c0, c1 in zip(rng.uniform(0, 10, n), rng.uniform(0, 0.1, n))
        ]
        v = float(costs[int(rng.integers(0, n))].c1 + rng.uniform(0, 0.05))
        check(costs, v)

    for _ in range(50):
        mdp = random_tiny_mdp(rng)
        triples = brute_policy_costs(mdp)
        costs = [CostVector(c0, c1) for _, c0, c1 in triples]
        v = float(costs[int(rng.integers(0, len(costs)))].c1 + 1e-9)
        pure = brute_pure_best(costs, v)
        q_ref, _ = brute_scalar_dual(costs, v)
        mixed_ref = brute_mixed_lp(costs, v)
        _, solution = solve_mixed_scalar(MdpOracle(mdp, v))
        got = solution.aggregate.c0
        assert got == pytest.approx(q_ref, abs=1e-6)
        assert got == pytest.approx(mixed_ref, abs=1e-6)
        assert got == pytest.approx(pure - (pure - q_ref), abs=1e-6)
        assert got <= pure + 1e-9

    elapsed = time.perf_counter() - started
    _verdict(3, elapsed < 120, f"200 finite sets + 50 MDPs agree, {elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_4_active_constraint_risk_is_exact(corridor_run):
    setup, corridor_queries, corridor_solution, _ = corridor_run
    runs = []

    toy = _shipped("toy")
    runs.append(("toy", *solve_mixed_scalar(toy), toy.risk_bound))
    grid = _shipped("desk_grid")
    runs.append(("grid", *solve_mixed_scalar(grid), grid.risk_bound))
    edl = _shipped("landing")
    runs.append(("edl", *solve_mixed_scalar(edl), edl.risk_bound))
    runs.append(("smpc", corridor_queries, corridor_solution, setup.risk_bound))

    details = []
    ok = True
    for name, _, solution, bound in runs:
        assert solution.dual > 1e-6, f"{name} constraint unexpectedly inactive"
        resid = abs(solution.aggregate.c1 - bound)
        details.append(f"{name} |c1-V|={resid:.2e}")
        ok = ok and resid <= 1e-9
    _verdict(4, ok, ", ".join(details))
    assert ok


def test_criterion_5_dp_matches_policy_enumeration():
    started = time.perf_counter()
    rng = np.random.default_rng(55)
    for _ in range(12):
        mdp = random_tiny_mdp(rng)
        triples = brute_policy_costs(mdp)
        for lam in rng.uniform(0.0, 30.0, size=20):
            _, dp_value = lagrangian_dp(mdp, float(lam))
            ref = min(c0 + lam * c1 for _, c0, c1 in triples)
            assert dp_value == pytest.approx(ref, abs=1e-9)
    elapsed = time.perf_counter() - started
    _verdict(5, elapsed < 60, f"12 MDPs x 20 multipliers exact, {elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_6_smpc_conservatism_and_two_modes(corridor_run):
    setup, _, solution, solve_seconds = corridor_run
    started = time.perf_counter()

    assert len(solution.components) == 2
    by_cost = sorted(solution.components, key=lambda cw: cw[0].cost.c0)
    short_risky, long_safe = by_cost[0][0], by_cost[1][0]
    assert short_risky.cost.c1 > long_safe.cost.c1, "modes should trade length for risk"
    assert min(w for _, w in solution.components) > 0.05

    est = estimate_mixture_risk_mc(setup.model, solution, 1_000_000, seed=42)
    bound = solution.aggregate.c1
    assert est.failure_rate <= bound, (est, bound)
    assert est.ci99[0] <= bound

    for pwl in (setup.pwl, build_pwl_cdf()):
        ys = np.linspace(PWL_Y_MIN, 0.0, 10_000)
        worst = min(pwl.value(float(y)) - ndtr(y) for y in ys)
        assert worst >= -1e-12, f"chord dips {worst:.2e} below the normal CDF"

    elapsed = solve_seconds + (time.perf_counter() - started)
    ok = elapsed < 300
    _verdict(
        6,
        ok,
        f"rate {est.failure_rate:.2e} <= bound {bound:.2e}, modes "
        f"({short_risky.cost.c0:.2f}, {short_risky.cost.c1:.1e}) / "
        f"({long_safe.cost.c0:.2f}, {long_safe.cost.c1:.1e}), {elapsed:.0f}s",
    )
    assert ok


def test_criterion_7_lp_and_milp_match_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(100):
        lp = random_box_lp(rng)
        got = solve_lp(lp)
        status, objective, _ = brute_lp_solve(lp)
        assert got.status == status == "optimal"
        assert got.objective == pytest.approx(objective, abs=1e-6)
    for _ in range(100):
        lp, binary = random_milp(rng)
        got = solve_milp(MilpProblem(lp, binary))
        status, objective, _ = brute_milp_solve(lp, binary)
        assert got.status == status == "optimal"
        assert got.objective == pytest.approx(objective, abs=1e-6)
    elapsed = time.perf_counter() - started
    _verdict(7, elapsed < 120, f"100 LPs + 100 MILPs match, {elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_8_desk_grid_scenario():
    config = load_config(CONFIGS / "desk_grid.json")
    setup = build_setup(config, CONFIGS)
    feasible, _ = parse_grid_map((CONFIGS / config["map"]).read_text(encoding="utf-8"))
    width, height = feasible.shape
    risk_bound = setup.risk_bound
    assert (width, height, setup.mdp.horizon, risk_bound) == (30, 30, 15, 0.02)
    oracle = setup
    started = time.perf_counter()
    _, solution = solve_mixed_scalar(oracle)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0

    certificate = check_optimality(solution, oracle)
    assert certificate.overall
    assert len(solution.components) in (1, 2)
    if len(solution.components) == 2:
        risks = sorted(cand.cost.c1 for cand, _ in solution.components)
        assert risks[0] <= risk_bound <= risks[1]

    summary = simulate(oracle.mdp, solution, seed=11, n_rollouts=100_000)
    lo, hi = summary.ci99
    ok = lo <= solution.aggregate.c1 <= hi
    _verdict(
        8,
        ok and elapsed < 60,
        f"{len(solution.components)} components in {elapsed:.1f}s, "
        f"CI ({lo:.4f}, {hi:.4f}) covers {solution.aggregate.c1:.4f}",
    )
    assert ok


def test_criterion_9_reports_are_byte_identical(tmp_path):
    artifacts = {
        "toy.json": ("report.json", "dual_trace.csv"),
        "desk_grid.json": ("report.json", "dual_trace.csv", "policy_0.csv", "policy_1.csv"),
    }
    identical = True
    for config_name, files in artifacts.items():
        config = CONFIGS / config_name
        outs = []
        for run in ("first", "second"):
            out = tmp_path / f"{config_name}_{run}"
            assert cli_main(["solve", str(config), "--out", str(out)]) == 0
            outs.append(out)
        for name in files:
            identical = identical and (
                (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            )
    _verdict(9, identical, "toy and grid artifacts repeat byte-for-byte")
    assert identical
