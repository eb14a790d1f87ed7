import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mixedctrl.cli import build_setup, load_config
from mixedctrl.core import (
    CostVector,
    InvalidInputError,
    lagrangian_value,
)
from mixedctrl.dual import check_optimality, solve_mixed_scalar
from mixedctrl.scenarios import (
    FiniteSetOracle,
    edl_oracle,
    edl_scenario,
    ellipsoid_offsets,
    grid_actions,
    grid_oracle,
    grid_scenario,
    _shift_targets,
    parse_grid_map,
    traverse_field,
)

from _oracles import ellipsoid_offsets_per_point, shift_targets_per_offset

SQRT2 = math.sqrt(2.0)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _shipped(name: str):
    """The oracle of a shipped config."""
    return build_setup(load_config(CONFIGS / f"{name}.json"), CONFIGS)


def test_toy_oracle_endpoints_and_mixture():
    oracle = _shipped("toy")
    risky = oracle.query(0.0)
    assert (risky.cost.c0, risky.cost.c1) == (10.0, 0.015)
    safe = oracle.query(2000.0)
    assert (safe.cost.c0, safe.cost.c1) == (20.0, 0.005)
    # the exact crossover multiplier ties; the lower index wins
    tie = oracle.query(1000.0)
    assert tie.policy == 0

    dual, sol = solve_mixed_scalar(oracle)
    assert dual.lambda_star == pytest.approx(1000.0, abs=1e-3)
    weights = sorted(w for _, w in sol.components)
    assert weights == pytest.approx([0.5, 0.5], abs=1e-9)
    assert sol.aggregate.c0 == pytest.approx(15.0, abs=1e-9)
    assert sol.aggregate.c1 == pytest.approx(0.01, abs=1e-12)


def test_finite_set_oracle_matches_exhaustive_scan():
    rng = np.random.default_rng(5)
    for _ in range(20):
        costs = [
            CostVector(float(rng.uniform(0, 50)), float(rng.uniform(0, 0.2)))
            for _ in range(int(rng.integers(1, 9)))
        ]
        v = float(rng.uniform(0.01, 0.1))
        oracle = FiniteSetOracle(costs, v)
        for _ in range(5):
            lam = float(rng.uniform(0, 500))
            cand = oracle.query(lam)
            best = min(lagrangian_value(c, lam, v) for c in costs)
            assert lagrangian_value(cand.cost, lam, v) == pytest.approx(
                best, abs=1e-12
            )


def test_grid_map_round_trip():
    text = "..#..\n.S..#\n...G.\n"
    feasible, markers = parse_grid_map(text)
    assert feasible.shape == (5, 3)
    assert not feasible[2, 0] and not feasible[4, 1]
    assert feasible[1, 1] and feasible[3, 2]
    assert markers == {"S": [(1, 1)], "G": [(3, 2)]}
    cells = {pt: ch for ch, pts in markers.items() for pt in pts}
    rows = (
        "".join(cells.get((x, y), "." if feasible[x, y] else "#") for x in range(5))
        for y in range(3)
    )
    assert "\n".join(rows) + "\n" == text


def test_grid_map_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        parse_grid_map("...\n..\n")
    with pytest.raises(InvalidInputError):
        parse_grid_map("   \n")


def test_grid_actions_order_and_counts():
    assert grid_actions(1) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    assert len(grid_actions(2)) == 13
    assert (0, 0) in grid_actions(6)


def test_noiseless_grid_recovers_the_geometric_shortest_path():
    feasible = np.ones((8, 8), dtype=bool)
    oracle = grid_oracle(feasible, (0, 0), (7, 7), horizon=3, max_step=6, sigma=0.0,
                         risk_bound=0.02)
    cand = oracle.query(0.0)
    assert cand.cost.c0 == pytest.approx(7.0 * SQRT2, abs=1e-9)
    assert cand.cost.c1 == 0.0


def test_grid_rejects_cells_off_grid_or_on_obstacles():
    feasible = np.ones((6, 6), dtype=bool)
    feasible[2, 2] = False
    base = dict(horizon=3, max_step=2, sigma=1.0)
    with pytest.raises(InvalidInputError, match="obstacle"):
        grid_scenario(feasible, (2, 2), (5, 5), **base)
    with pytest.raises(InvalidInputError, match="outside"):
        grid_scenario(feasible, (0, 0), (6, 5), **base)


def test_desk_grid_mixes_two_routes_at_the_risk_bound():
    oracle = _shipped("desk_grid")
    risk_bound = oracle.risk_bound
    dual, sol = solve_mixed_scalar(oracle)
    assert dual.lambda_star > 1.0
    assert len(sol.components) == 2
    assert sol.aggregate.c1 == pytest.approx(risk_bound, abs=1e-12)
    risks = sorted(c.cost.c1 for c, _ in sol.components)
    assert risks[0] < risk_bound < risks[1]
    assert sol.aggregate.c0 == pytest.approx(244.38, abs=0.05)
    report = check_optimality(sol, oracle)
    assert report.overall, report.conditions


def test_traverse_field_small_map_values():
    feasible = np.ones((4, 4), dtype=bool)
    trav = traverse_field(feasible, ((0, 0), (3, 3)))
    assert trav[0, 0] == 6.0
    assert trav[3, 3] == 6.0
    assert trav[1, 1] == 8.0
    assert trav[3, 0] == 9.0


def test_traverse_field_rejects_bad_sites():
    feasible = np.ones((4, 4), dtype=bool)
    feasible[2, :] = False
    with pytest.raises(InvalidInputError):
        traverse_field(feasible, ((0, 0), (3, 3)))
    feasible = np.ones((4, 4), dtype=bool)
    feasible[0, 0] = False
    with pytest.raises(InvalidInputError):
        traverse_field(feasible, ((0, 0), (3, 3)))
    with pytest.raises(InvalidInputError):
        traverse_field(np.ones((3, 3), dtype=bool), ((0, 0),))


def test_ellipsoid_offsets_counts_and_validation():
    assert len(ellipsoid_offsets(np.eye(2), 2.0)) == 13
    assert len(ellipsoid_offsets(np.diag([1.0, 4.0]), 2.0)) == 7
    with pytest.raises(InvalidInputError):
        ellipsoid_offsets([[1.0, 0.5], [0.0, 1.0]], 1.0)
    with pytest.raises(InvalidInputError):
        ellipsoid_offsets(np.diag([1.0, -1.0]), 1.0)


def test_ellipsoid_offsets_match_the_per_point_reference(monkeypatch):
    root = CONFIGS.parent
    spec = importlib.util.spec_from_file_location("bench_gen", root / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_gen", gen)  # its dataclass looks itself up
    spec.loader.exec_module(gen)
    configs = [load_config(CONFIGS / "landing.json")]
    configs += [
        inst.config
        for seed in (1, 2, 3)
        for workload in ("mdp-solve", "validate")
        for inst in gen.workload_instances(workload, seed, root)
        if inst.config["kind"] == "edl"
    ]
    cases = [(e["matrix"], float(e["radius"])) for c in configs for e in c["ellipsoids"]]
    rng = np.random.default_rng(12)
    for _ in range(300):
        m = rng.normal(size=(2, 2))
        cases.append((m @ m.T + 0.05 * np.eye(2), float(rng.uniform(0.5, 6.0))))
    # radius**2 on the lattice: points that sit on the boundary up to rounding
    cases += [(np.diag([1.0, 2.0]), math.sqrt(r2)) for r2 in (2.0, 3.0, 9.0, 11.0)]
    for matrix, radius in cases:
        assert ellipsoid_offsets(matrix, radius) == ellipsoid_offsets_per_point(matrix, radius)


def test_shift_targets_match_the_per_offset_reference():
    rng = np.random.default_rng(4)
    cases = [
        (30, 30, grid_actions(5)),
        (28, 28, ellipsoid_offsets(np.eye(2), 10.0)),
        (1, 1, [(0, 0)]),
    ]
    for _ in range(20):
        width, height = (int(v) for v in rng.integers(1, 12, size=2))
        offsets = rng.integers(-13, 14, size=(7, 2)).tolist()
        cases.append((width, height, [tuple(o) for o in offsets]))
    for width, height, offsets in cases:
        got = _shift_targets(width, height, offsets)
        assert got.shape == (width * height, len(offsets)) and got.flags.c_contiguous
        np.testing.assert_array_equal(got.T, shift_targets_per_offset(width, height, offsets))


def _open_landing(stages=2, width=9, height=9):
    """Arguments of ``edl_scenario`` for an open map with noiseless stages."""
    return dict(
        feasible=np.ones((width, height), dtype=bool),
        start=(4, 4),
        sites=((1, 1), (7, 7)),
        stages=stages,
        ellipsoids=((np.eye(2), 5.0),) * stages,
        sigmas=((0.0, 0.0),) * stages,
    )


def test_noiseless_landing_touches_down_on_a_site():
    oracle = edl_oracle(**_open_landing(), risk_bound=0.01)
    cand = oracle.query(0.0)
    # landing exactly on either site leaves only the walk between them
    assert cand.cost.c0 == pytest.approx(12.0, abs=1e-9)
    assert cand.cost.c1 == 0.0


def test_landing_validation():
    args = _open_landing()
    args["feasible"] = np.zeros((9, 9), dtype=bool)
    with pytest.raises(InvalidInputError):
        edl_scenario(**args)
    with pytest.raises(InvalidInputError):
        edl_scenario(**_open_landing(stages=1))
    args = _open_landing()
    args["sigmas"] = ((0.0, 0.0),)
    with pytest.raises(InvalidInputError):
        edl_scenario(**args)


def test_default_landing_mixes_at_the_risk_bound():
    oracle = _shipped("landing")
    dual, sol = solve_mixed_scalar(oracle)
    assert dual.lambda_star > 1.0
    assert len(sol.components) == 2
    assert sol.aggregate.c1 == pytest.approx(oracle.risk_bound, abs=1e-12)
    assert sol.aggregate.c0 == pytest.approx(45.05, abs=0.05)
    report = check_optimality(sol, oracle)
    assert report.overall, report.conditions


def test_two_point_landing_replay_weights():
    oracle = FiniteSetOracle(
        costs=(CostVector(45.3, 0.00016), CostVector(44.9, 0.00574)),
        risk_bound=0.001,
    )
    _, sol = solve_mixed_scalar(oracle)
    by_risk = {round(c.cost.c1, 5): w for c, w in sol.components}
    assert by_risk[0.00016] == pytest.approx(0.849, abs=0.002)
    assert by_risk[0.00574] == pytest.approx(0.151, abs=0.002)
    assert sol.aggregate.c1 == pytest.approx(0.001, abs=1e-12)


def test_corridor_scenario_shape_and_cheapest_route():
    setup = _shipped("corridor")
    assert setup.model.horizon == 7
    assert len(setup.model.obstacles) == 2
    assert setup.risk_bound == 0.001
    assert len(setup.pwl.slopes) == 6
    cand = setup.query(0.0)
    # unconstrained by risk, the plan runs straight down the axis
    assert cand.cost.c0 == pytest.approx(6.0, abs=1e-6)
    assert 0.0 < cand.cost.c1 < 0.2
