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
    _clipped_spread,
    _shift_targets,
    _walk_distances,
    parse_grid_map,
    traverse_field,
)

from _oracles import (
    bfs_distance_deque,
    clipped_spread_coo,
    edl_tables_reference,
    ellipsoid_offsets_per_point,
    grid_tables_reference,
    product_kernel_pairs,
    shift_targets_broadcast,
    shift_targets_per_offset,
)

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

    _, sol = solve_mixed_scalar(oracle)
    assert sol.dual == pytest.approx(1000.0, abs=1e-3)
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
    _, sol = solve_mixed_scalar(oracle)
    assert sol.dual > 1.0
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


def _bench_instances(monkeypatch, kind: str) -> list[tuple[dict, str]]:
    """(config, map text) of each ``kind`` instance of ``bench/gen.py``, seeds 1 to 3."""
    root = CONFIGS.parent
    spec = importlib.util.spec_from_file_location("bench_gen", root / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_gen", gen)  # its dataclass looks itself up
    spec.loader.exec_module(gen)
    return [
        (inst.config, inst.map_text)
        for seed in (1, 2, 3)
        for workload in ("mdp-solve", "validate")
        for inst in gen.workload_instances(workload, seed, root)
        if inst.config["kind"] == kind
    ]


def test_ellipsoid_offsets_match_the_per_point_reference(monkeypatch):
    configs = [load_config(CONFIGS / "landing.json")]
    configs += [config for config, _ in _bench_instances(monkeypatch, "edl")]
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
    _, sol = solve_mixed_scalar(oracle)
    assert sol.dual > 1.0
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


def _assert_same_csr(got, want, label):
    """Same shape, index types, indices and data bytes."""
    assert got.shape == want.shape, label
    for name in ("indptr", "indices"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), (label, name)
    assert got.data.dtype == want.data.dtype, label
    assert got.data.tobytes() == want.data.tobytes(), label


def _assert_same_table(got, want, label):
    assert got.dtype == want.dtype and got.shape == want.shape, label
    assert got.tobytes() == want.tobytes(), label


@pytest.mark.parametrize(
    "width, height, sigma_x, sigma_y",
    [
        (30, 30, 1.0, 1.0),  # desk_grid
        (36, 36, 2.0, 2.0),  # landing's three stages
        (36, 36, 1.2, 1.2),
        (36, 36, 0.7, 0.7),
        (20, 20, 0.0, 0.0),  # one offset: every row is inside
        (6, 6, 0.0, 0.0),
        (4, 4, 3.0, 3.0),  # kernel wider than the grid: no row is inside
        (5, 9, 2.0, 2.0),
        (40, 9, 0.4, 2.0),  # anisotropic, rectangular
        (9, 40, 2.0, 0.4),
        (25, 31, 0.0, 1.5),
        (31, 25, 1.5, 0.0),
        (1, 7, 1.0, 1.0),  # one column
        (1, 40, 0.0, 1.0),
        (40, 1, 1.0, 0.0),  # one row
        (1, 1, 0.5, 0.5),
    ],
)
def test_spread_matches_the_coo_reference_bit_for_bit(width, height, sigma_x, sigma_y):
    want = clipped_spread_coo(width, height, *product_kernel_pairs(sigma_x, sigma_y))
    got = _clipped_spread(width, height, sigma_x, sigma_y)
    _assert_same_csr(got, want, (width, height, sigma_x, sigma_y))


def test_shift_targets_match_the_broadcast_reference():
    cases = [
        (30, 30, grid_actions(6)),
        (36, 36, ellipsoid_offsets(np.eye(2), 10.0)),
        (40, 9, grid_actions(3)),
        (1, 12, grid_actions(2)),
        (12, 1, grid_actions(2)),
        (3, 3, grid_actions(5)),  # every move but the stay leaves the grid
        (4, 5, []),
    ]
    for width, height, offsets in cases:
        got = _shift_targets(width, height, offsets)
        want = shift_targets_broadcast(width, height, offsets)
        _assert_same_table(got, want, (width, height, len(offsets)))
        assert got.flags.c_contiguous


def test_walk_distances_match_the_deque_reference():
    rng = np.random.default_rng(21)
    feasible, markers = parse_grid_map((CONFIGS / "landing.map").read_text(encoding="utf-8"))
    maps = [(feasible, [markers["A"][0], markers["B"][0], (0, 0)])]
    for _ in range(30):
        w, h = (int(v) for v in rng.integers(1, 15, size=2))
        walls = rng.random((w, h)) < rng.uniform(0.0, 0.6)  # some cut the map apart
        sources = [tuple(int(v) for v in rng.integers(0, (w, h))) for _ in range(3)]
        maps.append((~walls, sources))
    for feasible, sources in maps:
        got = _walk_distances(feasible, sources)
        assert got.shape == (len(sources),) + feasible.shape
        for dist, source in zip(got, sources):
            # a source on an infeasible cell reaches nothing
            _assert_same_table(np.ascontiguousarray(dist), bfs_distance_deque(feasible, source),
                               source)


def _reachable_cells_reference(start, stages, height: int) -> list[np.ndarray]:
    """Per stage, the cells the start can reach: breadth-first over reference tables.

    Stage 0 is the start cell; stage k+1 is every column of the spread
    rows that stage k's admissible pairs use.
    """
    cells = np.array([start[0] * height + start[1]])
    reached = []
    for pairs, spread, _ in stages:
        reached.append(cells)
        targets = pairs[cells]
        cells = np.unique(spread[np.unique(targets[targets >= 0])].indices).astype(np.int64)
    return reached


@pytest.fixture(scope="module")
def landing_builds():
    """(label, start cell, built Mdp, reference stages) of the shipped and benchmark landing maps."""
    with pytest.MonkeyPatch.context() as mp:
        inputs = [(load_config(CONFIGS / "landing.json"), None)] + _bench_instances(mp, "edl")
    builds = []
    for i, (config, map_text) in enumerate(inputs):
        if map_text is None:
            map_text = (CONFIGS / config["map"]).read_text(encoding="utf-8")
        feasible, markers = parse_grid_map(map_text)
        start = markers["S"][0]
        ellipsoids = [(np.asarray(e["matrix"], float), float(e["radius"]))
                      for e in config["ellipsoids"]]
        sigmas = [tuple(float(v) for v in pair) for pair in config["sigmas"]]
        sites = (markers["A"][0], markers["B"][0])
        mdp = edl_scenario(feasible, start, sites, config["stages"], ellipsoids, sigmas)
        stages = edl_tables_reference(feasible, sites, ellipsoids, sigmas)
        cell = start[0] * feasible.shape[1] + start[1]
        builds.append((("edl", i, config["sigmas"]), cell, mdp, stages))
    return builds


def _reachable_cells_reference(cell: int, stages) -> list[np.ndarray]:
    """Per stage, the cells that start ``cell`` can reach: breadth-first over reference tables.

    Stage 0 is the start cell; stage k+1 is every column of the spread
    rows that stage k's admissible pairs use.
    """
    cells = np.array([cell], dtype=np.int64)
    reached = []
    for pairs, spread, _ in stages:
        reached.append(cells)
        targets = pairs[cells]
        cells = np.unique(spread[np.unique(targets[targets >= 0])].indices).astype(np.int64)
    return reached


def _assert_kept_rows_match(label, mdp, stages):
    """Each row a landing Mdp keeps is the reference's row, bit for bit.

    Targets and costs at the kept states, and the spread rows their pairs
    use; every other spread row is empty.
    """
    assert len(mdp.dynamics) == len(stages), label
    for k, (dyn, cost, (pairs, spread, want_cost)) in enumerate(
        zip(mdp.dynamics, mdp.stage_costs, stages)
    ):
        targets = pairs[dyn.states]
        _assert_same_table(dyn.targets, targets, (label, k))
        _assert_same_table(cost, want_cost[dyn.states], (label, k))
        used = np.unique(targets[targets >= 0])
        assert dyn.spread.shape == spread.shape, (label, k)
        assert dyn.spread.indices.dtype == spread.indices.dtype, (label, k)
        assert not np.delete(np.diff(dyn.spread.indptr), used).any(), (label, k)
        _assert_same_csr(dyn.spread[used], spread[used], (label, k))


def test_landing_builder_keeps_exactly_the_reachable_rows(landing_builds):
    for label, cell, mdp, stages in landing_builds:
        reached = _reachable_cells_reference(cell, stages)
        for k, (dyn, cells) in enumerate(zip(mdp.dynamics, reached)):
            _assert_same_table(dyn.states, cells, (label, k))
            assert dyn.num_states == stages[k][0].shape[0], (label, k)
        _assert_kept_rows_match(label, mdp, stages)
    _, _, shipped, _ = landing_builds[0]
    assert shipped.dynamics[0].targets.shape == (1, 317)
    assert [len(dyn.states) for dyn in shipped.dynamics] == [1, 965, 1296]


def test_grid_and_landing_mdps_match_the_reference_builders(monkeypatch, landing_builds):
    inputs = [(load_config(CONFIGS / "desk_grid.json"), None)]
    inputs += _bench_instances(monkeypatch, "grid")
    # one grid whose goal's parking row sits under a noise-free spread
    open_map = "\n".join(["S....", ".....", "....G"])
    inputs.append(({"kind": "grid", "horizon": 3, "max_step": 2, "sigma": 0.0}, open_map))
    for config, map_text in inputs:
        if map_text is None:
            map_text = (CONFIGS / config["map"]).read_text(encoding="utf-8")
        feasible, markers = parse_grid_map(map_text)
        start = markers["S"][0]
        goal = markers["G"][0]
        mdp = grid_scenario(feasible, start, goal, config["horizon"], config["max_step"],
                            config["sigma"])
        pairs, spread, base, last = grid_tables_reference(
            feasible, goal, config["horizon"], config["max_step"], config["sigma"]
        )
        stages = [(pairs, spread, base)] * (config["horizon"] - 1) + [(pairs, spread, last)]
        park = spread.indptr[-2]  # the goal's parking row: one entry, on the goal
        assert spread.indptr[-1] - park == 1
        assert spread.indices[park] == goal[0] * feasible.shape[1] + goal[1]
        assert len(mdp.dynamics) == len(stages)
        for k, (dyn, cost, (pairs, spread, want_cost)) in enumerate(
            zip(mdp.dynamics, mdp.stage_costs, stages)
        ):
            label = (config["kind"], k, config["sigma"])
            _assert_same_table(dyn.targets, pairs, label)
            _assert_same_csr(dyn.spread, spread, label)
            _assert_same_table(cost, want_cost, label)
    # a landing table keeps rows only for the cells the start can reach
    for label, _, mdp, stages in landing_builds:
        _assert_kept_rows_match(label, mdp, stages)
