"""Seeded input generators: every config the benchmark feeds the CLI.

Each generator draws from a ``numpy.random.Generator`` and returns a
config dict (plus map text for the map-based kinds), so the same seed
always yields the same files. The families mirror the shipped configs:
grid navigation maps with two wall blocks and a middle passage, landing
hazard maps with two science sites, and the two-wall SMPC corridor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _round(x: float, digits: int = 4) -> float:
    return float(round(float(x), digits))


def grid_instance(rng: np.random.Generator, width: int, height: int, horizon: int,
                  max_step: int, sigma: tuple[float, float], mc_n: int) -> tuple[dict, str]:
    """One wall block split by a gap, start left, goal right.

    The gap is the short risky route; the open bands above and below the
    block, at least three rows each, are the long safe detours, so the
    risk bound binds and stays reachable.
    """
    rows = [["."] * width for _ in range(height)]
    wall_w = int(rng.integers(2, max(3, width // 5) + 1))
    wall_x = int(rng.integers(width // 2 - wall_w, width // 2 + 1))
    gap_y = height // 2 + int(rng.integers(-1, 1))
    gap_h = int(rng.integers(1, 3))
    top = int(rng.integers(3, max(4, gap_y - 1)))
    bottom = height - int(rng.integers(3, max(4, height - gap_y - gap_h - 1)))
    for x in range(wall_x, wall_x + wall_w):
        for y in range(top, bottom):
            if not gap_y <= y < gap_y + gap_h:
                rows[y][x] = "#"
    rows[gap_y][1] = "S"
    rows[gap_y][width - 2] = "G"
    text = "\n".join("".join(r) for r in rows) + "\n"
    config = {
        "schema": 1,
        "kind": "grid",
        "map": "grid.map",
        "horizon": horizon,
        "max_step": max_step,
        "sigma": _round(rng.uniform(*sigma), 3),
        "risk_bound": _round(rng.uniform(0.01, 0.03), 4),
        "monte_carlo": {"seed": int(rng.integers(1 << 30)), "n": mc_n},
    }
    return config, text


def landing_instance(rng: np.random.Generator, size: int, mc_n: int) -> tuple[dict, str]:
    """Hazard blobs on a square map, two cleared science sites joined by a road, three stages."""
    feasible = np.ones((size, size), dtype=bool)
    xs, ys = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    for _ in range(size * 3 // 4):
        cx, cy = (int(v) for v in rng.integers(0, size, 2))
        r = int(rng.integers(1, 4))
        feasible &= (xs - cx) ** 2 + (ys - cy) ** 2 > r * r
    sites = ((size // 6, size - size // 5), (size - size // 6, size // 5))
    for sx, sy in sites:
        feasible |= (xs - sx) ** 2 + (ys - sy) ** 2 <= 4
    # a cleared road keeps the two sites connected, so traverses are finite
    (ax, ay), (bx, by) = sites
    feasible[min(ax, bx) : max(ax, bx) + 1, ay] = True
    feasible[bx, min(ay, by) : max(ay, by) + 1] = True
    start = (size // 2, size // 2)
    feasible[start] = True
    rows = []
    for y in range(size):
        line = []
        for x in range(size):
            if (x, y) == start:
                line.append("S")
            elif (x, y) == sites[0]:
                line.append("A")
            elif (x, y) == sites[1]:
                line.append("B")
            else:
                line.append("." if feasible[x, y] else "#")
        rows.append("".join(line))
    scale = size / 36.0
    config = {
        "schema": 1,
        "kind": "edl",
        "map": "landing.map",
        "stages": 3,
        "ellipsoids": [
            {"matrix": [[1.0, 0.0], [0.0, 1.0]], "radius": _round(10.0 * scale, 2)},
            {"matrix": [[1.0, 0.0], [0.0, 1.0]], "radius": _round(6.0 * scale, 2)},
            {"matrix": [[1.0, 0.0], [0.0, 1.0]], "radius": _round(3.0 * scale, 2)},
        ],
        "sigmas": [[2.0, 2.0], [1.2, 1.2], [0.7, 0.7]],
        "risk_bound": _round(rng.uniform(0.002, 0.004), 5),
        "monte_carlo": {"seed": int(rng.integers(1 << 30)), "n": mc_n},
    }
    return config, "\n".join(rows) + "\n"


# Horizon-4 corridor geometries: wall x range, slot y range, upper wall
# top and goal x. They stay fixed because the branch-and-bound cost of a
# corridor changes up to threefold when its walls move by 2%, which would
# let the seed rather than the program set the spread of a run.
CORRIDORS = (
    {"wall": (1.49, 2.49), "slot": (-0.21, 0.58), "top": 1.45, "goal": 3.50},
    {"wall": (1.46, 2.46), "slot": (-0.21, 0.61), "top": 1.46, "goal": 3.49},
    {"wall": (1.45, 2.45), "slot": (-0.21, 0.61), "top": 1.51, "goal": 3.45},
    {"wall": (1.50, 2.50), "slot": (-0.19, 0.60), "top": 1.48, "goal": 3.44},
)
CORRIDOR_HORIZON = 4


def corridor_instance(rng: np.random.Generator, geometry: dict, mc_n: int) -> dict:
    """Two walls with a slot between them; start and goal on the x axis.

    Walls are 1.0 wide and moves are capped at 1.0 per axis, so a mean
    path must either thread the slot (short, close to both walls) or
    climb over the upper wall (longer, far from everything). The seed
    draws the risk bound and the Monte Carlo seed.
    """
    wall_lo, wall_hi = geometry["wall"]
    slot_lo, slot_hi = geometry["slot"]
    faces = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    return {
        "schema": 1,
        "kind": "smpc",
        "a": [[1.0, 0.0], [0.0, 1.0]],
        "b": [[1.0, 0.0], [0.0, 1.0]],
        "sigma_w": [[0.005, 0.0], [0.0, 0.005]],
        "horizon": CORRIDOR_HORIZON,
        "x_init": [0.0, 0.0],
        "x_goal": [geometry["goal"], 0.0],
        "u_lower": [-1.0, -1.0],
        "u_upper": [1.0, 1.0],
        "obstacles": [
            {"normals": faces, "offsets": [wall_hi, -wall_lo, geometry["top"], -slot_hi]},
            {"normals": faces, "offsets": [wall_hi, -wall_lo, slot_lo, 3.0]},
        ],
        "risk_bound": _round(rng.uniform(0.0008, 0.0012), 5),
        "pwl_segments": 6,
        "monte_carlo": {"seed": int(rng.integers(1 << 30)), "n": mc_n},
    }


def write_instance(directory: Path, config: dict, map_text: str | None = None) -> Path:
    """Write one config (and its map) into its own directory; return the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    if map_text is not None:
        (directory / config["map"]).write_text(map_text, encoding="utf-8")
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return path


@dataclass(frozen=True)
class Instance:
    """One generated input: its config and map text, whether the
    occupation-measure LP check is small enough to run on it, and whether
    the benchmark runs ``validate`` on it.

    ``validate`` of an MDP report demands that the exact risk lie in a 99%
    interval of one Monte Carlo sample, so it rejects about one correct
    report in a hundred. Only MDP instances whose sample does not depend
    on the seed (the shipped configs) are validated; SMPC reports are
    checked one-sided against a conservative bound and always are.
    """

    name: str
    config: dict
    map_text: str | None = None
    lp_check: bool = False
    validated: bool = False


def _shipped(root: Path, name: str, mc_n: int | None = None) -> Instance:
    config = json.loads((root / "configs" / f"{name}.json").read_text(encoding="utf-8"))
    map_text = None
    if "map" in config:
        map_text = (root / "configs" / config["map"]).read_text(encoding="utf-8")
    if mc_n is not None:
        config["monte_carlo"]["n"] = mc_n
    return Instance(name, config, map_text, validated=True)


def workload_instances(workload: str, seed: int, root: Path) -> list[Instance]:
    """The fixed list of instances one run of ``workload`` cycles through."""
    rng = np.random.default_rng(seed)
    if workload == "mdp-solve":
        mid_grid = grid_instance(rng, 24, 24, 12, 5, (0.8, 1.2), 20_000)
        mid_landing = landing_instance(rng, 28, 20_000)
        small = [
            grid_instance(rng, 10, 10, int(rng.integers(5, 8)), 2, (0.5, 0.7), 20_000)
            for _ in range(2)
        ]
        return [
            _shipped(root, "desk_grid"),
            _shipped(root, "landing"),
            Instance("grid-24", *mid_grid),
            Instance("landing-28", *mid_landing),
            Instance("grid-10a", *small[0], lp_check=True),
            Instance("grid-10b", *small[1], lp_check=True),
        ]
    if workload == "smpc-solve":
        return [
            Instance(f"corridor-{i}", corridor_instance(rng, geometry, 300_000), validated=True)
            for i, geometry in enumerate(CORRIDORS)
        ]
    if workload == "validate":
        return [
            _shipped(root, "desk_grid", 300_000),
            _shipped(root, "landing", 300_000),
            Instance(
                "corridor-0", corridor_instance(rng, CORRIDORS[0], 1_000_000), validated=True
            ),
            Instance(
                "corridor-1", corridor_instance(rng, CORRIDORS[1], 1_000_000), validated=True
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")
