"""Command-line front end: JSON configs in, deterministic artifacts out.

``solve`` runs the full pipeline for one scenario and writes
``report.json``, ``dual_trace.csv``, and whatever file the backend saves
per mixture component. ``validate`` rebuilds the oracle from the config,
has it load and re-evaluate the saved components, and re-runs the
optimality checks and Monte Carlo. ``sweep`` samples the dual function
on a multiplier grid for plotting. Past the config, each command talks
only to the oracle that `build_setup` returns.

Exit codes: 0 success, 1 infeasible problem, solver limit or failed
validation, 2 invalid config or usage. Reports are byte-identical across
repeated runs with the same config and seed; the measured wall time
would break that, so it goes to stderr and the report carries a null
placeholder.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from .ccmdp import MdpOracle, simulate
from .core import (
    Bounds,
    CostVector,
    DualVector,
    InfeasibleProblemError,
    InvalidInputError,
    LagrangianOracle,
    MixedControlError,
    MixedSolution,
    PureCandidate,
    binomial_acceptance,
    lagrangian_value,
    mix_costs,
    wilson_ci_99,
)
from .dual import check_optimality, solve_mixed_scalar
from .scenarios import FiniteSetOracle, edl_oracle, grid_oracle, parse_grid_map
from .smpc import Obstacle, SmpcModel, SmpcOracle, build_pwl_cdf, estimate_mixture_risk_mc

SCHEMA_VERSION = 1
TRACE_COLUMNS = ("iteration", "lambda", "c0", "c1", "lagrangian_value")
# `validate` rejects a correct report's Monte Carlo check at most this often
VALIDATE_FALSE_ALARM = 1e-6

# Required and optional top-level keys per kind; any other key is rejected.
_KEYS = {
    "toy": (("policies", "risk_bound"), ()),
    "grid": (("map", "horizon", "max_step", "sigma", "risk_bound"), ()),
    "edl": (("map", "stages", "ellipsoids", "sigmas", "risk_bound"), ()),
    "smpc": (
        ("a", "b", "sigma_w", "horizon", "x_init", "x_goal", "u_lower", "u_upper",
         "obstacles", "risk_bound"),
        ("pwl_segments", "max_nodes"),
    ),
}
# Each key that holds a single number, with its type, at the top level and in the
# optional sections that every kind accepts.
_NUMBERS = {
    "horizon": int, "max_step": int, "stages": int, "pwl_segments": int, "max_nodes": int,
    "sigma": (int, float), "risk_bound": (int, float),
}
_SECTIONS = {
    "monte_carlo": {"seed": int, "n": int},
    "sweep": {"lambda_min": (int, float), "lambda_max": (int, float), "points": int},
}


def _check_type(label: str, value: object, types) -> None:
    # bool is a subclass of int, but JSON's true and false are no numbers
    if isinstance(value, bool) or not isinstance(value, types):
        what = "an integer" if types is int else "a number"
        raise InvalidInputError(f"{label} must be {what}, got {value!r}")


def _first_non_number(value) -> tuple[str, object] | None:
    """Key path (".a[0].b") and value of the first leaf that is no number, or None."""
    kind = type(value)  # JSON's true and false are bool, no number
    if kind is not dict and kind is not list:
        return None if kind is float or kind is int else ("", value)
    for key, item in value.items() if kind is dict else enumerate(value):
        if type(item) is not float and type(item) is not int:
            found = _first_non_number(item)
            if found is not None:
                return (f".{key}" if kind is dict else f"[{key}]") + found[0], found[1]
    return None


def load_config(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise InvalidInputError("config root must be a JSON object")
    if config.get("schema") != SCHEMA_VERSION:
        raise InvalidInputError(
            f"config schema must be {SCHEMA_VERSION}, got {config.get('schema')!r}"
        )
    kind = config.get("kind")
    if kind not in _KEYS:
        raise InvalidInputError(f"unknown scenario kind {kind!r}")
    required, optional = _KEYS[kind]
    missing = [key for key in required if key not in config]
    if missing:
        raise InvalidInputError(f"{kind} config is missing: {', '.join(missing)}")
    known = {"schema", "kind", *required, *optional, *_SECTIONS}
    unknown = sorted(set(config) - known)
    if unknown:
        raise InvalidInputError(f"unknown {kind} config keys: {', '.join(unknown)}")
    checks = [(key, config[key], _NUMBERS[key]) for key in config if key in _NUMBERS]
    for name, types in _SECTIONS.items():
        section = config.get(name, {})
        if not isinstance(section, dict):
            raise InvalidInputError(f"{name} must be a JSON object")
        for key, value in section.items():
            if key not in types:
                raise InvalidInputError(f"unknown {name} key {key!r}")
            checks.append((f"{name}.{key}", value, types[key]))
    # every value but the kind and the map path is a number, or lists and objects of them
    found = _first_non_number({k: v for k, v in config.items() if k not in ("kind", "map")})
    if found is not None:
        raise InvalidInputError(f"{found[0][1:]} must be a number, got {found[1]!r}")
    for label, value, types in checks:
        _check_type(label, value, types)
    mc = config.get("monte_carlo", {})
    if mc.get("seed", 0) < 0 or mc.get("n", 1) < 1:
        raise InvalidInputError("monte_carlo needs seed >= 0 and n >= 1")
    bound = config["risk_bound"]
    if not math.isfinite(bound) or not 0.0 <= bound <= 1.0:
        raise InvalidInputError(f"risk_bound must be a number in [0, 1], got {bound!r}")
    return config


def _read_map(config: dict, base_dir: Path):
    rel = config["map"]
    if not isinstance(rel, str):
        raise InvalidInputError("map must be a relative path string")
    path = base_dir / rel
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"cannot read map {path}: {exc}") from exc
    return parse_grid_map(text)


def _single_marker(markers: dict, char: str) -> tuple[int, int]:
    cells = markers.get(char, [])
    if len(cells) != 1:
        raise InvalidInputError(
            f"map must contain exactly one '{char}' marker, found {len(cells)}"
        )
    return cells[0]


def _build_toy(config: dict, base_dir: Path) -> FiniteSetOracle:
    policies = config["policies"]
    if not isinstance(policies, list) or not policies:
        raise InvalidInputError("policies must be a non-empty list of [cost, risk] pairs")
    costs = []
    for entry in policies:
        if not isinstance(entry, list) or len(entry) != 2:
            raise InvalidInputError(f"policy entry {entry!r} is not a [cost, risk] pair")
        costs.append(CostVector(float(entry[0]), (float(entry[1]),)))
    return FiniteSetOracle(costs, Bounds((float(config["risk_bound"]),)))


def _build_grid(config: dict, base_dir: Path) -> MdpOracle:
    feasible, markers = _read_map(config, base_dir)
    return grid_oracle(
        feasible,
        _single_marker(markers, "S"),
        _single_marker(markers, "G"),
        horizon=config["horizon"],
        max_step=config["max_step"],
        sigma=config["sigma"],
        risk_bound=float(config["risk_bound"]),
    )


def _build_edl(config: dict, base_dir: Path) -> MdpOracle:
    feasible, markers = _read_map(config, base_dir)
    return edl_oracle(
        feasible,
        _single_marker(markers, "S"),
        (_single_marker(markers, "A"), _single_marker(markers, "B")),
        stages=config["stages"],
        ellipsoids=[
            (np.asarray(e["matrix"], float), float(e["radius"])) for e in config["ellipsoids"]
        ],
        sigmas=[(float(sx), float(sy)) for sx, sy in config["sigmas"]],
        risk_bound=float(config["risk_bound"]),
    )


def _build_smpc(config: dict, base_dir: Path) -> SmpcOracle:
    obstacles = tuple(
        Obstacle(entry["normals"], entry["offsets"]) for entry in config["obstacles"]
    )
    model = SmpcModel(
        a_mat=config["a"],
        b_mat=config["b"],
        sigma_w=config["sigma_w"],
        horizon=config["horizon"],
        x_init=config["x_init"],
        x_goal=config["x_goal"],
        u_lower=config["u_lower"],
        u_upper=config["u_upper"],
        obstacles=obstacles,
    )
    return SmpcOracle(
        model,
        Bounds((float(config["risk_bound"]),)),
        build_pwl_cdf(config.get("pwl_segments", 24)),
        max_nodes=config.get("max_nodes", 200_000),
    )


# The builders and `_run_monte_carlo` stay here, not on the backends,
# because the traced benchmark (bench/spans.py) wraps `grid_oracle`,
# `edl_oracle`, `simulate` and `estimate_mixture_risk_mc` by their names
# in this module.
_BUILDERS = {
    "toy": _build_toy,
    "grid": _build_grid,
    "edl": _build_edl,
    "smpc": _build_smpc,
}


def build_setup(config: dict, base_dir: Path) -> LagrangianOracle:
    """The oracle of a loaded config; ``base_dir`` resolves its map path."""
    builder = _BUILDERS[config["kind"]]
    try:
        return builder(config, base_dir)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad {config['kind']} config: {exc}") from exc


class _TracingOracle(LagrangianOracle):
    """Pass-through wrapper recording one trace row per multiplier query."""

    def __init__(self, inner: LagrangianOracle):
        self.inner = inner
        self.bounds = inner.bounds
        self.rows: list[tuple[int, float, float, float, float]] = []
        self.last: tuple[DualVector, PureCandidate] | None = None

    def query(self, lam: DualVector) -> PureCandidate:
        cand = self.inner.query(lam)
        self.rows.append(
            (
                len(self.rows),
                lam.values[0],
                cand.cost.c0,
                cand.cost.c1,
                lagrangian_value(cand.cost, lam, self.bounds),
            )
        )
        self.last = (lam, cand)
        return cand

    def evaluate(self, policy: object) -> CostVector:
        return self.inner.evaluate(policy)


def _run_monte_carlo(
    oracle: LagrangianOracle, solution: MixedSolution, seed: int, n: int
) -> dict:
    if isinstance(oracle, MdpOracle):
        summary = simulate(oracle.mdp, solution, seed, n)
        return {
            "seed": seed,
            "n": summary.n_rollouts,
            "cost_mean": summary.cost_mean,
            "failure_rate": summary.failure_rate,
            "ci99": list(summary.failure_ci99),
        }
    if isinstance(oracle, SmpcOracle):
        est = estimate_mixture_risk_mc(oracle.model, solution, n, seed)
        return {
            "seed": seed,
            "n": est.n_rollouts,
            "failure_rate": est.rate,
            "ci99": list(est.ci99),
        }
    # Finite-set backend: draw a component per rollout, then a Bernoulli
    # failure at that component's exact risk.
    rng = np.random.default_rng(seed)
    weights = np.array(solution.probabilities)
    comp = rng.choice(len(weights), size=n, p=weights / weights.sum())
    costs = np.array([cand.cost.c0 for cand, _ in solution.components])
    risks = np.array([cand.cost.c1 for cand, _ in solution.components])
    failures = int((rng.random(n) < risks[comp]).sum())
    lo, hi = wilson_ci_99(failures, n)
    return {
        "seed": seed,
        "n": n,
        "cost_mean": float(costs[comp].mean()),
        "failure_rate": failures / n,
        "ci99": [lo, hi],
    }


def _write_trace(path: Path, rows: Sequence[tuple[int, float, float, float, float]]) -> None:
    lines = [",".join(TRACE_COLUMNS)]
    for it, lam, c0, c1, value in rows:
        lines.append(f"{it},{lam!r},{c0!r},{c1!r},{value!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_solve(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    config = load_config(config_path)
    oracle = build_setup(config, config_path.parent)
    section = config.get("monte_carlo", {})
    seed = section.get("seed", 0) if args.seed is None else args.seed
    n_rollouts = section.get("n", 100_000)

    started = time.perf_counter()
    tracer = _TracingOracle(oracle)
    result, solution = solve_mixed_scalar(tracer, oracle.bounds)
    # lambda* is usually the multiplier of the search's last query
    reference = tracer.last[1] if tracer.last[0] == solution.dual else None
    optimality = check_optimality(solution, oracle.bounds, oracle, 1e-6, reference)
    monte_carlo = _run_monte_carlo(oracle, solution, seed, n_rollouts)
    wall = time.perf_counter() - started

    # Output gate: randomizing can only help, so a mixture costlier than
    # the best pure candidate means something upstream went wrong.
    if solution.aggregate.c0 > result.upper.cost.c0 + 1e-9:
        raise MixedControlError(
            "mixed cost exceeds the pure upper bound; refusing to write the report"
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    components = []
    pure_ref = None  # the search's safe endpoint is always one of the components
    for i, (cand, weight) in enumerate(solution.components):
        ref = oracle.save(cand.policy, str(i), out_dir)
        if cand.cost == result.upper.cost:
            pure_ref = ref
        components.append(
            {
                "policy": ref,
                "probability": weight,
                "cost": cand.cost.c0,
                "risk": cand.cost.c1,
            }
        )

    report = {
        "schema": SCHEMA_VERSION,
        "kind": config["kind"],
        "risk_bound": oracle.bounds.values[0],
        "pure": {
            "policy": pure_ref,
            "cost": result.upper.cost.c0,
            "risk": result.upper.cost.c1,
        },
        "mixed": {
            "components": components,
            "aggregate": {"cost": solution.aggregate.c0, "risk": solution.aggregate.c1},
            "gap_estimate": solution.gap_estimate,
        },
        "dual": {
            "lambda_star": result.lambda_star,
            "q_star": result.q_star,
            "iterations": result.iterations,
            # a search that stops short raises instead of writing a report
            "converged": True,
        },
        "optimality": {
            "overall": optimality.overall,
            "conditions": optimality.conditions,
            "residuals": optimality.residuals,
        },
        "monte_carlo": monte_carlo,
        "wall_time_s": None,
    }
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_trace(out_dir / "dual_trace.csv", tracer.rows)
    print(
        f"solve {config['kind']}: lambda*={result.lambda_star:.6g} "
        f"aggregate=({solution.aggregate.c0:.6g}, {solution.aggregate.c1:.6g}) "
        f"components={len(components)} wall={wall:.3f}s -> {out_dir}",
        file=sys.stderr,
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    config = load_config(config_path)
    oracle = build_setup(config, config_path.parent)
    out_dir = Path(args.out)
    report_path = out_dir / "report.json"
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InvalidInputError(f"cannot read report {report_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{report_path} is not valid JSON: {exc}") from exc

    try:
        saved_components = [
            (entry["policy"], float(entry["probability"]))
            for entry in report["mixed"]["components"]
        ]
        lambda_star = float(report["dual"]["lambda_star"])
        gap = float(report["mixed"]["gap_estimate"])
        saved_cost = float(report["mixed"]["aggregate"]["cost"])
        saved_risk = float(report["mixed"]["aggregate"]["risk"])
        saved_seed = report["monte_carlo"]["seed"]
        n_rollouts = report["monte_carlo"]["n"]
        saved_rate = float(report["monte_carlo"]["failure_rate"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"report has a missing or malformed field: {exc!r}") from exc
    _check_type("report's monte_carlo.seed", saved_seed, int)
    _check_type("report's monte_carlo.n", n_rollouts, int)
    if saved_seed < 0 or n_rollouts < 1:
        raise InvalidInputError("report's monte_carlo needs seed >= 0 and n >= 1")

    components = []
    for ref, weight in saved_components:
        policy = oracle.load(ref, out_dir)
        components.append((PureCandidate(policy, oracle.evaluate(policy)), weight))
    aggregate = mix_costs([(cand.cost, w) for cand, w in components])
    solution = MixedSolution(
        tuple(components), aggregate, DualVector((lambda_star,)), gap
    )

    failures = []
    optimality = check_optimality(solution, oracle.bounds, oracle, tol=1e-6)
    if not optimality.overall:
        failed = sorted(k for k, ok in optimality.conditions.items() if not ok)
        failures.append(f"optimality conditions failed: {', '.join(failed)}")
    if abs(aggregate.c0 - saved_cost) > 1e-9:
        failures.append(
            f"re-evaluated aggregate cost {aggregate.c0!r} differs from saved {saved_cost!r}"
        )
    if abs(aggregate.c1 - saved_risk) > 1e-9:
        failures.append(
            f"re-evaluated aggregate risk {aggregate.c1!r} differs from saved {saved_risk!r}"
        )

    seed = saved_seed if args.seed is None else args.seed
    monte_carlo = _run_monte_carlo(oracle, solution, seed, n_rollouts)
    if seed == saved_seed and abs(monte_carlo["failure_rate"] - saved_rate) > 1e-12:
        failures.append(
            f"replayed failure rate {monte_carlo['failure_rate']!r} differs "
            f"from saved {saved_rate!r}"
        )
    count = round(monte_carlo["failure_rate"] * n_rollouts)
    lo, hi = binomial_acceptance(aggregate.c1, n_rollouts, VALIDATE_FALSE_ALARM)
    # Against a risk that is only an upper bound, only too many failures count.
    if count > hi or (count < lo and not oracle.risk_is_upper_bound):
        failures.append(
            f"{count} failures in {n_rollouts} rollouts lie outside [{lo}, {hi}], the "
            f"range for the risk {aggregate.c1:.6g} at false-alarm rate {VALIDATE_FALSE_ALARM:g}"
        )

    if failures:
        for line in failures:
            print(f"validate: {line}", file=sys.stderr)
        return 1
    print(
        f"validate {config['kind']}: optimality ok, aggregate matches, "
        f"{count} failures in {n_rollouts} rollouts within [{lo}, {hi}]",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    config = load_config(config_path)
    oracle = build_setup(config, config_path.parent)
    section = config.get("sweep", {})
    lam_min = float(section.get("lambda_min", 0.0))
    lam_max = float(section.get("lambda_max", 2000.0))
    points = int(section.get("points", 21))
    if lam_min < 0 or lam_max <= lam_min or points < 2:
        raise InvalidInputError("sweep needs 0 <= lambda_min < lambda_max and points >= 2")

    tracer = _TracingOracle(oracle)
    for lam in np.linspace(lam_min, lam_max, points):
        tracer.query(DualVector((float(lam),)))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_trace(out_dir / "sweep.csv", tracer.rows)
    best = max(tracer.rows, key=lambda r: r[4])
    print(
        f"sweep {config['kind']}: {points} samples on [{lam_min:g}, {lam_max:g}], "
        f"best dual value {best[4]:.6g} at lambda={best[1]:g} -> {out_dir}",
        file=sys.stderr,
    )
    return 0


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedctrl",
        description="Solve risk-constrained control problems with mixed strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("solve", _cmd_solve, "run the full pipeline and write report artifacts"),
        ("validate", _cmd_validate, "re-check a saved report against its config"),
        ("sweep", _cmd_sweep, "sample the dual function on a multiplier grid"),
    )
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON run config")
        p.add_argument("--out", default="out", help="artifact directory (default: out)")
        p.add_argument("--seed", type=_seed, default=None, help="override the Monte Carlo seed")
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except InvalidInputError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except MixedControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
