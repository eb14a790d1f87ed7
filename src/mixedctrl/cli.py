"""Command-line front end: JSON configs in, deterministic artifacts out.

``solve`` runs the full pipeline for one scenario and writes
``report.json``, ``dual_trace.csv`` (the dual search's own record of its
queries), and whatever file the backend saves per mixture component;
`build_report` makes the report's tree.
``validate`` rebuilds the oracle from the config and has it load and
evaluate the saved components. From them it re-derives the mixture, the
certificate and the Monte Carlo check, builds the tree with the same
`build_report` and compares it with the saved one leaf by leaf, so a new
report field is checked with no new code. ``sweep`` samples the dual
function on a multiplier grid for plotting. Past the config, each
command talks only to the oracle that `build_setup` returns.

Exit codes: 0 success, 1 infeasible problem, solver limit or failed
validation, 2 invalid config, input or usage (an artifact that cannot be
written is bad input too). Reports are byte-identical across
repeated runs with the same config and seed; the measured wall time
would break that, so it goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .ccmdp import MdpOracle, simulate
from .core import (
    CostVector,
    InfeasibleProblemError,
    InvalidInputError,
    LagrangianOracle,
    MixedControlError,
    MixedSolution,
    MonteCarloCheck,
    PureCandidate,
    binomial_acceptance,
    lagrangian_value,
    split_rollouts,
)
from .dual import OptimalityReport, bracket_mixture, check_optimality, solve_mixed_scalar
from .scenarios import FiniteSetOracle, edl_oracle, grid_oracle, parse_grid_map
from .smpc import Obstacle, SmpcModel, SmpcOracle, build_pwl_cdf, estimate_mixture_risk_mc

SCHEMA_VERSION = 1
TRACE_COLUMNS = ("iteration", "lambda", "c0", "c1", "lagrangian_value")
# `validate` rejects a correct report's Monte Carlo check at most this often
VALIDATE_FALSE_ALARM = 1e-6
# numpy counts rollouts and sizes in 64-bit signed integers
_MAX_INT = 2**63 - 1


class _Number(NamedTuple):
    """A JSON number in [lo, hi], an integer when ``integer`` holds, and never
    NaN, an infinity or an integer too large for a float; ``what`` says so."""

    lo: float
    hi: float
    integer: bool
    what: str


# The config format. A shape is a `_Number`; `str`; a list holding the shape
# of every entry, where a list of lists has rows of one length; a tuple, a
# list with one shape per entry; or a dict, an object with exactly its keys,
# of which those in `_OPTIONAL` may be left out.
_NUMBER = _Number(-math.inf, math.inf, False, "a finite number")
_SIZE = _Number(-math.inf, _MAX_INT, True, "an integer <= 2**63 - 1")
_PROBABILITY = _Number(0, 1, False, "a finite number in [0, 1]")
_VERSION = _Number(SCHEMA_VERSION, SCHEMA_VERSION, True, f"the integer {SCHEMA_VERSION}")
_SECTIONS = {
    "monte_carlo": {
        "seed": _Number(0, math.inf, True, "an integer >= 0"),
        "n": _Number(1, _MAX_INT, True, "an integer in [1, 2**63 - 1]"),
    },
    "sweep": {
        "lambda_min": _Number(0, math.inf, False, "a finite number >= 0"),
        "lambda_max": _NUMBER,
        "points": _Number(2, _MAX_INT, True, "an integer in [2, 2**63 - 1]"),
    },
}
_OPTIONAL = frozenset({"pwl_segments", *_SECTIONS, *_SECTIONS["monte_carlo"], *_SECTIONS["sweep"]})
_EVERY_KIND = {"schema": _VERSION, "kind": str, "risk_bound": _PROBABILITY, **_SECTIONS}
_SCHEMA = {
    "toy": {**_EVERY_KIND, "policies": [(_NUMBER, _PROBABILITY)]},
    "grid": {**_EVERY_KIND, "map": str, "horizon": _SIZE, "max_step": _SIZE, "sigma": _NUMBER},
    "edl": {
        **_EVERY_KIND, "map": str, "stages": _SIZE,
        "ellipsoids": [{"matrix": [[_NUMBER]], "radius": _NUMBER}],
        "sigmas": [(_NUMBER, _NUMBER)],
    },
    "smpc": {
        **_EVERY_KIND, "a": [[_NUMBER]], "b": [[_NUMBER]], "sigma_w": [[_NUMBER]],
        "horizon": _SIZE, "x_init": [_NUMBER], "x_goal": [_NUMBER], "u_lower": [_NUMBER],
        "u_upper": [_NUMBER], "obstacles": [{"normals": [[_NUMBER]], "offsets": [_NUMBER]}],
        "pwl_segments": _SIZE,
    },
}


def _path_text(path) -> str:
    """The key path that ``path``, a label or a ``(parent, key)`` pair, stands for."""
    if type(path) is str:
        return path
    parent, key = _path_text(path[0]), path[1]
    return f"{parent}[{key}]" if type(key) is int else f"{parent}.{key}" if parent else key


def _shown(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _check(value, shape, path) -> None:
    """Raise InvalidInputError unless ``value`` has ``shape``. ``path``, the
    value's label or a ``(parent path, key)`` pair, is only spelled out in
    the message, as in ``sigmas[0] must be a list of 2 entries, got [2.0]``."""
    kind = type(value)
    if type(shape) is _Number:
        what = shape.what
        # bool is a subclass of int, but JSON's true and false are no numbers
        try:  # float(): an integer too large for one is no finite number
            fits = (kind is int and (shape.integer or math.isfinite(float(value)))) or (
                kind is float and not shape.integer and math.isfinite(value)
            )
        except OverflowError:
            fits = False
        fits = fits and shape.lo <= value <= shape.hi
    elif shape is str:
        what, fits = "a string", kind is str
    elif type(shape) is tuple:
        what, fits = f"a list of {len(shape)} entries", kind is list and len(value) == len(shape)
        for i, item in enumerate(value if fits else ()):
            _check(item, shape[i], (path, i))
    elif type(shape) is list:
        (item,) = shape
        what, fits = "a list", kind is list
        # one pass over a list of finite floats: a NaN or an infinity makes the sum one
        if fits and not (
            item is _NUMBER and all(type(v) is float for v in value) and math.isfinite(sum(value))
        ):
            for i, entry in enumerate(value):
                _check(entry, item, (path, i))
                if type(item) is list and len(entry) != len(value[0]):
                    raise InvalidInputError(
                        f"{_path_text((path, i))} must be a list of {len(value[0])} entries"
                        f" like {_path_text((path, 0))}, got {_shown(entry)}"
                    )
    else:
        what, fits = "an object", kind is dict
        for key in value if fits else ():
            if key not in shape:
                raise InvalidInputError(f"unknown key {_path_text((path, key))}")
        for key, item in shape.items() if fits else ():
            if key in value:
                _check(value[key], item, (path, key))
            elif key not in _OPTIONAL:
                raise InvalidInputError(f"missing key {_path_text((path, key))}")
    if not fits:
        raise InvalidInputError(f"{_path_text(path)} must be {what}, got {_shown(value)}")


def _read_json(path: Path, what: str):
    """The JSON document in ``path``."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: bytes that are not UTF-8
        raise InvalidInputError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    # ValueError: an integer past int()'s digit limit, besides JSONDecodeError
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


def load_config(path: Path) -> dict:
    """The config in ``path``, checked against ``_SCHEMA`` of its kind."""
    config = _read_json(path, "config")
    if type(config) is not dict:
        raise InvalidInputError("config root must be a JSON object")
    kind = config.get("kind")
    if type(kind) is not str or kind not in _SCHEMA:
        raise InvalidInputError(f"kind must be one of {', '.join(_SCHEMA)}, got {_shown(kind)}")
    _check(config, _SCHEMA[kind], "")
    return config


def _read_map(config: dict, base_dir: Path):
    path = base_dir / config["map"]
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, bytes not UTF-8
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
    return FiniteSetOracle([CostVector(*pair) for pair in config["policies"]],
                           float(config["risk_bound"]))


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
    obstacles = tuple(Obstacle(entry["normals"], entry["offsets"]) for entry in config["obstacles"])
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
    # without pwl_segments the oracle builds `build_pwl_cdf`'s default majorant
    pwl = build_pwl_cdf(config["pwl_segments"]) if "pwl_segments" in config else None
    return SmpcOracle(model, float(config["risk_bound"]), pwl)


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
    """The oracle of a config that `load_config` read; ``base_dir`` resolves its map path."""
    return _BUILDERS[config["kind"]](config, base_dir)


def _run_monte_carlo(
    oracle: LagrangianOracle, solution: MixedSolution, seed: int, n: int
) -> MonteCarloCheck:
    if isinstance(oracle, MdpOracle):
        return simulate(oracle.mdp, solution, seed, n)
    if isinstance(oracle, SmpcOracle):
        return estimate_mixture_risk_mc(oracle.model, solution, n, seed)
    # Finite-set backend: how many rollouts each component gets, then how
    # many of those fail at its exact risk; no array grows with n.
    rng, counts = split_rollouts(solution, seed, n)
    costs = np.array([cand.cost.c0 for cand, _ in solution.components])
    risks = np.array([cand.cost.c1 for cand, _ in solution.components])
    failures = int(rng.binomial(counts, risks).sum())
    return MonteCarloCheck(n, failures, float(counts @ costs / n))


def _write_trace(
    path: Path, queries: Sequence[tuple[float, CostVector]], bound: float
) -> None:
    """One row per ``(lam, cost)`` query, with the answer's Lagrangian value."""
    lines = [",".join(TRACE_COLUMNS)]
    for it, (lam, cost) in enumerate(queries):
        value = lagrangian_value(cost, lam, bound)
        lines.append(f"{it},{lam!r},{cost.c0!r},{cost.c1!r},{value!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class _BadInput(InvalidInputError):
    """Bad input other than the config and the map it names: the ``--out``
    path, a saved report or a component file that the report names."""


def _out_dir(path: str) -> Path:
    """The artifact directory ``path``, made with its parents if it is missing."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _BadInput(f"cannot create output directory {out_dir}: {exc}") from exc
    return out_dir


def _unwritable(exc: OSError, out_dir: Path) -> _BadInput:
    """The error for an artifact that `solve` or `sweep` could not write."""
    return _BadInput(f"cannot write {exc.filename or out_dir}: {exc.strerror or exc}")


def _failed_conditions(optimality: OptimalityReport) -> str:
    failed = (
        f"{name} (residual {optimality.residuals[name]!r})"
        for name, ok in sorted(optimality.conditions.items())
        if not ok
    )
    return f"optimality conditions failed: {', '.join(failed)}"


def build_report(
    kind: str,
    risk_bound: float,
    solution: MixedSolution,
    refs: Sequence[object],
    optimality: OptimalityReport,
    monte_carlo: MonteCarloCheck,
    seed: int,
    iterations: int | None,
) -> dict:
    """The ``report.json`` tree: ``solve`` writes it, ``validate`` re-derives
    it from the saved components and compares. ``refs`` are the components'
    saved references and ``seed`` drew ``monte_carlo``. The last component,
    the bracket's safe end, is the best pure plan the search found."""
    safe = solution.components[-1][0].cost
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "risk_bound": risk_bound,
        "pure": {"policy": refs[-1], "cost": safe.c0, "risk": safe.c1},
        "mixed": {
            "components": [
                {"policy": ref, "probability": weight, "cost": cand.cost.c0, "risk": cand.cost.c1}
                for ref, (cand, weight) in zip(refs, solution.components, strict=True)
            ],
            "aggregate": {"cost": solution.aggregate.c0, "risk": solution.aggregate.c1},
            "gap_estimate": solution.gap_estimate,
        },
        "dual": {
            "lambda_star": solution.dual,
            "q_star": optimality.q_star,
            "iterations": iterations,
        },
        "optimality": {
            "overall": optimality.overall,
            "conditions": optimality.conditions,
            "residuals": optimality.residuals,
        },
        "monte_carlo": {
            "seed": seed,
            "n": monte_carlo.n_rollouts,
            "failure_rate": monte_carlo.failure_rate,
            "ci99": list(monte_carlo.ci99),
            "cost_mean": monte_carlo.cost_mean,
        },
    }


def _setup(args: argparse.Namespace) -> tuple[dict, LagrangianOracle]:
    config_path = Path(args.config)
    config = load_config(config_path)
    return config, build_setup(config, config_path.parent)


def _cmd_solve(args: argparse.Namespace) -> int:
    config, oracle = _setup(args)
    section = config.get("monte_carlo", {})
    seed = section.get("seed", 0) if args.seed is None else args.seed
    n_rollouts = section.get("n", 100_000)

    started = time.perf_counter()
    queries, solution = solve_mixed_scalar(oracle)
    optimality = check_optimality(solution, oracle, dict(queries).get(solution.dual))
    # Output gates: randomizing can only help, so a mixture costlier than
    # the best pure candidate means something upstream went wrong, as does
    # a mixture that its own certificate rejects.
    if solution.aggregate.c0 > solution.components[-1][0].cost.c0 + 1e-9:
        raise MixedControlError(
            "mixed cost exceeds the pure upper bound; refusing to write the report"
        )
    if not optimality.overall:
        raise MixedControlError(
            f"{_failed_conditions(optimality)}; refusing to write the report"
        )
    monte_carlo = _run_monte_carlo(oracle, solution, seed, n_rollouts)
    wall = time.perf_counter() - started

    out_dir = _out_dir(args.out)
    try:
        refs = [oracle.save(cand.policy, str(i), out_dir)
                for i, (cand, _) in enumerate(solution.components)]
        report = build_report(
            config["kind"], oracle.risk_bound, solution, refs, optimality, monte_carlo, seed,
            len(queries),
        )
        _write_trace(out_dir / "dual_trace.csv", queries, oracle.risk_bound)
        # last, so that a write that fails leaves no report for `validate`
        (out_dir / "report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise _unwritable(exc, out_dir) from exc
    print(
        f"solve {config['kind']}: lambda*={solution.dual:.6g} "
        f"aggregate=({solution.aggregate.c0:.6g}, {solution.aggregate.c1:.6g}) "
        f"components={len(refs)} wall={wall:.3f}s -> {out_dir}",
        file=sys.stderr,
    )
    return 0


# Report leaves that `validate` cannot re-derive: they describe the search,
# which it does not rerun. It only checks they are there.
_NOT_DERIVED = frozenset({"dual.iterations"})
# Leaves drawn from the Monte Carlo seed: compared to 1e-12 when the replay
# uses the report's own seed, and not at all under another --seed.
_SEEDED = frozenset(
    {"monte_carlo.seed", "monte_carlo.failure_rate", "monte_carlo.ci99", "monte_carlo.cost_mean"}
)
# Numbers copied from the config rather than computed: compared exactly.
_EXACT = frozenset({"risk_bound"})
_REPORT_NUMBER = _NUMBER._replace(what="a number")


def _malformed(path: str, what: str, value: object) -> InvalidInputError:
    return InvalidInputError(f"report's {path} must be {what}, got {json.dumps(value)}")


def _number(value: object, path: str) -> float:
    _check(value, _REPORT_NUMBER, f"report's {path}")
    return float(value)


def _diff(saved: object, fresh: object, path: str, skip: frozenset, lines: list[str]) -> None:
    """Append a ``<path>: saved X, re-derived Y`` line for each leaf of the
    re-derived report ``fresh`` that ``saved`` does not match, and for each
    key that only ``saved`` has. A missing key, or a saved leaf of another
    JSON type where ``fresh`` holds an object, a number or a boolean, makes
    the report malformed. A list of numbers is one leaf."""
    if type(fresh) is dict:
        if type(saved) is not dict:
            raise _malformed(path, "an object", saved)
        for key in sorted(fresh.keys() | saved.keys()):
            at = f"{path}.{key}" if path else key
            if key not in saved:
                raise InvalidInputError(f"report is missing {at}")
            if key in fresh:
                _diff(saved[key], fresh[key], at, skip, lines)
            else:
                lines.append(f"{at}: saved {json.dumps(saved[key])}, re-derived nothing")
        return
    if type(fresh) is list and type(fresh[0]) is dict:  # the components, read from `saved`
        for i, (kept, made) in enumerate(zip(saved, fresh, strict=True)):
            _diff(kept, made, f"{path}[{i}]", skip, lines)
        return
    if path in skip:
        return
    tol = 0.0 if path in _EXACT else 1e-12 if path in _SEEDED else 1e-9
    if type(fresh) is bool:
        if type(saved) is not bool:
            raise _malformed(path, "true or false", saved)
        differs = saved is not fresh
    elif type(fresh) is float:
        differs = abs(_number(saved, path) - fresh) > tol
    elif type(fresh) is list:
        if type(saved) is not list or len(saved) != len(fresh):
            raise _malformed(path, f"a list of {len(fresh)} numbers", saved)
        differs = max(abs(_number(kept, path) - made) for kept, made in zip(saved, fresh)) > tol
    else:  # a string, an integer or null
        differs = type(saved) is not type(fresh) or saved != fresh
    if differs:
        lines.append(f"{path}: saved {json.dumps(saved)}, re-derived {json.dumps(fresh)}")


def _cmd_validate(args: argparse.Namespace) -> int:
    config, oracle = _setup(args)
    try:
        return _validate_report(config["kind"], oracle, Path(args.out), args.seed)
    except InvalidInputError as exc:
        # past the config, every input is the report or a file it names
        raise _BadInput(str(exc)) from exc


def _validate_report(
    kind: str, oracle: LagrangianOracle, out_dir: Path, seed: int | None
) -> int:
    """Re-derive the report in ``out_dir`` from its components and compare."""
    saved = _read_json(out_dir / "report.json", "report")
    try:
        schema = saved["schema"]
        refs = [entry["policy"] for entry in saved["mixed"]["components"]]
        saved_seed, n_rollouts = saved["monte_carlo"]["seed"], saved["monte_carlo"]["n"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"report has a missing or malformed field: {exc!r}") from exc
    _check(schema, _VERSION, "report's schema")
    _check({"seed": saved_seed, "n": n_rollouts}, _SECTIONS["monte_carlo"], "report's monte_carlo")

    # each component is evaluated once; the certificate reuses the costs
    components = []
    for ref in refs:
        policy = oracle.load(ref, out_dir)
        components.append(PureCandidate(policy, oracle.evaluate(policy)))
    try:
        solution = bracket_mixture(components, oracle.risk_bound)
    except InvalidInputError as exc:
        raise InvalidInputError(f"report holds no valid mixture: {exc}") from exc
    # The certificate makes the one oracle query, at lambda*. Its condition f
    # holds by construction here: the component costs are the evaluations
    # just made, and the diff below compares them to the saved ones.
    optimality = check_optimality(solution, oracle, reevaluate=False)
    seed = saved_seed if seed is None else seed
    monte_carlo = _run_monte_carlo(oracle, solution, seed, n_rollouts)
    fresh = build_report(
        kind, oracle.risk_bound, solution, refs, optimality, monte_carlo, seed, None
    )
    failures: list[str] = []
    _diff(saved, fresh, "", _NOT_DERIVED if seed == saved_seed else _NOT_DERIVED | _SEEDED,
          failures)
    if not optimality.overall:
        failures.append(_failed_conditions(optimality))
    count = monte_carlo.failures
    lo, hi = binomial_acceptance(solution.aggregate.c1, n_rollouts, VALIDATE_FALSE_ALARM)
    # Against a risk that is only an upper bound, only too many failures count.
    if count > hi or (count < lo and not oracle.risk_is_upper_bound):
        failures.append(
            f"{count} failures in {n_rollouts} rollouts lie outside [{lo}, {hi}], the range for"
            f" the risk {solution.aggregate.c1:.6g} at false-alarm rate {VALIDATE_FALSE_ALARM:g}"
        )

    if failures:
        for line in failures:
            print(f"validate: {line}", file=sys.stderr)
        return 1
    print(
        f"validate {kind}: report re-derived, "
        f"{count} failures in {n_rollouts} rollouts within [{lo}, {hi}]",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config, oracle = _setup(args)
    section = config.get("sweep", {})
    lam_min = float(section.get("lambda_min", 0.0))
    lam_max = float(section.get("lambda_max", 2000.0))
    points = section.get("points", 21)
    if lam_max <= lam_min:
        raise InvalidInputError(
            f"sweep needs lambda_min < lambda_max, got {lam_min:g} and {lam_max:g}"
        )

    # float(): a numpy scalar would reach sweep.csv as np.float64(...)
    lams = [float(lam) for lam in np.linspace(lam_min, lam_max, points)]
    queries = [(lam, oracle.query(lam).cost) for lam in lams]
    out_dir = _out_dir(args.out)
    try:
        _write_trace(out_dir / "sweep.csv", queries, oracle.risk_bound)
    except OSError as exc:
        raise _unwritable(exc, out_dir) from exc
    values = [lagrangian_value(cost, lam, oracle.risk_bound) for lam, cost in queries]
    best = max(range(points), key=values.__getitem__)
    print(
        f"sweep {config['kind']}: {points} samples on [{lam_min:g}, {lam_max:g}], "
        f"best dual value {values[best]:.6g} at lambda={lams[best]:g} -> {out_dir}",
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
        if name != "sweep":  # sweep runs no Monte Carlo check
            p.add_argument(
                "--seed", type=_seed, default=None, help="override the Monte Carlo seed"
            )
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
        label = "input" if isinstance(exc, _BadInput) else "config"
        print(f"invalid {label}: {exc}", file=sys.stderr)
        return 2
    except MixedControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
