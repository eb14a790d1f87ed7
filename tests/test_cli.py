from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixedctrl import ccmdp, cli, milp, smpc
from mixedctrl.cli import VALIDATE_FALSE_ALARM, build_setup, main
from mixedctrl.core import CostVector, InvalidInputError, binomial_acceptance, wilson_ci_99
from mixedctrl.scenarios import FiniteSetOracle, parse_grid_map

from _oracles import edl_tables_reference, policy_csv_per_row

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _write(tmp_path: Path, name: str, config: dict | str) -> Path:
    """Write ``config`` as JSON, or as given when it is already JSON text."""
    path = tmp_path / name
    path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    return path


def _toy_config(**overrides) -> dict:
    config = {
        "schema": 1,
        "kind": "toy",
        "policies": [[20.0, 0.005], [10.0, 0.015]],
        "risk_bound": 0.01,
        "monte_carlo": {"seed": 0, "n": 2000},
    }
    config.update(overrides)
    return config


def _line_smpc_config(**overrides) -> dict:
    config = {
        "schema": 1,
        "kind": "smpc",
        "a": [[1.0]],
        "b": [[1.0]],
        "sigma_w": [[0.0004]],
        "horizon": 3,
        "x_init": [0.0],
        "x_goal": [2.0],
        "u_lower": [-1.5],
        "u_upper": [1.5],
        "obstacles": [{"normals": [[1.0]], "offsets": [1.2]}],
        "risk_bound": 0.01,
        "pwl_segments": 8,
        "monte_carlo": {"seed": 3, "n": 20000},
    }
    config.update(overrides)
    return config


def _shipped_config(name: str) -> dict:
    """A shipped config whose map path still resolves when it is written elsewhere."""
    config = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    if "map" in config:
        config["map"] = str(CONFIGS / config["map"])
    return config


def _replace(config: dict, path: tuple, value) -> dict:
    """A copy of ``config`` whose value at the key path ``path`` is ``value``."""
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


def _path_text(path: tuple) -> str:
    return "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)[1:]


def _leaf(tree, path: tuple):
    for key in path:
        tree = tree[key]
    return tree


def _wrong_shapes(name: str) -> list:
    """Each nested key of a shipped config edited to a wrong JSON shape, with
    what its message must say: each number or string set to another JSON
    type, the last row of each list of rows cut short, and each object below
    the root given an unknown key and, in a list, left without each key."""
    config = _shipped_config(name)
    cases = []

    def visit(node, path):
        where = _path_text(path)
        if type(node) is dict:
            if path:
                extra = _replace(config, (*path, "extra"), 1.0)
                cases.append((extra, f"unknown key {where}.extra"))
            for key, item in node.items():
                if path and type(path[-1]) is int:
                    dropped = json.loads(json.dumps(config))
                    del _leaf(dropped, path)[key]
                    cases.append((dropped, f"missing key {where}.{key}"))
                visit(item, (*path, key))
        elif type(node) is list:
            if type(node[-1]) is list:
                last = (*path, len(node) - 1)
                cases.append((_replace(config, last, node[-1][:-1]),
                              f"{_path_text(last)} must be a list of {len(node[-1])} entries"))
            for i, item in enumerate(node):
                visit(item, (*path, i))
        else:
            for value in ([1.0], None, 5 if type(node) is str else "x"):
                cases.append((_replace(config, path, value), f"{where} must be"))

    visit(config, ())
    return cases


# Numbers of the wrong type, each with the key it must name.
_MISTYPED_NUMBERS = [
    ({**_shipped_config("desk_grid"), "horizon": 12.9}, "horizon"),
    ({**_shipped_config("desk_grid"), "horizon": True}, "horizon"),
    ({**_shipped_config("desk_grid"), "horizon": "7"}, "horizon"),
    ({**_shipped_config("desk_grid"), "max_step": 6.0}, "max_step"),
    ({**_shipped_config("desk_grid"), "sigma": "1.0"}, "sigma"),
    ({**_shipped_config("landing"), "stages": 3.0}, "stages"),
    (_line_smpc_config(horizon=3.0), "horizon"),
    (_line_smpc_config(pwl_segments=6.7), "pwl_segments"),
    # every nested value other than the map path is a number too
    (_replace(_shipped_config("landing"), ("ellipsoids", 0, "radius"), "10.0"),
     "ellipsoids[0].radius"),
    (_replace(_shipped_config("landing"), ("sigmas", 0), ["2.0", True]), "sigmas[0][0]"),
    ({**_shipped_config("corridor"), "a": [[True, False], [False, "1"]]}, "a[0][0]"),
    ({**_shipped_config("corridor"), "x_goal": ["6", 0.0]}, "x_goal[0]"),
    (_line_smpc_config(u_upper=[None]), "u_upper[0]"),
    (_replace(_line_smpc_config(), ("obstacles", 0, "offsets", 0), False),
     "obstacles[0].offsets[0]"),
    (_replace(_toy_config(), ("policies", 0), ["1.0", True]), "policies[0][0]"),
    (_toy_config(schema=True), "schema"),
    (_toy_config(schema=1.0), "schema"),
    # a key that holds one number rejects a list of numbers
    ({**_shipped_config("desk_grid"), "sigma": [1.0]}, "sigma"),
    (_toy_config(risk_bound=[0.01]), "risk_bound"),
]

# Wrong shapes, ranges and sizes, each with what its message must name.
_BAD_SHAPES_AND_RANGES = [
    (_line_smpc_config(a=5), "a must be a list"),
    (_toy_config(kind=["toy"]), 'kind must be one of toy, grid, edl, smpc, got ["toy"]'),
    (_toy_config(kind={}), "kind must be one of toy, grid, edl, smpc, got {}"),
    (_toy_config(monte_carlo={"n": 10**30}), "monte_carlo.n"),
    (_line_smpc_config(obstacles={}), "obstacles"),
    (_line_smpc_config(obstacles=[[1.0]]), "obstacles"),
    (_line_smpc_config(obstacles=[{"normals": [[1.0]]}]), "obstacles"),
    (_toy_config(policies=[[1, -2]]), "policies[0]"),
    (_toy_config(policies=[[20.0, 0.005], [10.0, 1.5]]), "policies[1]"),
    (_toy_config(policies=[[float("inf"), 0.005]]), "policies[0]"),
    # JSON's NaN and Infinity, and literals that overflow a float, are no finite numbers
    (_replace(_shipped_config("corridor"), ("sigma_w", 0, 0), float("inf")),
     "sigma_w[0][0] must be a finite number, got Infinity"),
    ({**_shipped_config("desk_grid"), "sigma": float("inf")},
     "sigma must be a finite number, got Infinity"),
    (json.dumps(_toy_config()).replace('"risk_bound": 0.01', '"risk_bound": 1e999'),
     "risk_bound must be a finite number in [0, 1], got Infinity"),
    ({**_shipped_config("desk_grid"), "sigma": 10**400}, "sigma must be a finite number"),
    (_toy_config(sweep={"lambda_max": float("nan")}),
     "sweep.lambda_max must be a finite number, got NaN"),
    (_replace(_shipped_config("corridor"), ("x_goal", 0), float("nan")),
     "x_goal[0] must be a finite number, got NaN"),
    # sizes past what a table or an int64 holds
    ({**_shipped_config("desk_grid"), "sigma": 1e300}, "noise scale 1e+300 reaches 2**31 cells"),
    (_replace(_shipped_config("landing"), ("sigmas", 1, 0), 1e300), "noise scale 1e+300"),
    (_replace(_shipped_config("landing"), ("ellipsoids", 0, "radius"), 1e300),
     "ellipsoid radius 1e+300 reaches 2**31 cells"),
    ({**_shipped_config("corridor"), "pwl_segments": 2**40}, "1099511627776 chord segments"),
    ({**_shipped_config("desk_grid"), "horizon": 10**30},
     "horizon must be an integer <= 2**63 - 1"),
    ({**_shipped_config("desk_grid"), "max_step": 10**30}, "max_step must be an integer <="),
    ({**_shipped_config("corridor"), "horizon": 10**30}, "horizon must be an integer <="),
    ({**_shipped_config("landing"), "stages": 2**63}, "stages must be an integer <="),
    # text that json cannot read, and a map path that no file can have
    ("[" * 100_000 + "]" * 100_000, "is not valid JSON: maximum recursion depth"),
    (json.dumps(_toy_config()).replace('"n": 2000', '"n": ' + "9" * 5000),
     "is not valid JSON: Exceeds the limit (4300 digits)"),
    ({**_shipped_config("desk_grid"), "map": "desk\u0000grid.map"}, "cannot read map"),
    *(case for name in ("toy", "desk_grid", "landing", "corridor") for case in _wrong_shapes(name)),
]


def test_unknown_subcommand_exits_2_with_usage(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_a_missing_map_is_a_config_error(tmp_path, capsys):
    config = _write(tmp_path, "grid.json", {**_shipped_config("desk_grid"), "map": "nope.map"})
    assert main(["validate", str(config), "--out", str(tmp_path / "run")]) == 2
    assert "invalid config: cannot read map" in capsys.readouterr().err


def test_config_validation_failures_exit_2(tmp_path, capsys):
    cases = [
        _toy_config(schema=99),
        _toy_config(kind="mystery"),
        {"schema": 1, "kind": "toy", "risk_bound": 0.01},
        _toy_config(policies=[[1.0]]),
        {"schema": 1, "kind": "grid", "map": "missing.map", "horizon": 3,
         "max_step": 2, "sigma": 0.5, "risk_bound": 0.1},
        _toy_config(risk_bound=-0.01),
        _toy_config(risk_bound=1.5),
        _toy_config(risk_bound=float("nan")),
        _toy_config(risk_bound=float("inf")),
        _toy_config(risk_bound="0.01"),
        _toy_config(risk_bound=True),
        _toy_config(solver={"tol_lambda": 1e-6, "max_depth": 3}),
        _toy_config(monte_carlo=[1, 2]),
        _toy_config(monte_carlo={"n": "many"}),
        _toy_config(monte_carlo={"seed": 1.5}),
        _toy_config(monte_carlo={"seed": -1}),
        _toy_config(monte_carlo={"n": 0}),
        _toy_config(monte_carlo={"rollouts": 10}),
        _toy_config(sweep="x"),
        _toy_config(sweep={"points": "5"}),
        _toy_config(sweep={"lambda_max": 1.0, "steps": 3}),
    ]
    for i, config in enumerate(cases):
        path = _write(tmp_path, f"bad_{i}.json", config)
        for command in ("solve", "validate", "sweep"):
            code = main([command, str(path), "--out", str(tmp_path / "out")])
            assert code == 2, (command, config)
    good = _write(tmp_path, "good.json", _toy_config())
    assert main(["solve", str(good), "--out", str(tmp_path / "out"), "--seed", "-1"]) == 2
    # a step longer than a 4x4 map needs: max_step 5 already reaches its far corner
    (tmp_path / "small.map").write_text("S...\n....\n....\n...G\n", encoding="utf-8")
    far = _write(tmp_path, "far.json", {**_shipped_config("desk_grid"), "map": "small.map",
                                        "max_step": 6})
    for command in ("solve", "validate", "sweep"):
        capsys.readouterr()
        assert main([command, str(far), "--out", str(tmp_path / "out")]) == 2, command
        assert "max_step must be at most 5 on a 4x4 map, got 6" in capsys.readouterr().err
    for i, (config, key) in enumerate(_MISTYPED_NUMBERS):
        path = _write(tmp_path, f"mistyped_{i}.json", config)
        for command in ("solve", "validate", "sweep"):
            capsys.readouterr()
            assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2, (command, i)
            assert f"{key} must be" in capsys.readouterr().err, (command, i)
    for i, (config, text) in enumerate(_BAD_SHAPES_AND_RANGES):
        path = _write(tmp_path, f"bad_shape_{i}.json", config)
        for command in ("solve", "validate", "sweep"):
            capsys.readouterr()
            assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2, (command, i)
            assert text in capsys.readouterr().err, (command, i)
    # the largest rollout count numpy can hold still loads
    most = _write(tmp_path, "most.json", _toy_config(monte_carlo={"n": 2**63 - 1}))
    assert cli.load_config(most)["monte_carlo"]["n"] == 2**63 - 1
    (tmp_path / "latin1.json").write_bytes(b"\xff{}")
    assert main(["solve", str(tmp_path / "latin1.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    # finite floats whose sum overflows are finite numbers still
    big = _write(tmp_path, "big.json", {**_shipped_config("corridor"), "u_upper": [1e308, 1e308]})
    assert cli.load_config(big)["u_upper"] == [1e308, 1e308]
    assert (tmp_path / "out").exists() is False
    capsys.readouterr()


def test_a_builder_defect_is_no_config_error(tmp_path, monkeypatch):
    # only what the schema and the constructors reject is bad input
    def broken(config, base_dir):
        raise ValueError("a defect")

    monkeypatch.setitem(cli._BUILDERS, "toy", broken)
    path = _write(tmp_path, "toy.json", _toy_config())
    with pytest.raises(ValueError, match="a defect"):
        main(["solve", str(path), "--out", str(tmp_path / "out")])


def test_unknown_and_removed_keys_exit_2_naming_the_key(tmp_path, capsys):
    legacy = {"lambda_max": 1e6, "tol_lambda": 1e-3, "tol_risk": 1e-4, "max_iter": 5}
    grid = json.loads((CONFIGS / "desk_grid.json").read_text(encoding="utf-8"))
    landing = json.loads((CONFIGS / "landing.json").read_text(encoding="utf-8"))
    cases = [
        (_toy_config(solver=legacy), "solver"),
        ({**grid, "miss_penalty": 100.0}, "miss_penalty"),
        ({**landing, "unreachable_cost": 1e4}, "unreachable_cost"),
        (_line_smpc_config(milp_gap=1e-9), "milp_gap"),
        (_line_smpc_config(max_nodes=3), "max_nodes"),
        (_toy_config(pwl_segments=8), "pwl_segments"),
        (_toy_config(monte_carlo={"seed": 0, "n": 10, "chunk": 5}), "chunk"),
    ]
    for i, (config, key) in enumerate(cases):
        path = _write(tmp_path, f"bad_{i}.json", config)
        capsys.readouterr()
        assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2, key
        assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_malformed_report_exits_2(tmp_path, capsys):
    config = _write(tmp_path, "toy.json", _toy_config())
    out = tmp_path / "run"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    saved = json.loads((out / "report.json").read_text(encoding="utf-8"))

    def no_seed(report):
        del report["monte_carlo"]["seed"]

    def no_policy(report):
        del report["mixed"]["components"][0]["policy"]

    def bad_probability(report):
        report["mixed"]["components"][0]["probability"] = "x"

    def no_rollouts(report):
        report["monte_carlo"]["n"] = 0

    def infinite_seed(report):
        report["monte_carlo"]["seed"] = float("inf")

    def not_an_object(report):
        report["mixed"] = [1, 2]

    def fractional_seed(report):
        report["monte_carlo"]["seed"] = 0.5

    def boolean_seed(report):
        report["monte_carlo"]["seed"] = True

    def float_rollouts(report):
        report["monte_carlo"]["n"] = 2000.0

    def policy_out_of_range(report):
        report["mixed"]["components"][0]["policy"] = 5

    def negative_policy(report):
        report["mixed"]["components"][0]["policy"] = -1

    def fractional_policy(report):
        report["mixed"]["components"][0]["policy"] = 1.7

    def boolean_policy(report):
        report["mixed"]["components"][0]["policy"] = True

    def string_policy(report):
        report["mixed"]["components"][0]["policy"] = "1"

    def nan_cost(report):
        report["mixed"]["aggregate"]["cost"] = float("nan")

    def nan_failure_rate(report):
        report["monte_carlo"]["failure_rate"] = float("nan")

    def nan_multiplier(report):
        report["dual"]["lambda_star"] = float("nan")

    def string_cost(report):
        report["mixed"]["components"][0]["cost"] = "10.0"

    def string_probability(report):
        report["mixed"]["components"][0]["probability"] = "0.5"

    def string_multiplier(report):
        report["dual"]["lambda_star"] = str(report["dual"]["lambda_star"])

    def string_bound(report):
        report["risk_bound"] = "0.01"

    def boolean_residual(report):
        report["optimality"]["residuals"]["a"] = False

    def numeric_condition(report):
        report["optimality"]["conditions"]["a"] = 1

    def short_interval(report):
        report["monte_carlo"]["ci99"] = report["monte_carlo"]["ci99"][:1]

    def no_residual(report):
        del report["optimality"]["residuals"]["f"]

    def no_iterations(report):
        del report["dual"]["iterations"]

    def no_cost_mean(report):
        del report["monte_carlo"]["cost_mean"]

    def no_pure(report):
        del report["pure"]

    def no_pure_cost(report):
        del report["pure"]["cost"]

    def other_schema(report):
        report["schema"] = 7

    def boolean_schema(report):
        report["schema"] = True

    for tamper in (
        no_seed, no_policy, bad_probability, no_rollouts, infinite_seed, not_an_object,
        fractional_seed, boolean_seed, float_rollouts, policy_out_of_range, negative_policy,
        fractional_policy, boolean_policy, string_policy, nan_cost, nan_failure_rate,
        nan_multiplier, no_pure, no_pure_cost, other_schema, boolean_schema, string_cost,
        string_probability, string_multiplier, string_bound, boolean_residual, numeric_condition,
        short_interval, no_residual, no_iterations, no_cost_mean,
    ):
        report = json.loads(json.dumps(saved))
        tamper(report)
        (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(config), "--out", str(out)]) == 2, tamper.__name__
        err = capsys.readouterr().err
        assert "report" in err and err.startswith("invalid input: "), (tamper.__name__, err)
    report = json.loads(json.dumps(saved))
    report["monte_carlo"]["n"] = 2**63  # one past what numpy can count
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    assert main(["validate", str(config), "--out", str(out)]) == 2
    assert "report's monte_carlo.n must be" in capsys.readouterr().err
    # a leaf of the wrong JSON type is named by its key path
    for tamper, message in (
        (string_cost, "report's mixed.components[0].cost must be a number, got \"10.0\""),
        (boolean_residual, "report's optimality.residuals.a must be a number, got false"),
        (numeric_condition, "report's optimality.conditions.a must be true or false, got 1"),
        (no_residual, "report is missing optimality.residuals.f"),
        (no_cost_mean, "report is missing monte_carlo.cost_mean"),
    ):
        report = json.loads(json.dumps(saved))
        tamper(report)
        (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(config), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err, tamper.__name__

    # a control plan file must carry its u0,...,u{m-1} header and exist
    line = _write(tmp_path, "line.json", _line_smpc_config())
    out = tmp_path / "line"
    assert main(["solve", str(line), "--out", str(out)]) == 0
    report_text = (out / "report.json").read_text(encoding="utf-8")
    plan_text = (out / "plan_0.csv").read_text(encoding="utf-8")
    assert plan_text.startswith("u0\n")
    (out / "plan_0.csv").write_text("x0" + plan_text[2:], encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(line), "--out", str(out)]) == 2
    assert "plan_0.csv is not a control plan table" in capsys.readouterr().err
    (out / "plan_0.csv").write_text(plan_text, encoding="utf-8")
    (out / "report.json").write_text(
        report_text.replace("plan_0.csv", "plan_9.csv"), encoding="utf-8"
    )
    assert main(["validate", str(line), "--out", str(out)]) == 2
    assert "cannot read component" in capsys.readouterr().err


def test_validate_rejects_numbers_written_as_strings_or_booleans(tmp_path, capsys):
    # each of these leaves once passed validate, which read it with float()
    config = _write(tmp_path, "toy.json", _toy_config())
    out = tmp_path / "run"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    component = report["mixed"]["components"][0]
    assert component["cost"] == 10.0 and report["optimality"]["residuals"]["a"] == 0.0
    component.update(cost="10.0", probability=str(component["probability"]))
    report["dual"]["lambda_star"] = str(report["dual"]["lambda_star"])
    report["optimality"]["residuals"]["a"] = False
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: report's ") and "must be a number" in err, err


def test_toy_solve_writes_contractual_artifacts(tmp_path):
    config = _write(tmp_path, "toy.json", _toy_config())
    out = tmp_path / "run"
    assert main(["solve", str(config), "--out", str(out)]) == 0

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    probs = sorted(c["probability"] for c in report["mixed"]["components"])
    assert probs == pytest.approx([0.5, 0.5], abs=1e-9)
    assert report["mixed"]["aggregate"]["cost"] == pytest.approx(15.0, abs=1e-9)
    assert report["mixed"]["aggregate"]["risk"] == pytest.approx(0.01, abs=1e-12)
    assert report["dual"]["lambda_star"] == pytest.approx(1000.0, abs=1e-3)
    assert report["optimality"]["overall"] is True
    assert "wall_time_s" not in report
    assert report["pure"]["cost"] == pytest.approx(20.0)
    assert report["monte_carlo"]["n"] == 2000

    trace = (out / "dual_trace.csv").read_text(encoding="utf-8").splitlines()
    assert trace[0] == "iteration,lambda,c0,c1,lagrangian_value"
    assert len(trace) == 1 + report["dual"]["iterations"]
    first = trace[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0


def test_repeat_solve_is_byte_identical(tmp_path):
    config = _write(tmp_path, "toy.json", _toy_config())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", str(config), "--out", str(out)]) == 0
        outs.append(out)
    for artifact in ("report.json", "dual_trace.csv"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


class _CountingOracle:
    """Counts an oracle's queries by replacing its instance's `query`."""

    def __init__(self, oracle):
        self.inner_query = oracle.query
        self.queries = 0
        oracle.query = self.query

    def query(self, lam):
        self.queries += 1
        return self.inner_query(lam)


@pytest.mark.parametrize(
    "name, risk_bound",
    [
        pytest.param("toy", None, id="toy"),
        pytest.param("corridor", None, id="corridor"),
        # the bound is inactive: the search stops at its first answer
        pytest.param("toy", 0.5, id="loose-toy"),
        # the bracket's ends tie in cost: the search stops at lambda = 0
        pytest.param("corridor", 0.08, id="tied-corridor"),
    ],
)
def test_solve_makes_no_query_after_the_search(tmp_path, monkeypatch, name, risk_bound):
    # the certificate reuses the search's answer at lambda* instead of asking again
    oracles = []

    def counted_setup(config, base_dir):
        oracle = build_setup(config, base_dir)
        oracles.append(_CountingOracle(oracle))
        return oracle

    monkeypatch.setattr(cli, "build_setup", counted_setup)
    config = CONFIGS / f"{name}.json"
    if risk_bound is not None:
        config = {**_shipped_config(name), "risk_bound": risk_bound}
        config = _write(tmp_path, f"{name}.json", config)
    out = tmp_path / name
    assert main(["solve", str(config), "--out", str(out)]) == 0
    rows = (out / "dual_trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [oracle.queries for oracle in oracles] == [len(rows)]
    optimality = json.loads((out / "report.json").read_text(encoding="utf-8"))["optimality"]
    assert optimality["overall"] is True
    assert all(value <= 1e-6 for value in optimality["residuals"].values())


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only the SMPC path solves LPs and MILPs; MDP runs never load the engines
    code = "import sys, mixedctrl.cli; print('scipy.optimize' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"


def test_cli_import_loads_no_new_scipy_subpackage():
    # MDP spreads need scipy.sparse and validate's binomial tails scipy.special;
    # scipy.sparse.csgraph alone takes longer to import than a landing build
    code = (
        "import sys, mixedctrl.cli; print(' '.join(sorted("
        "m for m, mod in list(sys.modules.items())"
        " if m.split('.')[0] == 'scipy' and hasattr(mod, '__path__'))))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    packages = done.stdout.split()
    assert "scipy.sparse.csgraph" not in packages
    public = {m for m in packages if not any(part.startswith("_") for part in m.split("."))}
    assert public <= {"scipy", "scipy.sparse", "scipy.special"}, sorted(public)


def test_loose_bound_degenerates_to_one_component(tmp_path):
    config = _write(tmp_path, "loose.json", _toy_config(risk_bound=0.5))
    out = tmp_path / "run"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    components = report["mixed"]["components"]
    assert len(components) == 1
    assert components[0]["probability"] == 1.0
    assert components[0]["cost"] == 10.0
    assert report["dual"]["lambda_star"] == 0.0


def test_tied_corridor_returns_its_safe_plan_alone(tmp_path):
    # at this bound the least-effort plans (6, 0.1038) and (6, 0.0733) tie in
    # cost; mixing them would add risk and save nothing
    config = _write(tmp_path, "corridor.json", {**_shipped_config("corridor"), "risk_bound": 0.08})
    out = tmp_path / "run"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["dual"]["lambda_star"] == 0.0
    assert report["dual"]["iterations"] == 5
    (component,) = report["mixed"]["components"]
    assert component["probability"] == 1.0
    assert component["cost"] == pytest.approx(6.0, abs=1e-9)
    assert component["risk"] == pytest.approx(0.07329998478536809, rel=1e-9)
    assert report["mixed"]["gap_estimate"] == 0.0
    assert report["pure"] == {key: component[key] for key in ("policy", "cost", "risk")}
    rows = (out / "dual_trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    lambdas = [float(row.split(",")[1]) for row in rows]
    assert len(rows) == 5 and lambdas.count(0.0) == 1, rows
    assert main(["validate", str(config), "--out", str(out)]) == 0


def test_validate_round_trip_and_tamper_detection(tmp_path, capsys):
    config = _write(tmp_path, "toy.json", _toy_config())
    out = tmp_path / "run"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    assert main(["validate", str(config), "--out", str(out)]) == 0

    report_path = out / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for entry, p in zip(report["mixed"]["components"], (0.9, 0.1)):
        entry["probability"] = p
    report_path.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(config), "--out", str(out)]) == 1
    assert "validate:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "index, field, value, message",
    [
        pytest.param(0, "cost", 5.0,
                     "mixed.components[0].cost: saved 151.5674127879194, re-derived 146.567",
                     id="0-cost-5.0-component 0 (policy_0.csv)"),
        pytest.param(1, "risk", 0.5,
                     "mixed.components[1].risk: saved 0.5, re-derived 0.01209756638448546",
                     id="1-risk-0.5-component 1 (policy_1.csv)"),
    ],
)
def test_validate_rejects_a_tampered_component_naming_it(tmp_path, capsys, index, field, value,
                                                          message):
    # the aggregate stays as saved, so only the per-component check can see it
    out = tmp_path / "run"
    assert main(["solve", str(CONFIGS / "desk_grid.json"), "--out", str(out)]) == 0
    report_path = out / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    entry = report["mixed"]["components"][index]
    entry[field] = entry[field] + value if field == "cost" else value
    report_path.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(CONFIGS / "desk_grid.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err, err
    assert err.count("validate: ") == 1, err


@pytest.mark.parametrize(
    "tamper, messages",
    [
        pytest.param({"gap_estimate": 123.0},
                     ["mixed.gap_estimate: saved 123.0, re-derived 5.0"], id="gap"),
        # the gap is re-derived from the components, not from the saved pure cost
        pytest.param({"cost": 1.0}, ["pure.cost: saved 1.0, re-derived 20.0"], id="pure-cost"),
        pytest.param({"risk": 0.5}, ["pure.risk: saved 0.5, re-derived 0.005"], id="pure-risk"),
        pytest.param({"policy": "policy_7"},
                     ['pure.policy: saved "policy_7", re-derived 0'], id="pure-policy"),
    ],
)
def test_validate_rejects_a_tampered_pure_block_or_gap(tmp_path, capsys, tamper, messages):
    config = CONFIGS / "toy.json"
    out = tmp_path / "run"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    report_path = out / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["pure"] == {"policy": 0, "cost": 20.0, "risk": 0.005}
    assert report["mixed"]["gap_estimate"] == pytest.approx(5.0, abs=1e-12)
    section = report["mixed"] if "gap_estimate" in tamper else report["pure"]
    section.update(tamper)
    report_path.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(message in err for message in messages), err
    assert err.count("validate: ") == len(messages), err


@pytest.mark.parametrize(
    "tamper, message",
    [
        pytest.param(lambda r: r.update(kind="grid"),
                     'kind: saved "grid", re-derived "toy"', id="kind"),
        pytest.param(lambda r: r.update(risk_bound=0.5),
                     "risk_bound: saved 0.5, re-derived 0.01", id="risk-bound"),
        # the bound is the config's, not a computed value: no tolerance
        pytest.param(lambda r: r.update(risk_bound=0.01 + 1e-12),
                     "risk_bound: saved 0.010000000001, re-derived 0.01", id="risk-bound-close"),
        pytest.param(lambda r: r["dual"].update(q_star=-1e9),
                     "dual.q_star: saved -1000000000.0, re-derived 15.0", id="q-star"),
        # a multiplier outside the dual's domain is a wrong value like any other
        pytest.param(lambda r: r["dual"].update(lambda_star=-5.0),
                     "dual.lambda_star: saved -5.0, re-derived 1000.0", id="lambda-star"),
        pytest.param(lambda r: r["optimality"].update(overall=False),
                     "optimality.overall: saved false, re-derived true", id="overall"),
        pytest.param(lambda r: r["optimality"]["conditions"].update(b=False),
                     "optimality.conditions.b: saved false, re-derived true", id="condition"),
        pytest.param(lambda r: r["optimality"]["residuals"].update(e=1e-7),
                     "optimality.residuals.e: saved 1e-07, re-derived 0.0", id="residual"),
        pytest.param(lambda r: r["monte_carlo"].update(ci99=[0.9, 0.1]),
                     "monte_carlo.ci99: saved [0.9, 0.1], re-derived [0.0093", id="ci99"),
        pytest.param(lambda r: r["monte_carlo"].update(cost_mean=-5),
                     "monte_carlo.cost_mean: saved -5, re-derived 14.9802", id="cost-mean"),
        pytest.param(lambda r: r["dual"].update(bound=0.01),
                     "dual.bound: saved 0.01, re-derived nothing", id="unknown-key"),
    ],
)
def test_validate_rejects_report_fields_that_the_config_or_certificate_contradict(
    tmp_path, capsys, tamper, message
):
    config = CONFIGS / "toy.json"
    out = tmp_path / "run"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    report_path = out / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    tamper(report)
    report_path.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err, err
    assert err.count("validate: ") == 1, err


@pytest.mark.parametrize("name", ["toy", "desk_grid", "line"])
def test_validate_makes_one_oracle_query(tmp_path, monkeypatch, name):
    # the certificate and the q_star check share one answer at lambda*
    config = CONFIGS / f"{name}.json"
    if name == "line":
        config = _write(tmp_path, "line.json", _line_smpc_config())
    out = tmp_path / name
    assert main(["solve", str(config), "--out", str(out)]) == 0
    oracles = []

    def counted_setup(config, base_dir):
        oracle = build_setup(config, base_dir)
        oracles.append(_CountingOracle(oracle))
        return oracle

    monkeypatch.setattr(cli, "build_setup", counted_setup)
    assert main(["validate", str(config), "--out", str(out)]) == 0
    assert [oracle.queries for oracle in oracles] == [1]


def test_solve_refuses_a_mixture_that_its_certificate_rejects(tmp_path, monkeypatch, capsys):
    # a re-evaluation that disagrees with the search's costs fails condition f
    evaluate = FiniteSetOracle.evaluate

    def drifted(self, policy):
        cost = evaluate(self, policy)
        return CostVector(cost.c0 + 1e-3, cost.c1)

    monkeypatch.setattr(FiniteSetOracle, "evaluate", drifted)
    out = tmp_path / "run"
    assert main(["solve", str(CONFIGS / "toy.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: optimality conditions failed: f (residual 0.001000"), err
    assert "refusing to write the report" in err
    assert not out.exists()


def test_validate_accepts_a_count_outside_the_99_percent_interval(tmp_path, capsys):
    # at seed 215 the toy mixture (exact risk 0.01) fails 33 of 2000
    # rollouts: outside the 99% Wilson interval, well inside the range a
    # correct sampler leaves only once in a million runs
    config = _write(tmp_path, "toy.json", _toy_config())
    out = tmp_path / "run"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["validate", str(config), "--out", str(out), "--seed", "215"]) == 0
    assert "33 failures in 2000 rollouts" in capsys.readouterr().err
    lo, hi = wilson_ci_99(33, 2000)
    assert not lo <= 0.01 <= hi
    assert binomial_acceptance(0.01, 2000, VALIDATE_FALSE_ALARM) == (3, 45)


# per command, (config, artifact) pairs whose artifact path a directory holds
_HELD_ARTIFACTS = {
    "solve": (("toy", "report.json"), ("toy", "dual_trace.csv"), ("desk_grid", "policy_0.csv")),
    "sweep": (("toy", "sweep.csv"),),
}


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_an_out_path_that_cannot_be_made_exits_2_naming_it(tmp_path, command):
    configs = {"toy": _write(tmp_path, "toy.json", _toy_config()),
               "desk_grid": CONFIGS / "desk_grid.json"}
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    def run(config: Path, out: Path) -> str:
        done = subprocess.run(
            [sys.executable, "-m", "mixedctrl", command, str(config), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        return done.stderr

    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n", encoding="utf-8")
    for out in (taken, taken / "below"):
        assert f"invalid input: cannot create output directory {out}" in run(configs["toy"], out)
    assert taken.read_text(encoding="utf-8") == "a file, not a directory\n"
    # a directory where an artifact goes; file modes would not stop a root user
    for name, artifact in _HELD_ARTIFACTS[command]:
        out = tmp_path / f"{name}-{artifact}"
        (out / artifact).mkdir(parents=True)
        assert f"invalid input: cannot write {out / artifact}" in run(configs[name], out)
        assert not (out / "report.json").is_file()


def test_validate_without_report_exits_2(tmp_path, capsys):
    config = _write(tmp_path, "toy.json", _toy_config())
    assert main(["validate", str(config), "--out", str(tmp_path / "empty")]) == 2
    assert "invalid input: cannot read report" in capsys.readouterr().err


def test_shipped_grid_config_solves_and_validates(tmp_path):
    out = tmp_path / "run"
    config = CONFIGS / "desk_grid.json"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["kind"] == "grid"
    assert report["mixed"]["aggregate"]["risk"] == pytest.approx(0.02, abs=1e-12)
    assert report["mixed"]["aggregate"]["risk"] <= report["risk_bound"] == 0.02
    assert len(report["mixed"]["components"]) == 2
    for entry in report["mixed"]["components"]:
        table = (out / entry["policy"]).read_text(encoding="utf-8").splitlines()
        assert table[0] == "step,state,action"
        assert len(table) > 1
    assert main(["validate", str(config), "--out", str(out)]) == 0


def test_validate_accepts_landing_policy_files_that_list_every_cell(tmp_path):
    # older landing tables list an action at every cell, reachable or not:
    # the actions a sweep over whole-grid tables gives
    config = CONFIGS / "landing.json"
    out = tmp_path / "run"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    loaded = cli.load_config(config)
    feasible, markers = parse_grid_map((CONFIGS / loaded["map"]).read_text(encoding="utf-8"))
    stages = edl_tables_reference(
        feasible, (markers["A"][0], markers["B"][0]),
        [(np.asarray(e["matrix"], float), float(e["radius"])) for e in loaded["ellipsoids"]],
        [tuple(pair) for pair in loaded["sigmas"]],
    )
    n = feasible.size
    initial = np.zeros(n)
    (x, y), = markers["S"]
    initial[x * feasible.shape[1] + y] = 1.0
    whole = ccmdp.Mdp(
        dynamics=tuple(ccmdp.ShiftSpread(pairs, spread) for pairs, spread, _ in stages),
        stage_costs=tuple(cost for _, _, cost in stages),
        failure_masks=(np.zeros(n, bool),) * len(stages) + (~feasible.ravel(),),
        initial=initial,
    )
    trace = (out / "dual_trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    tables = [
        policy_csv_per_row(ccmdp.lagrangian_dp(whole, float(row.split(",")[1]))[0].actions)
        for row in trace
    ]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    for entry in report["mixed"]["components"]:
        path = out / entry["policy"]
        kept = set(path.read_text(encoding="utf-8").splitlines())
        # the whole-grid table whose rows at the kept cells are this file's
        full = next(text for text in tables if kept <= set(text.splitlines()))
        assert len(full.splitlines()) == 1 + len(stages) * n > len(kept)
        path.write_text(full, encoding="utf-8")
    assert main(["validate", str(config), "--out", str(out)]) == 0


def test_smpc_solve_validate_round_trip(tmp_path):
    config = _write(tmp_path, "line.json", _line_smpc_config())
    out = tmp_path / "run"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["mixed"]["aggregate"]["risk"] <= 0.01 + 1e-12
    for entry in report["mixed"]["components"]:
        lines = (out / entry["policy"]).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "u0"
        assert len(lines) == 4
    assert main(["validate", str(config), "--out", str(out)]) == 0


def test_smpc_unreachable_goal_exits_1_naming_the_stage(tmp_path, capsys):
    config = _write(
        tmp_path, "far.json", _line_smpc_config(x_goal=[50.0], obstacles=[])
    )
    assert main(["solve", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "infeasible" in err
    assert "terminal stage 3" in err


def test_sweep_samples_the_dual_function(tmp_path):
    config = _write(
        tmp_path,
        "toy.json",
        _toy_config(sweep={"lambda_min": 0.0, "lambda_max": 2000.0, "points": 5}),
    )
    out = tmp_path / "run"
    assert main(["sweep", str(config), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "iteration,lambda,c0,c1,lagrangian_value"
    assert len(lines) == 6
    values = [float(line.split(",")[4]) for line in lines[1:]]
    lams = [float(line.split(",")[1]) for line in lines[1:]]
    assert lams == [0.0, 500.0, 1000.0, 1500.0, 2000.0]
    assert max(values) == pytest.approx(15.0, abs=1e-9)
    assert values[0] == pytest.approx(10.0)


def test_smpc_node_budget_exits_1_naming_the_budget(tmp_path, monkeypatch, capsys):
    # a smaller milp.MAX_NODES, the one budget, stands in for a program too hard for it
    monkeypatch.setattr(milp, "MAX_NODES", 3)
    out = tmp_path / "out"
    assert main(["solve", str(CONFIGS / "corridor.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "used its node budget of 3 nodes" in err, err
    assert "infeasible" not in err and "obstacle" not in err
    assert not out.exists()


def test_seed_flag_overrides_the_config(tmp_path):
    config = _write(tmp_path, "toy.json", _toy_config())
    out = tmp_path / "run"
    assert main(["solve", str(config), "--out", str(out), "--seed", "123"]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["monte_carlo"]["seed"] == 123


def test_seed_flag_belongs_to_the_commands_that_sample(tmp_path, capsys):
    config = _write(tmp_path, "toy.json", _toy_config())
    out = tmp_path / "run"
    assert main(["sweep", str(config), "--out", str(out), "--seed", "1"]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not out.exists()
    assert main(["solve", str(config), "--out", str(out), "--seed", "7"]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["monte_carlo"]["seed"] == 7
    assert main(["validate", str(config), "--out", str(out), "--seed", "8"]) == 0
    assert main(["validate", str(config), "--out", str(out), "--seed", "-1"]) == 2


def test_bench_tracer_hook_points_stay_alive(tmp_path, monkeypatch):
    # the traced benchmark wraps package functions by name from outside
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_spans", spans)  # its dataclass looks itself up
    spec.loader.exec_module(spans)
    tracer = spans.Tracer({"cli": cli, "ccmdp": ccmdp, "smpc": smpc, "milp": milp})
    line = _write(tmp_path, "line.json", _line_smpc_config())
    configs = (CONFIGS / "desk_grid.json", line)
    tracer.install()
    try:
        for config in configs:
            assert main(["solve", str(config), "--out", str(tmp_path / config.stem)]) == 0
        solved = len(tracer.spans)
        for config in configs:
            assert main(["validate", str(config), "--out", str(tmp_path / config.stem)]) == 0
    finally:
        tracer.uninstall()
    # the dual trace is the search's record: one row per query it made
    searches = [span for span in tracer.spans[:solved] if span.name == "dual.solve"]
    assert len(searches) == len(configs)
    for config, search in zip(configs, searches):
        out = tmp_path / config.stem
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        rows = (out / "dual_trace.csv").read_text(encoding="utf-8").splitlines()[1:]
        queries = sum(
            1 for span in tracer.spans
            if span.name in ("ccmdp.query", "smpc.query") and span.parent == search.sid
        )
        assert queries == report["dual"]["iterations"] == len(rows) > 0, config
    recorded = {span.name for span in tracer.spans[:solved]}
    expected = {
        "dual.solve", "dual.certificate", "scenarios.build", "ccmdp.query", "ccmdp.dp",
        "ccmdp.eval", "ccmdp.mc", "smpc.query", "smpc.build", "milp.solve", "smpc.mc",
    }
    assert expected <= recorded, expected - recorded
    # validate runs no search, but certifies and replays the Monte Carlo check
    recorded = {span.name for span in tracer.spans[solved:]}
    expected = {"dual.certificate", "ccmdp.mc", "smpc.mc", "ccmdp.query", "smpc.query"}
    assert expected <= recorded, expected - recorded


def test_readme_command_line_section_names_every_config_key_and_flag():
    # an option added or removed without its docs fails here
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for shape in (*cli._SCHEMA.values(), *cli._SECTIONS.values()):
        keys.update(shape)
    (commands,) = (a for a in cli._build_parser()._actions if a.choices)
    flags = {
        flag
        for parser in commands.choices.values()
        for action in parser._actions
        for flag in action.option_strings
    }
    missing = sorted(name for name in keys | flags if f"`{name}`" not in section)
    assert not missing, missing


def test_benchmark_configs_load_and_build(tmp_path, monkeypatch):
    # the benchmark's generated inputs must stay valid configs
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_gen", gen)  # its dataclass looks itself up
    spec.loader.exec_module(gen)
    kinds = []
    for workload in ("mdp-solve", "smpc-solve", "validate"):
        for inst in gen.workload_instances(workload, 1, ROOT):
            path = gen.write_instance(tmp_path / workload / inst.name, inst.config, inst.map_text)
            config = cli.load_config(path)
            build_setup(config, path.parent)
            kinds.append(config["kind"])
    assert len(kinds) == 14 and set(kinds) == {"grid", "edl", "smpc"}


@pytest.mark.parametrize("name", ["toy", "desk_grid", "landing", "corridor"])
def test_each_backend_loads_what_it_saves(tmp_path, name):
    oracle = build_setup(cli.load_config(CONFIGS / f"{name}.json"), CONFIGS)
    policy = oracle.query(0.0).policy
    ref = oracle.save(policy, "x", tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == ([] if name == "toy" else [ref])
    assert ref == {"toy": policy, "corridor": "plan_x.csv"}.get(name, "policy_x.csv")
    assert oracle.evaluate(oracle.load(ref, tmp_path)) == oracle.evaluate(policy)
    assert oracle.risk_is_upper_bound is (name == "corridor")


@pytest.mark.parametrize("name", ["toy", "desk_grid", "corridor"])
@pytest.mark.parametrize("lam", [-5.0, float("nan"), float("inf")])
def test_each_backend_rejects_a_multiplier_outside_the_dual_domain(name, lam):
    oracle = build_setup(cli.load_config(CONFIGS / f"{name}.json"), CONFIGS)
    with pytest.raises(InvalidInputError, match="multiplier must be finite and nonnegative"):
        oracle.query(lam)


def test_validate_rejects_a_malformed_component_file_naming_it(tmp_path, capsys):
    line = _write(tmp_path, "line.json", _line_smpc_config())
    runs = {"policy_0.csv": CONFIGS / "desk_grid.json", "plan_0.csv": line}
    for name, config in runs.items():
        assert main(["solve", str(config), "--out", str(tmp_path / name)]) == 0
    policy = (tmp_path / "policy_0.csv" / "policy_0.csv").read_text(encoding="utf-8")
    plan = (tmp_path / "plan_0.csv" / "plan_0.csv").read_text(encoding="utf-8").splitlines()
    assert len(plan) == 4  # the u0 header and one row per step
    repeated = policy.split("\n")[1]  # the table's first row, written twice
    step, state, _ = repeated.split(",")
    cases = [
        ("policy_0.csv", policy.split("\n", 1)[1], "is not a policy table"),
        ("policy_0.csv", policy + "0,1,x\n", "has a bad row '0,1,x'"),
        ("policy_0.csv", policy + "99,0,0\n", "references step 99, state 0"),
        ("policy_0.csv", policy + "0,99999,0\n", "references step 0, state 99999"),
        ("policy_0.csv", policy + "0,0,99999\n", "references action 99999 at step 0"),
        ("policy_0.csv", policy + repeated + "\n",
         f"repeats step {step}, state {state} in row {repeated!r}"),
        ("plan_0.csv", "\n".join([plan[0], "x", *plan[2:]]), "is not a control plan table"),
        ("plan_0.csv", "\n".join(plan[:-1]), "has shape (2, 1), expected (3, 1)"),
        ("plan_0.csv", "\n".join([*plan[:2], "nan", plan[3]]), "a control that is not a finite"),
        ("plan_0.csv", "\n".join([*plan[:2], "inf", plan[3]]), "a control that is not a finite"),
        ("plan_0.csv", "\n".join([*plan[:2], "1e999", plan[3]]), "a control that is not a finite"),
        ("plan_0.csv", "\n".join([*plan[:2], "5.0", plan[3]]), "u0 = 5.0 at step 1, outside"),
        ("plan_0.csv", "\n".join([*plan[:2], "-1.6", plan[3]]), "[u_lower, u_upper] = [-1.5, 1.5]"),
        ("plan_0.csv", "\n".join([*plan[:2], "1e308", plan[3]]), "u0 = 1e+308 at step 1, outside"),
    ]
    for name, text, message in cases:
        out = tmp_path / name
        (out / name).write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(runs[name]), "--out", str(out)]) == 2, message
        err = capsys.readouterr().err
        assert f"{out / name}" in err and message in err, (message, err)
        assert err.startswith("invalid input: "), err


def _leaf_paths(node, path=()):
    """Key path of each leaf of a report tree; a list of numbers is one leaf."""
    if type(node) is dict:
        for key, item in node.items():
            yield from _leaf_paths(item, (*path, key))
    elif type(node) is list and type(node[0]) is dict:
        for i, item in enumerate(node):
            yield from _leaf_paths(item, (*path, i))
    else:
        yield path


def _moved(value):
    """``value`` tampered: a number moved by 1e-6, a string changed, a boolean flipped."""
    if type(value) is bool:
        return not value
    if type(value) is str:
        return value + "x"
    if type(value) is list:
        return [value[0] + 1e-6, *value[1:]]
    return value + 1e-6


# what validate reads from a report instead of re-deriving it
_REPORT_INPUTS = {"schema", "monte_carlo.seed", "monte_carlo.n"}


@pytest.mark.parametrize("name", ["toy", "desk_grid", "line"])
def test_validate_names_every_tampered_report_leaf(tmp_path, capsys, name):
    config = CONFIGS / f"{name}.json"
    if name == "line":
        config = _write(tmp_path, "line.json", _line_smpc_config())
    out = tmp_path / name
    assert main(["solve", str(config), "--out", str(out)]) == 0
    report_path = out / "report.json"
    saved = json.loads(report_path.read_text(encoding="utf-8"))
    # every sampler writes one block, and no leaf is a placeholder
    assert saved["monte_carlo"].keys() == {"seed", "n", "failure_rate", "ci99", "cost_mean"}
    assert "wall_time_s" not in saved and "converged" not in saved["dual"]
    tried = 0
    for path in _leaf_paths(saved):
        where = _path_text(path)
        if where in _REPORT_INPUTS or where.endswith("].policy"):
            continue
        report = _replace(saved, path, _moved(_leaf(saved, path)))
        report_path.write_text(json.dumps(report), encoding="utf-8")
        capsys.readouterr()
        code = main(["validate", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        if where in cli._NOT_DERIVED:
            assert code == 0, (where, err)
            continue
        lines = [line for line in err.splitlines() if line.startswith("validate: ")]
        assert code == 1 and len(lines) == 1, (where, err)
        assert lines[0].startswith(f"validate: {where}: saved "), (where, err)
        tried += 1
    assert tried >= 20


def test_validate_evaluates_each_grid_component_once(tmp_path, monkeypatch):
    # two components and the answer at lambda*; the certificate reuses their costs
    out = tmp_path / "run"
    config = CONFIGS / "desk_grid.json"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    calls = []
    evaluate = ccmdp.evaluate_policy

    def counted(mdp, policy):
        calls.append(policy)
        return evaluate(mdp, policy)

    monkeypatch.setattr(ccmdp, "evaluate_policy", counted)
    assert main(["validate", str(config), "--out", str(out)]) == 0
    assert len(calls) == 3


def test_finite_set_monte_carlo_draws_counts_not_rollouts(tmp_path):
    # ten billion rollouts: one multinomial and one binomial per component
    config = _write(tmp_path, "toy.json", _toy_config(monte_carlo={"seed": 0, "n": 10**10}))
    out = tmp_path / "run"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    monte_carlo = json.loads((out / "report.json").read_text(encoding="utf-8"))["monte_carlo"]
    assert monte_carlo["n"] == 10**10
    assert monte_carlo["failure_rate"] == pytest.approx(0.01, abs=1e-5)
    assert monte_carlo["cost_mean"] == pytest.approx(15.0, abs=1e-3)
    assert main(["validate", str(config), "--out", str(out)]) == 0


def _bench_module(name: str, monkeypatch):
    """``bench/<name>.py``, loaded by path as the benchmark loads it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_benchmark_output_checks_pass(tmp_path, monkeypatch):
    # the checks that the benchmark runs on its seed-1 outputs, LP optimum included
    gen, checks = (_bench_module(name, monkeypatch) for name in ("gen", "checks"))
    instances = [inst for inst in gen.workload_instances("mdp-solve", 1, ROOT) if inst.lp_check]
    instances += gen.workload_instances("smpc-solve", 1, ROOT)[:1]
    assert [inst.name for inst in instances] == ["grid-10a", "grid-10b", "corridor-0"]
    for inst in instances:
        path = gen.write_instance(tmp_path / inst.name, inst.config, inst.map_text)
        out = tmp_path / inst.name / "ref"
        assert main(["solve", str(path), "--out", str(out)]) == 0, inst.name
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        lp_cost = None
        if inst.lp_check:
            mdp = build_setup(cli.load_config(path), path.parent).mdp
            lp_cost = checks.occupation_lp_optimum(mdp, float(report["risk_bound"]))
        assert checks.check_solve(inst.config, report, out, lp_cost) == [], inst.name
