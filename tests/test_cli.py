from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mixedctrl import ccmdp, cli, milp, smpc
from mixedctrl.cli import VALIDATE_FALSE_ALARM, build_setup, main
from mixedctrl.core import DualVector, binomial_acceptance, wilson_ci_99

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _write(tmp_path: Path, name: str, config: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
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
    (_line_smpc_config(max_nodes=2.5), "max_nodes"),
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
    # a key that holds one number rejects a list of numbers
    ({**_shipped_config("desk_grid"), "sigma": [1.0]}, "sigma"),
    (_toy_config(risk_bound=[0.01]), "risk_bound"),
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
    for i, (config, key) in enumerate(_MISTYPED_NUMBERS):
        path = _write(tmp_path, f"mistyped_{i}.json", config)
        for command in ("solve", "validate", "sweep"):
            capsys.readouterr()
            assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2, (command, i)
            assert f"{key} must be" in capsys.readouterr().err, (command, i)
    assert (tmp_path / "out").exists() is False
    capsys.readouterr()


def test_unknown_and_removed_keys_exit_2_naming_the_key(tmp_path, capsys):
    legacy = {"lambda_max": 1e6, "tol_lambda": 1e-3, "tol_risk": 1e-4, "max_iter": 5}
    grid = json.loads((CONFIGS / "desk_grid.json").read_text(encoding="utf-8"))
    landing = json.loads((CONFIGS / "landing.json").read_text(encoding="utf-8"))
    cases = [
        (_toy_config(solver=legacy), "solver"),
        ({**grid, "miss_penalty": 100.0}, "miss_penalty"),
        ({**landing, "unreachable_cost": 1e4}, "unreachable_cost"),
        (_line_smpc_config(milp_gap=1e-9), "milp_gap"),
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

    for tamper in (
        no_seed, no_policy, bad_probability, no_rollouts, infinite_seed, not_an_object,
        fractional_seed, boolean_seed, float_rollouts, policy_out_of_range, negative_policy,
        fractional_policy, boolean_policy, string_policy,
    ):
        report = json.loads(json.dumps(saved))
        tamper(report)
        (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(config), "--out", str(out)]) == 2, tamper.__name__
        assert "report" in capsys.readouterr().err, tamper.__name__

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
    assert report["wall_time_s"] is None
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


@pytest.mark.parametrize("name", ["toy", "corridor"])
def test_solve_makes_no_query_after_the_search(tmp_path, monkeypatch, name):
    # the certificate reuses the search's last answer instead of asking again
    oracles = []

    def counted_setup(config, base_dir):
        oracle = build_setup(config, base_dir)
        oracles.append(_CountingOracle(oracle))
        return oracle

    monkeypatch.setattr(cli, "build_setup", counted_setup)
    out = tmp_path / name
    assert main(["solve", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 0
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


def test_validate_accepts_a_count_outside_the_99_percent_interval(tmp_path, capsys):
    # at seed 52 the toy mixture (exact risk 0.01) fails 33 of 2000
    # rollouts: outside the 99% Wilson interval, well inside the range a
    # correct sampler leaves only once in a million runs
    config = _write(tmp_path, "toy.json", _toy_config())
    out = tmp_path / "run"
    assert main(["solve", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["validate", str(config), "--out", str(out), "--seed", "52"]) == 0
    assert "33 failures in 2000 rollouts" in capsys.readouterr().err
    lo, hi = wilson_ci_99(33, 2000)
    assert not lo <= 0.01 <= hi
    assert binomial_acceptance(0.01, 2000, VALIDATE_FALSE_ALARM) == (3, 45)


def test_validate_without_report_exits_2(tmp_path, capsys):
    config = _write(tmp_path, "toy.json", _toy_config())
    assert main(["validate", str(config), "--out", str(tmp_path / "empty")]) == 2
    assert "report" in capsys.readouterr().err


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


def test_smpc_node_budget_exits_1_naming_max_nodes(tmp_path, capsys):
    config = json.loads((CONFIGS / "corridor.json").read_text(encoding="utf-8"))
    config["max_nodes"] = 3
    path = _write(tmp_path, "corridor.json", config)
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "max_nodes=3" in err
    assert "infeasible" not in err and "obstacle" not in err
    assert not out.exists()


def test_seed_flag_overrides_the_config(tmp_path):
    config = _write(tmp_path, "toy.json", _toy_config())
    out = tmp_path / "run"
    assert main(["solve", str(config), "--out", str(out), "--seed", "123"]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["monte_carlo"]["seed"] == 123


def test_bench_tracer_hook_points_stay_alive(tmp_path, monkeypatch):
    # the traced benchmark wraps package functions by name from outside
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_spans", spans)  # its dataclass looks itself up
    spec.loader.exec_module(spans)
    tracer = spans.Tracer({"cli": cli, "ccmdp": ccmdp, "smpc": smpc, "milp": milp})
    line = _write(tmp_path, "line.json", _line_smpc_config())
    tracer.install()
    try:
        for config in (CONFIGS / "desk_grid.json", line):
            assert main(["solve", str(config), "--out", str(tmp_path / config.stem)]) == 0
    finally:
        tracer.uninstall()
    recorded = {span.name for span in tracer.spans}
    expected = {
        "dual.solve", "dual.certificate", "scenarios.build", "ccmdp.query", "ccmdp.dp",
        "ccmdp.eval", "ccmdp.mc", "smpc.query", "smpc.build", "milp.solve", "smpc.mc",
    }
    assert expected <= recorded, expected - recorded


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
    policy = oracle.query(DualVector((0.0,))).policy
    ref = oracle.save(policy, "x", tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == ([] if name == "toy" else [ref])
    assert ref == {"toy": policy, "corridor": "plan_x.csv"}.get(name, "policy_x.csv")
    assert oracle.evaluate(oracle.load(ref, tmp_path)) == oracle.evaluate(policy)
    assert oracle.risk_is_upper_bound is (name == "corridor")
