from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def ab_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _line(solve_s: float, correct: bool = True, failed: int = 0) -> str:
    metrics = {"solve_s": solve_s, "validate_s": 0.2, "setup_s": 0.01, "peak_rss_mb": 90.0}
    return "bench: a log line\n" + json.dumps({
        "correct": correct, "attempted": 12, "failed": failed,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()},
    }) + "\n"


class _Canned:
    """Stands in for the benchmark: one canned run per call, with the calls it saw."""

    def __init__(self, runs):
        self.runs = list(runs)
        self.calls = []

    def __call__(self, checkout, workload, seed, seconds):
        self.calls.append((checkout.name, workload, seed, seconds))
        return self.runs.pop(0)


def test_pairs_alternate_and_each_metric_gets_a_line(ab_pairs, capsys):
    # parent solve_s 1.0..1.3, change 0.9 in every pair but the last, which it loses
    runs = []
    for pair, parent in enumerate((1.0, 1.1, 1.2, 1.3), 1):
        change = 2.0 if pair == 4 else 0.9
        sides = [(0, _line(parent)), (0, _line(change))]
        runs += sides if pair % 2 else sides[::-1]
    canned = _Canned(runs)
    argv = ["p", "c", "--workload", "mdp-solve", "--seconds", "3", "--pairs", "4"]
    assert ab_pairs.main(argv, run=canned) == 0
    assert [call[0] for call in canned.calls] == ["p", "c", "c", "p", "p", "c", "c", "p"]
    assert canned.calls[0][1:] == ("mdp-solve", 1, 3.0)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "solve_s", "validate_s", "setup_s", "peak_rss_mb"
    ]
    assert lines[0] == (
        "solve_s: parent median 1.15 s (quartiles 1.075, 1.225), change median 0.9, "
        "change won 3 of 4 pairs, within the 0.25 bound: yes; gain rule (won >= 4, "
        "median gap 0.25 > parent quartile spread 0.15): no"
    )
    assert "change won 0 of 4 pairs, within the 0.25 bound: yes" in lines[1]


def test_a_change_median_past_the_bound_says_no(ab_pairs):
    spec = [{"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25}]
    runs = [{"solve_s": {"value": value}} for value in (1.0, 1.0, 1.0)]
    slower = [{"solve_s": {"value": value}} for value in (1.3, 1.3, 1.2)]
    (line,) = ab_pairs.compare(spec, runs, slower)
    assert "change won 0 of 3 pairs, within the 0.25 bound: no" in line
    higher = [{**spec[0], "better": "higher", "bound": 0.1}]
    (line,) = ab_pairs.compare(higher, runs, [{"solve_s": {"value": 0.95}}] * 3)
    assert "change won 0 of 3 pairs, within the 0.1 bound: yes" in line


def test_a_parent_spread_wider_than_the_bound_is_unresolved(ab_pairs):
    spec = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    # quartiles 0.9 and 1.2 around a median of 1.0: a spread of 0.3
    runs = [{"setup_s": {"value": value}} for value in (0.8, 0.9, 1.0, 1.2, 1.3)]
    level = [{"setup_s": {"value": value}} for value in (1.0, 0.9, 1.1, 1.0, 1.0)]
    (line,) = ab_pairs.compare(spec, runs, level)
    assert "within the 0.25 bound: unresolved (parent spread 0.3)" in line
    (line,) = ab_pairs.compare(spec, runs, [{"setup_s": {"value": 2.0}}] * 5)
    assert "within the 0.25 bound: unresolved (parent spread 0.3)" in line
    # every change run better than every parent run settles it
    (line,) = ab_pairs.compare(spec, runs, [{"setup_s": {"value": 0.7}}] * 5)
    assert "change won 5 of 5 pairs, within the 0.25 bound: yes" in line


@pytest.mark.parametrize(
    "bad, message",
    [
        ((1, ""), "change run of pair 2 exited non-zero (exit code 1)"),
        ((0, "bench: crashed\n"), "change run of pair 2 printed no result line (exit code 0)"),
        ((0, _line(1.0, correct=False)), "change run of pair 2 printed correct: false"),
        ((0, _line(1.0, failed=2)), "change run of pair 2 failed 2 of 12 operations"),
    ],
)
def test_the_first_bad_run_stops_the_comparison(ab_pairs, capsys, bad, message):
    # pair 1 is good; pair 2 runs the change first, and that run is bad
    canned = _Canned([(0, _line(1.0)), (0, _line(1.0)), bad, (0, _line(1.0))])
    assert ab_pairs.main(["p", "c", "--workload", "validate"], run=canned) == 1
    assert capsys.readouterr().out.strip().startswith(message)
    assert len(canned.calls) == 3


def _gain_runs(changes):
    parent = [{"solve_s": {"value": 1.0 + 0.01 * i}} for i in range(10)]
    return parent, [{"solve_s": {"value": value}} for value in changes]


def test_a_gain_in_10_of_10_pairs_past_the_parent_spread_holds(ab_pairs):
    spec = [{"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25}]
    # parent 1.00..1.09: median 1.045, quartiles 1.0225 and 1.0675
    parent, change = _gain_runs([0.9] * 10)
    (line,) = ab_pairs.compare(spec, parent, change)
    assert "change won 10 of 10 pairs" in line
    assert line.endswith(
        "gain rule (won >= 9, median gap 0.145 > parent quartile spread 0.045): yes"
    )


def test_a_gain_in_8_of_10_pairs_does_not_hold(ab_pairs):
    spec = [{"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25}]
    # two pairs lost, one of them a tie, which counts for neither side
    parent, change = _gain_runs([0.9] * 8 + [2.0, 1.09])
    (line,) = ab_pairs.compare(spec, parent, change)
    assert "change won 8 of 10 pairs" in line
    assert line.endswith(
        "gain rule (won >= 9, median gap 0.145 > parent quartile spread 0.045): no"
    )
