"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W [--seed 1] [--seconds 8] [--pairs 10]

runs ``python3 bench/run.py --workload W --seed S --seconds T`` in each
checkout in turn, PARENT first in odd pairs and CHANGE first in even
ones, so that both sides see the same spells of a shared host. It stops
at the first run that exits non-zero, prints ``correct: false`` or fails
an operation, and names the side, the pair and the exit code (exit 1).
Otherwise it prints one line per end-to-end metric of this checkout's
``BENCHMARK.json``: the parent's median and quartiles, the change's
median, the pairs the change won, and whether the change's median is
within the metric's bound of the parent's (for a lower-is-better metric,
at most ``1 + bound`` times it). Where the parent's own quartile spread,
``(q3 - q1) / median``, is wider than the bound, a median cannot show
that, and the line reads ``unresolved`` with the spread, unless every
change run reads better than every parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[int, str]:
    """Exit code and standard output of one benchmark run in ``checkout``;
    its log goes to this process's standard error."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    return done.returncode, done.stdout


def _problem(code: int, stdout: str) -> tuple[str | None, dict]:
    """What is wrong with one run, or None, and its result line."""
    if code != 0:
        return "exited non-zero", {}
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return "printed no result line", {}
    if result.get("correct") is not True:
        return "printed correct: false", result
    if result.get("failed") != 0:
        return f"failed {result.get('failed')} of {result.get('attempted')} operations", result
    return None, result


def compare(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric, from the ``metrics`` blocks of each pair's two runs."""
    lines = []
    for spec in metrics:
        name, bound = spec["name"], spec["bound"]
        lower = spec["better"] == "lower"
        before = [run[name]["value"] for run in parent]
        after = [run[name]["value"] for run in change]
        q1, mid, q3 = statistics.quantiles(before, n=4, method="inclusive")
        median = statistics.median(after)
        won = sum((b < a) if lower else (b > a) for a, b in zip(before, after))
        within = median <= mid * (1 + bound) if lower else median >= mid * (1 - bound)
        spread = (q3 - q1) / mid
        better = max(after) < min(before) if lower else min(after) > max(before)
        if better:
            verdict = "yes"
        elif spread > bound:
            verdict = f"unresolved (parent spread {spread:.3g})"
        else:
            verdict = "yes" if within else "no"
        lines.append(
            f"{name}: parent median {mid:.6g} {spec['unit']} (quartiles {q1:.6g}, {q3:.6g}), "
            f"change median {median:.6g}, change won {won} of {len(after)} pairs, "
            f"within the {bound:g} bound: {verdict}"
        )
    return lines


def main(argv: list[str] | None = None, run: Callable = run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    checkouts = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(1, args.pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            code, stdout = run(checkouts[side], args.workload, args.seed, args.seconds)
            problem, result = _problem(code, stdout)
            if problem is not None:
                print(f"{side} run of pair {pair} {problem} (exit code {code})")
                return 1
            results[side].append(result["metrics"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for line in compare(spec["end_to_end"], results["parent"], results["change"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
