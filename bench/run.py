"""Time to a certified mixture, end to end through ``mixedctrl.cli.main``.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload mdp-solve --seed 1 --seconds 25 --trace 0

One process, one operation at a time (a closed loop with one client),
numerical thread pools capped at one thread. The seed makes every config file;
the program sees only those files. Each run cycles whole rounds over a
fixed list of instances until ``--seconds`` have passed, checks every
output with ``checks.py``, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's layer boundaries (``spans.py``) and reports per-layer numbers
per operation plus the tracing overhead against untraced passes over
the same instances. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr
from pathlib import Path

# One BLAS thread: the products here are too small to gain from more, and
# threaded products stall while the other core is busy (see README.md).
# Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("mdp-solve", "smpc-solve", "validate")
# set up at least this many times, and for at least this long
SETUP_REPEATS = 5
SETUP_SECONDS = 0.5


def _log(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr, flush=True)


def _mean(samples: dict[str, list[float]]) -> float:
    """Mean time per operation over the run.

    Whole rounds give every instance the same weight in the count, so the
    mean weighs each by its cost. On a shared host the speed of the CPU
    drifts over seconds; the mean over the run averages that drift,
    where a per-instance median jumps between fast and slow spells.
    """
    return statistics.fmean(t for v in samples.values() for t in v)


def _merge(into: dict, samples: dict) -> None:
    for op, by_name in samples.items():
        for name, times in by_name.items():
            into[op].setdefault(name, []).extend(times)


def _artifacts(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class Bench:
    """One run: generated configs, the operations on them, their checks."""

    def __init__(self, modules, instances, work: Path):
        self.cli = modules["cli"]
        self.instances = instances
        self.work = work
        self.paths = {
            inst.name: gen.write_instance(work / inst.name, inst.config, inst.map_text)
            for inst in instances
        }
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, dict[str, bytes]] = {}
        self.bracket: dict[str, int] = {}
        self.tracer = None

    # -- operations -------------------------------------------------------

    def _call(self, kind: str, argv: list[str]) -> tuple[bool, float]:
        self.attempted += 1
        err = io.StringIO()
        span = None
        if self.tracer is not None:
            span = self.tracer.open_operation(f"cli.{kind}")
        start = time.perf_counter()
        try:
            with redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:  # an operation that crashes counts as failed
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if span is not None:
            self.tracer.close(span)
        if code != 0:
            self.failed += 1
            _log(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return code == 0, elapsed

    def solve(self, name: str) -> float:
        """Solve one instance; the first solve is kept, later ones must match it."""
        first = name not in self.reference
        out = self.work / name / ("ref" if first else "again")
        shutil.rmtree(out, ignore_errors=True)
        ok, elapsed = self._call("solve", ["solve", str(self.paths[name]), "--out", str(out)])
        if ok:
            artifacts = _artifacts(out)
            if first:
                self.reference[name] = artifacts
                report = json.loads(artifacts["report.json"])
                self.bracket[name] = spans.bracket_queries(
                    artifacts["dual_trace.csv"].decode(), float(report["risk_bound"])
                )
            elif artifacts != self.reference[name]:
                self.problems.append(f"{name}: a repeated solve wrote different artifacts")
        return elapsed

    def validate(self, name: str) -> float:
        out = self.work / name / "ref"
        return self._call("validate", ["validate", str(self.paths[name]), "--out", str(out)])[1]

    # -- phases -----------------------------------------------------------

    def setup_seconds(self) -> float:
        """Median over repeats of the mean config load plus build per instance."""
        means = []
        began = time.perf_counter()
        while len(means) < SETUP_REPEATS or time.perf_counter() - began < SETUP_SECONDS:
            total = 0.0
            for path in self.paths.values():
                start = time.perf_counter()
                config = self.cli.load_config(path)
                self.cli.build_setup(config, path.parent)
                total += time.perf_counter() - start
            means.append(total / len(self.paths))
        return statistics.median(means)

    def run_rounds(self, ops: tuple[str, ...], seconds: float | None, at_least: int = 1):
        """Whole rounds; each round does ``ops`` in turn on every instance.

        Returns the seconds of every operation, by operation and instance.
        """
        samples = {
            op: {i.name: [] for i in self.instances if op == "solve" or i.validated}
            for op in ops
        }
        start = time.perf_counter()
        rounds = 0
        for rounds, _ in enumerate(_rounds(seconds, at_least), 1):
            for inst in self.instances:
                for op, by_name in samples.items():
                    if inst.name in by_name:
                        fn = self.solve if op == "solve" else self.validate
                        by_name[inst.name].append(fn(inst.name))
        for op, by_name in samples.items():
            _log(
                f"{op}: {rounds} round(s), {time.perf_counter() - start:.1f} s; mean s "
                + ", ".join(f"{k} {statistics.fmean(v):.4f}" for k, v in by_name.items())
            )
        return samples

    def check_all(self) -> None:
        """Full checks on the first artifacts of every instance."""
        for inst in self.instances:
            if inst.name not in self.reference:
                continue
            report = json.loads(self.reference[inst.name]["report.json"])
            lp_cost = None
            if inst.lp_check:
                path = self.paths[inst.name]
                setup = self.cli.build_setup(self.cli.load_config(path), path.parent)
                lp_cost = checks.occupation_lp_optimum(setup.mdp, float(report["risk_bound"]))
            found = checks.check_solve(inst.config, report, self.work / inst.name / "ref", lp_cost)
            self.problems += [f"{inst.name}: {p}" for p in found]


def _rounds(seconds: float | None, at_least: int = 1):
    """Yield round numbers: ``at_least`` rounds, then more while a further
    round would end the run nearer to ``seconds`` than stopping now."""
    start = time.perf_counter()
    last = 0.0
    n = 0
    while n < at_least or (
        seconds is not None and time.perf_counter() - start + last / 2 < seconds
    ):
        began = time.perf_counter()
        yield n
        last = time.perf_counter() - began
        n += 1


def _schedule(workload: str, seconds: float) -> list[tuple[tuple[str, ...], float | None, int]]:
    """(operations per round, seconds, least rounds) for each phase of a run.

    The solve workloads validate each report right after solving it, so
    both operations sample the same spells of a shared host. The
    validate workload solves every instance once to produce the reports,
    times validation alone, then solves once more, so its two solves
    per instance fall in spells far apart.
    """
    if workload == "validate":
        return [(("solve",), None, 1), (("validate",), seconds, 1), (("solve",), None, 1)]
    return [(("solve", "validate"), seconds, 1)]


def run_plain(bench: Bench, workload: str, seconds: float) -> dict:
    setup_s = bench.setup_seconds()
    samples = {"solve": {}, "validate": {}}
    for ops, limit, at_least in _schedule(workload, seconds):
        _merge(samples, bench.run_rounds(ops, limit, at_least))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "solve_s": (_mean(samples["solve"]), "s"),
        "validate_s": (_mean(samples["validate"]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run_traced(bench: Bench, workload: str, seconds: float, modules, spans_path: Path) -> dict:
    """Per-layer numbers from traced operations.

    Each round is a pass untraced and a pass traced over the same
    instances, alternating which goes first, so the tracing overhead is
    measured against the same work at nearly the same time.
    """
    tracer = spans.Tracer(modules)
    plain = {"solve": {}, "validate": {}}
    traced = {"solve": {}, "validate": {}}

    def one_pass(ops: tuple[str, ...], with_tracer: bool) -> None:
        if with_tracer:
            bench.tracer = tracer
            tracer.install()
        try:
            samples = bench.run_rounds(ops, None)
        finally:
            tracer.uninstall()
            bench.tracer = None
        _merge(traced if with_tracer else plain, samples)

    for ops, limit, at_least in _schedule(workload, seconds):
        for n in _rounds(limit, at_least):
            for with_tracer in (n % 2 == 1, n % 2 == 0):
                one_pass(ops, with_tracer)
    tracer.write(spans_path)

    main_op = "validate" if workload == "validate" else "solve"
    bracket = 0
    if main_op == "solve":
        bracket = sum(bench.bracket[name] * len(v) for name, v in traced["solve"].items())
    metrics = spans.per_layer(tracer.spans, f"cli.{main_op}", bracket)
    for op in ("solve", "validate"):
        ratio = _mean(traced[op]) / _mean(plain[op])
        metrics[f"trace.{op}_overhead_pct"] = (100.0 * (ratio - 1.0), "%")
    return metrics


def load_program(root: Path) -> dict | None:
    """Import the package from ``root/src``; None if it is not there."""
    src = root / "src"
    if not (src / "mixedctrl" / "__init__.py").is_file():
        _log(f"no package source at {src / 'mixedctrl'}; run from a source checkout")
        return None
    sys.path.insert(0, str(src))
    import mixedctrl.ccmdp
    import mixedctrl.cli
    import mixedctrl.milp
    import mixedctrl.smpc

    if Path(mixedctrl.cli.__file__).resolve().parent != (src / "mixedctrl").resolve():
        _log(f"imported mixedctrl from {mixedctrl.cli.__file__}, not from {src}")
        return None
    return {
        "cli": mixedctrl.cli,
        "ccmdp": mixedctrl.ccmdp,
        "smpc": mixedctrl.smpc,
        "milp": mixedctrl.milp,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    modules = load_program(root)
    if modules is None:
        return 2

    instances = gen.workload_instances(args.workload, args.seed, root)
    base = root / ".bench_work"
    work = base / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(modules, instances, work)
        if args.trace:
            spans_path = base / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics = run_traced(bench, args.workload, args.seconds, modules, spans_path)
        else:
            metrics = run_plain(bench, args.workload, args.seconds)
        bench.check_all()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems:
        _log(f"check failed: {problem}")
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is {value}")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
