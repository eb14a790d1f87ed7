"""Digest the artifacts of every shipped and generated config, for diffing two checkouts.

    python3 tools/artifact_hashes.py SRC OUT

runs ``solve``, ``validate`` and ``sweep`` of the package under ``SRC/src`` on
the shipped configs (``toy``, ``desk_grid``, ``landing``, ``corridor``)
and on every instance that ``bench/gen.py`` makes for seeds 1-3, one
fresh process per command. Inputs come from this checkout's
``configs/`` and ``bench/``, so two checkouts see the same files; every
output goes under ``OUT``. Each run prints one line: its name, the exit
codes of ``solve``, ``validate`` and ``sweep``, a SHA-256 digest of the
output directory's file names and contents, a digest of its
``report.json``, ``dual_trace.csv`` and ``sweep.csv`` alone, the number
of lines in its component files (every other file: policy tables and
plans), and the report's lambda*, aggregate cost, aggregate risk and
Monte Carlo failure rate (``%.10g``, ``-`` when ``solve`` failed).
Reports carry no wall time, so a change that keeps every artifact prints
the same lines as its parent. Where the whole digests differ, the second
digest and the line count tell a change to the results from a change to
the component files alone (a table that drops rows keeps the second
digest and shows fewer lines), and the last four fields show which
values moved: a sampler change that moves a failure count shows in the
last one.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ("toy", "desk_grid", "landing", "corridor")
WORKLOADS = ("mdp-solve", "smpc-solve", "validate")
SEEDS = (1, 2, 3)
RESULTS = ("report.json", "dual_trace.csv", "sweep.csv")

sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402


def _configs(work: Path):
    """(name, config path) of each run, with generated configs written under ``work``."""
    for name in SHIPPED:
        yield name, ROOT / "configs" / f"{name}.json"
    for seed in SEEDS:
        for workload in WORKLOADS:
            for inst in gen.workload_instances(workload, seed, ROOT):
                name = f"seed{seed}/{workload}/{inst.name}"
                yield name, gen.write_instance(work / name, inst.config, inst.map_text)


def _digest(directory: Path, paths) -> str:
    """SHA-256 of the names, relative to ``directory``, and contents of ``paths``."""
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(json.dumps(str(path.relative_to(directory))).encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _digests(directory: Path) -> list[str]:
    """Digest of every file, digest of the result files alone, and the component files' lines."""
    files = [p for p in directory.rglob("*") if p.is_file()]
    results = [p for p in files if p.name in RESULTS and p.parent == directory]
    components = [p for p in files if p not in results]
    lines = sum(len(p.read_bytes().splitlines()) for p in components)
    return [_digest(directory, files), _digest(directory, results), str(lines)]


def _values(directory: Path, solved: bool) -> list[str]:
    """lambda*, aggregate cost, aggregate risk and Monte Carlo failure rate
    of the run's report, as ``%.10g``."""
    if not solved:
        return ["-"] * 4
    report = json.loads((directory / "report.json").read_text(encoding="utf-8"))
    aggregate = report["mixed"]["aggregate"]
    values = (
        report["dual"]["lambda_star"], aggregate["cost"], aggregate["risk"],
        report["monte_carlo"]["failure_rate"],
    )
    return ["%.10g" % value for value in values]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/artifact_hashes.py SRC OUT", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve() / "src", Path(argv[1]).resolve()
    if not (src / "mixedctrl" / "__init__.py").is_file():
        print(f"no package source at {src / 'mixedctrl'}", file=sys.stderr)
        return 2
    # one BLAS thread, as in bench/run.py; the package is imported from SRC alone
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    for name, config in _configs(out / "inputs"):
        run_dir = out / "runs" / name
        codes = [
            subprocess.run(
                [sys.executable, "-m", "mixedctrl", command, str(config), "--out", str(run_dir)],
                env=env, cwd=out, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode
            for command in ("solve", "validate", "sweep")
        ]
        print(name, *codes, *_digests(run_dir), *_values(run_dir, codes[0] == 0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
