"""Digest the artifacts of every shipped and generated config, for diffing two checkouts.

    python3 tools/artifact_hashes.py SRC OUT

runs ``solve``, ``validate`` and ``sweep`` of the package under ``SRC/src`` on
the shipped configs (``toy``, ``desk_grid``, ``landing``, ``corridor``)
and on every instance that ``bench/gen.py`` makes for seeds 1-3, one
fresh process per command. Inputs come from this checkout's
``configs/`` and ``bench/``, so two checkouts see the same files; every
output goes under ``OUT``. Each run prints one line: its name, the exit
codes of ``solve``, ``validate`` and ``sweep``, a SHA-256 digest of the
output directory's file names and contents, and the report's lambda*,
aggregate cost, aggregate risk and Monte Carlo failure rate (``%.10g``,
``-`` when ``solve`` failed). Reports carry no wall time, so a change
that keeps every artifact prints the same lines as its parent, and where
the digests differ the last four fields show which values moved: a
sampler change that moves a failure count shows in the last one.
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


def _digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(json.dumps(str(path.relative_to(directory))).encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


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
        print(name, *codes, _digest(run_dir), *_values(run_dir, codes[0] == 0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
