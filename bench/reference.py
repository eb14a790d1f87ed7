"""Trace one ``solve`` of a given config and print its per-layer numbers.

For reference figures on inputs too slow for the timed workloads, such
as the shipped 7-step corridor. From the repository root:

    python3 bench/reference.py configs/corridor.json
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

import run
import spans


def main(argv: list[str]) -> int:
    root = Path.cwd()
    modules = run.load_program(root)
    if modules is None or len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = root / ".bench_work" / "reference"
    shutil.rmtree(out, ignore_errors=True)
    tracer = spans.Tracer(modules)
    tracer.install()
    try:
        span = tracer.open_operation("cli.solve")
        start = time.perf_counter()
        code = modules["cli"].main(["solve", argv[0], "--out", str(out)])
        wall = time.perf_counter() - start
        tracer.close(span)
    finally:
        tracer.uninstall()
    if code != 0:
        return code
    bracket = spans.bracket_queries(
        (out / "dual_trace.csv").read_text(encoding="utf-8"),
        float(modules["cli"].load_config(Path(argv[0]))["risk_bound"]),
    )
    print(f"solve {argv[0]}: {wall:.2f} s")
    for name, (value, unit) in spans.per_layer(tracer.spans, "cli.solve", bracket).items():
        print(f"  {name:24s} {value:.6g} {unit}")
    shutil.rmtree(out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
