"""Run ``sweep`` on the shipped configs with each leaf set to each of a list
of wrong values, for diffing two checkouts.

    python3 tools/config_edits.py SRC

takes each leaf (a number or a string, at any depth) of the shipped
configs (``toy``, ``desk_grid``, ``landing``, ``corridor``), sets it to
each value of ``VALUES`` in turn, and runs ``sweep`` of the package under
``SRC/src`` on the edited config, one fresh process per edit, at most
``LIMIT_S`` seconds and ``MEMORY_BYTES`` of address space each. Inputs
come from this checkout's ``configs/``, so two checkouts see the same
edits; each config is written to a temporary directory with its map path
made absolute. Each edit prints one line: the config's name, the key
path, the value as JSON, and the exit code, ``timeout``, or the class of
the exception that escaped (read from the traceback on standard error).
A loader that rejects every bad input prints exit codes alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ("toy", "desk_grid", "landing", "corridor")
VALUES = (0, -1, 0.5, 1e300, [], [[]], [1.0], [[1.0, 2.0]], {}, "x", None, True, 10**30)
LIMIT_S = 20
MEMORY_BYTES = 2 * 2**30
JOBS = 2
# `python -m mixedctrl` under a cap on its address space; the child sets the
# cap itself, since `preexec_fn` is unsafe in a process that runs threads
_CHILD = (
    "import resource, runpy, sys; "
    f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_BYTES}, {MEMORY_BYTES})); "
    "sys.argv = ['mixedctrl', *sys.argv[1:]]; runpy.run_module('mixedctrl', run_name='__main__')"
)


def _leaves(node, path=()):
    """Key path of each number and string in a config tree."""
    if type(node) is dict or type(node) is list:
        for key, item in node.items() if type(node) is dict else enumerate(node):
            yield from _leaves(item, (*path, key))
    else:
        yield path


def _path_text(path: tuple) -> str:
    return "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)[1:]


def _replace(config: dict, path: tuple, value) -> dict:
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


def _edits():
    """(name, key path, value, edited config) of each edit."""
    for name in SHIPPED:
        config = json.loads((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))
        if "map" in config:
            config["map"] = str(ROOT / "configs" / config["map"])
        for path in _leaves(config):
            for value in VALUES:
                yield name, path, value, _replace(config, path, value)


def _outcome(config: dict, env: dict) -> str:
    """Exit code of ``sweep`` on ``config``, ``timeout``, or the class of
    the exception that escaped it."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        try:
            done = subprocess.run(
                [sys.executable, "-c", _CHILD, "sweep", str(path), "--out", work],
                env=env, cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=LIMIT_S,
            )
        except subprocess.TimeoutExpired:
            return "timeout"
    if "Traceback (most recent call last)" in done.stderr:
        return done.stderr.strip().splitlines()[-1].split(":")[0]
    return str(done.returncode)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/config_edits.py SRC", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    if not (src / "mixedctrl" / "__init__.py").is_file():
        print(f"no package source at {src / 'mixedctrl'}", file=sys.stderr)
        return 2
    # one BLAS thread, as in bench/run.py; the package is imported from SRC alone
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    edits = list(_edits())
    with ThreadPoolExecutor(JOBS) as pool:
        outcomes = pool.map(lambda edit: _outcome(edit[3], env), edits)
        for (name, path, value, _), outcome in zip(edits, outcomes):
            print(name, _path_text(path), json.dumps(value), outcome, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
