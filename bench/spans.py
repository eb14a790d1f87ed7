"""Span tracing for the traced run, installed from outside the program.

The package imports its functions by name, so each wrapper replaces the
name in the module that calls the function (``mixedctrl.milp.solve_lp``,
``mixedctrl.cli.simulate``, ...) or the method on the oracle class.
Every call becomes one span: name, start, end, parent span, operation id
and a few counts read off the result. Spans stay in memory until the run
ends; the per-layer numbers are derived from them afterwards.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _attrs(name: str, result) -> dict:
    if name == "milp.solve":
        return {"status": result.status, "nodes": result.node_count}
    if name == "lpsolve.solve":
        return {"pivots": result.pivots}
    if name in ("ccmdp.mc", "smpc.mc"):
        return {"rollouts": result.n_rollouts}
    return {}


class Tracer:
    """Wraps the package's layer boundaries and records one span per call."""

    def __init__(self, modules: dict):
        cli, ccmdp, smpc, milp = (modules[k] for k in ("cli", "ccmdp", "smpc", "milp"))
        # (owner, attribute, span name)
        self.points = [
            (cli, "solve_mixed_scalar", "dual.solve"),
            (cli, "check_optimality", "dual.certificate"),
            (cli, "grid_oracle", "scenarios.build"),
            (cli, "edl_oracle", "scenarios.build"),
            (cli, "simulate", "ccmdp.mc"),
            (cli, "estimate_mixture_risk_mc", "smpc.mc"),
            (ccmdp.MdpOracle, "query", "ccmdp.query"),
            (ccmdp, "lagrangian_dp", "ccmdp.dp"),
            (ccmdp, "evaluate_policy", "ccmdp.eval"),
            (smpc.SmpcOracle, "query", "smpc.query"),
            (smpc, "build_inner_milp", "smpc.build"),
            (smpc, "solve_milp", "milp.solve"),
            (smpc, "solve_lp", "lpsolve.solve"),
            (milp, "solve_lp", "lpsolve.solve"),
        ]
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.attrs = _attrs(name, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name in self.points:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def open_operation(self, name: str) -> Span:
        """Open the outermost span of a new operation."""
        self.op += 1
        return self.open(name)

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent, "op": s.op,
                    "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


def bracket_queries(dual_trace_csv: str, bound: float) -> int:
    """Queries made before the first multiplier whose risk is at or below ``bound``."""
    risks = [float(row.split(",")[3]) for row in dual_trace_csv.splitlines()[1:]]
    return next((i for i, r in enumerate(risks) if r <= bound), len(risks))


def per_layer(spans: list[Span], op_name: str, bracket_queries: int) -> dict:
    """Per-layer numbers per operation, over the operations named ``op_name``.

    ``bracket_queries`` is the total over those operations, read from
    their dual traces.
    """
    ops = {s.op for s in spans if s.name == op_name}
    spans = [s for s in spans if s.op in ops]
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def total(name):
        return sum(s.duration for s in named[name])

    def self_time(name):
        return sum(s.duration - sum(c.duration for c in children[s.sid]) for s in named[name])

    def mean_ms(name):
        return 1e3 * total(name) / len(named[name]) if named[name] else 0.0

    def rate(name):
        seconds = total(name)
        return sum(s.attrs["rollouts"] for s in named[name]) / seconds if seconds else 0.0

    n = len(ops)
    dual_queries = sum(
        1
        for s in spans
        if s.name in ("ccmdp.query", "smpc.query")
        and s.parent is not None
        and by_id[s.parent].name == "dual.solve"
    )
    cached = sum(1 for s in named["milp.solve"] if s.attrs["status"] == "bounded")
    pivots = sum(s.attrs["pivots"] for s in named["lpsolve.solve"])
    lp_seconds = total("lpsolve.solve")
    other = 0.0
    for s in named["cli.solve"] + named["cli.validate"]:
        other += s.duration - sum(
            c.duration
            for c in children[s.sid]
            if c.name in ("dual.solve", "dual.certificate", "ccmdp.mc", "smpc.mc")
        )
    return {
        "dual.queries": (dual_queries / n, "count"),
        "dual.bracket_queries": (bracket_queries / n, "count"),
        "dual.self_s": (self_time("dual.solve") / n, "s"),
        "dual.certificate_s": (total("dual.certificate") / n, "s"),
        "ccmdp.dp_sweeps": (len(named["ccmdp.dp"]) / n, "count"),
        "ccmdp.dp_sweep_ms": (mean_ms("ccmdp.dp"), "ms"),
        "ccmdp.evals": (len(named["ccmdp.eval"]) / n, "count"),
        "ccmdp.eval_ms": (mean_ms("ccmdp.eval"), "ms"),
        "ccmdp.mc_s": (total("ccmdp.mc") / n, "s"),
        "ccmdp.rollouts_per_s": (rate("ccmdp.mc"), "1/s"),
        "smpc.queries": (len(named["smpc.query"]) / n, "count"),
        "smpc.query_s": (mean_ms("smpc.query") / 1e3, "s"),
        "smpc.build_ms": (mean_ms("smpc.build"), "ms"),
        "smpc.cached_answers": (cached / n, "count"),
        "smpc.mc_s": (total("smpc.mc") / n, "s"),
        "smpc.rollouts_per_s": (rate("smpc.mc"), "1/s"),
        "milp.solves": (len(named["milp.solve"]) / n, "count"),
        "milp.nodes": (sum(s.attrs["nodes"] for s in named["milp.solve"]) / n, "count"),
        "milp.self_s": (self_time("milp.solve") / n, "s"),
        "lpsolve.solves": (len(named["lpsolve.solve"]) / n, "count"),
        "lpsolve.pivots": (pivots / n, "count"),
        "lpsolve.s": (lp_seconds / n, "s"),
        "lpsolve.us_per_pivot": (1e6 * lp_seconds / pivots if pivots else 0.0, "us"),
        "scenarios.build_s": (total("scenarios.build") / n, "s"),
        "cli.other_s": (other / n, "s"),
    }
