"""Spans around calls into robustgrid's layers, and self time per layer.

The tracer records spans from outside the package: `instrument` rebinds
public names in the modules that call them (the names as bound in
robustgrid.ccg, robustgrid.oracle and robustgrid.subproblem, plus the
scipy backend's solve methods and LinearModel.matrix) and restores them
on exit. A span's name is "<layer>.<what>", and the layers are the
package's modules. Spans stay in memory until the run writes them out.

A span's self time is its duration minus the part of it that its child
spans cover. For the per-layer shares, a backend span's self time (the
solver itself, or matrix assembly) is charged to the nearest enclosing
span outside the backend, so that "master" means the master LP including
its solves, and "backend.self_frac" says how much of all of it was
inside the backend.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from dataclasses import dataclass, field

BACKEND = "backend"
# layers that get a share of the traced operation time
SHARE_LAYERS = ("ccg", "master", "subproblem", "oracle", "uncertainty", "report", "bench")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one thread; nesting follows the call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        sp = Span(len(self.spans), name, self.clock(), float("nan"), parent, attrs)
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn, record=None):
        """fn inside a span; record(result) adds attributes after it ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if record is not None:
                sp.attrs.update(record(result))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.id, "name": sp.name, "start": sp.start,
                    "end": sp.end, "parent": sp.parent, "attrs": sp.attrs,
                }) + "\n")


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()


def _master_size(build) -> dict:
    m = build.model
    return {"vars": m.n_vars, "rows": m.n_rows, "nnz": sum(len(r) for r in m.rows)}


def _subproblem_size(build) -> dict:
    return {"binaries": len(build.z), "rows": build.model.n_rows}


def _ccg_trace(result) -> dict:
    _, trace = result
    return {
        "iterations": len(trace.iterations),
        "stalled": trace.stalled,
        "iter_s": [it.seconds for it in trace.iterations],
    }


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind robustgrid's public names to traced wrappers while active."""
    from robustgrid import ccg, master, oracle, subproblem
    from robustgrid.backend import LinearModel, ScipyBackend

    wrap = tracer.wrap
    dispatch = wrap("master.dispatch", master.dispatch_cost)
    patches = [
        (ccg, "run_ccg", wrap("ccg.run", ccg.run_ccg, _ccg_trace)),
        (ccg, "run_gamma_ladder", wrap("ccg.ladder", ccg.run_gamma_ladder)),
        (ccg, "build_master", wrap("master.build", ccg.build_master, _master_size)),
        (ccg, "solve_master", wrap("master.solve", ccg.solve_master)),
        (ccg, "build_subproblem",
         wrap("subproblem.build", ccg.build_subproblem, _subproblem_size)),
        (ccg, "solve_subproblem", wrap("subproblem.solve", ccg.solve_subproblem)),
        (ccg, "realize", wrap("uncertainty.realize", ccg.realize)),
        (subproblem, "realize", wrap("uncertainty.realize", subproblem.realize)),
        (subproblem, "dispatch_cost", wrap("subproblem.saturation_recheck", dispatch)),
        (oracle, "certify_run", wrap("oracle.certify", oracle.certify_run)),
        (oracle, "robust_optimum_by_enumeration",
         wrap("oracle.enum_lp", oracle.robust_optimum_by_enumeration)),
        (oracle, "dispatch_cost", wrap("oracle.coverage", dispatch)),
        (oracle, "enumerate_set",
         wrap("uncertainty.enumerate", oracle.enumerate_set,
              lambda members: {"members": len(members)})),
        (oracle, "realize", wrap("uncertainty.realize", oracle.realize)),
        (oracle, "build_subproblem",
         wrap("subproblem.build", oracle.build_subproblem, _subproblem_size)),
        (oracle, "solve_subproblem", wrap("subproblem.solve", oracle.solve_subproblem)),
        (ScipyBackend, "solve_lp",
         wrap("backend.solve_lp", ScipyBackend.solve_lp,
              lambda res: {"iterations": res.stats.get("iterations", 0)})),
        (ScipyBackend, "solve_milp", wrap("backend.solve_milp", ScipyBackend.solve_milp)),
        (LinearModel, "matrix", wrap("backend.matrix", LinearModel.matrix)),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, traced in patches:
            setattr(owner, name, traced)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {sp.id: sp for sp in spans}
    for sp in spans:
        if sp.parent is not None:
            parent = by_id[sp.parent]
            children.setdefault(sp.parent, []).append(
                (max(sp.start, parent.start), min(sp.end, parent.end))
            )
    return {sp.id: sp.duration - _covered(children.get(sp.id, [])) for sp in spans}


def charged_layer(span: Span, by_id: dict[int, Span]) -> str:
    """The span's layer, or for a backend span that of its nearest non-backend caller."""
    while span.layer == BACKEND and span.parent is not None:
        span = by_id[span.parent]
    return span.layer


def layer_self_times(spans: list[Span]) -> tuple[dict[str, float], float]:
    """Self time per charged layer, and the backend's own part of it."""
    by_id = {sp.id: sp for sp in spans}
    per_layer: dict[str, float] = {}
    backend = 0.0
    for sid, t in self_times(spans).items():
        sp = by_id[sid]
        layer = charged_layer(sp, by_id)
        per_layer[layer] = per_layer.get(layer, 0.0) + t
        if sp.layer == BACKEND:
            backend += t
    return per_layer, backend


def self_time_by_path(spans: list[Span]) -> dict[str, float]:
    """Self time per call path ("ccg.run > master.solve > backend.solve_lp")."""
    by_id = {sp.id: sp for sp in spans}
    paths: dict[str, float] = {}
    for sid, t in self_times(spans).items():
        names, sp = [], by_id[sid]
        while True:
            names.append(sp.name)
            if sp.parent is None:
                break
            sp = by_id[sp.parent]
        key = " > ".join(reversed(names))
        paths[key] = paths.get(key, 0.0) + t
    return paths


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer counts and times, per operation, from one traced run.

    Spans outside operations (the instance load) are timed but not shared;
    the shares divide self time by the total duration of the "bench.op"
    root spans.
    """

    def named(name):
        return [sp for sp in spans if sp.name == name]

    def total(name):
        return sum(sp.duration for sp in named(name)) / ops

    def count(name):
        return len(named(name)) / ops

    def attr_sum(name, key):
        return sum(sp.attrs.get(key, 0) for sp in named(name)) / ops

    def attr_max(name, key):
        return max((sp.attrs.get(key, 0) for sp in named(name)), default=0)

    op_spans = named("bench.op")
    op_ids = {sp.id for sp in op_spans}
    by_id = {sp.id: sp for sp in spans}

    def in_op(sp):
        while sp.parent is not None:
            sp = by_id[sp.parent]
        return sp.id in op_ids

    inside = [sp for sp in spans if in_op(sp)]
    per_layer, backend = layer_self_times(inside)
    op_time = sum(sp.duration for sp in op_spans)
    runs = named("ccg.run")
    iter_s = [s for sp in runs for s in sp.attrs.get("iter_s", [])]
    loads = named("io.load_instance")

    metrics = {
        "ccg.iterations": attr_sum("ccg.run", "iterations"),
        "ccg.iter_s_median": statistics.median(iter_s) if iter_s else 0.0,
        "ccg.iter_s_max": max(iter_s, default=0.0),
        "ccg.stalls": sum(1 for sp in runs if sp.attrs.get("stalled")) / ops,
        "subproblem.build_s": total("subproblem.build"),
        "subproblem.solve_s": total("subproblem.solve"),
        "subproblem.binaries": attr_max("subproblem.build", "binaries"),
        "subproblem.rows": attr_max("subproblem.build", "rows"),
        "subproblem.saturation_rechecks": count("subproblem.saturation_recheck"),
        "master.build_s": total("master.build"),
        "master.solve_s": total("master.solve"),
        "master.final_vars": attr_max("master.build", "vars"),
        "master.final_rows": attr_max("master.build", "rows"),
        "master.final_nnz": attr_max("master.build", "nnz"),
        "master.dispatch_calls": count("master.dispatch"),
        "master.dispatch_s": total("master.dispatch"),
        "backend.lp_calls": count("backend.solve_lp"),
        "backend.lp_s": total("backend.solve_lp"),
        "backend.lp_iterations": attr_sum("backend.solve_lp", "iterations"),
        "backend.milp_calls": count("backend.solve_milp"),
        "backend.milp_s": total("backend.solve_milp"),
        "backend.matrix_s": total("backend.matrix"),
        "backend.self_frac": backend / op_time,
        "uncertainty.realize_calls": count("uncertainty.realize"),
        "uncertainty.realize_s": total("uncertainty.realize"),
        "uncertainty.enumerated": attr_sum("uncertainty.enumerate", "members"),
        "oracle.enum_lp_s": total("oracle.enum_lp"),
        "oracle.coverage_s": total("oracle.coverage"),
        "io.load_instance_s": statistics.median(sp.duration for sp in loads) if loads else 0.0,
        "report.write_s": total("report.write"),
    }
    for layer in SHARE_LAYERS:
        metrics[f"share.{layer}"] = per_layer.get(layer, 0.0) / op_time
    return metrics
