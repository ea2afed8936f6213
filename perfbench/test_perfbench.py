"""Tests of the benchmark's own code: instance generator and span arithmetic.

    python3 -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

from robustgrid import ccg, oracle, run_ccg, validate
from robustgrid.backend import LinearModel, ScipyBackend
from robustgrid.uncertainty import UncertaintyBudget

from instances import Shape, build, objective_scale
from tracing import Span, Tracer, instrument, layer_metrics, layer_self_times, self_times
from run import _layer_unit
from workloads import WORKLOADS

SHAPES = sorted({w.shape for w in WORKLOADS.values()}, key=repr)


@pytest.mark.parametrize("shape", SHAPES, ids=repr)
@pytest.mark.parametrize("seed", [None, 0, 1, 7, 12345])
def test_generated_instances_validate(shape, seed):
    assert validate(build(shape, seed)) == []


@pytest.mark.parametrize("shape", SHAPES, ids=repr)
def test_generator_is_deterministic_per_seed(shape):
    assert build(shape, 3) == build(shape, 3)
    assert objective_scale(3) == objective_scale(3)
    assert len({repr(build(shape, seed)) for seed in range(6)}) > 1


def test_seed_scales_the_robust_optimum_exactly():
    shape = Shape(regions=2, periods=1, steps_per_period=2)
    budget = UncertaintyBudget(gamma_pv=1, gamma_wind=1)
    base, _ = run_ccg(build(shape, None), budget)
    for seed in (1, 5, 9):
        solution, trace = run_ccg(build(shape, seed), budget)
        assert trace.converged
        assert solution.objective == pytest.approx(
            objective_scale(seed) * base.objective, rel=1e-9
        )


def spans(*rows):
    """Spans from (name, start, end, parent) rows; ids are row positions."""
    return [Span(i, name, start, end, parent) for i, (name, start, end, parent) in enumerate(rows)]


def test_self_time_subtracts_the_union_of_children():
    tree = spans(
        ("bench.op", 0.0, 10.0, None),
        ("ccg.run", 1.0, 4.0, 0),
        ("master.solve", 3.0, 6.0, 0),  # overlaps its sibling: [1, 6] is covered once
        ("backend.solve_lp", 2.0, 3.0, 1),
        ("master.build", 8.0, 12.0, 0),  # runs past its parent: only [8, 10] counts
    )
    assert self_times(tree) == {0: 3.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 4.0}


def test_backend_self_time_is_charged_to_its_caller():
    tree = spans(
        ("bench.op", 0.0, 10.0, None),
        ("master.solve", 0.0, 6.0, 0),
        ("backend.solve_lp", 1.0, 5.0, 1),
        ("backend.matrix", 1.0, 2.0, 2),
        ("subproblem.solve", 6.0, 9.0, 0),
        ("backend.solve_milp", 6.0, 8.5, 4),
    )
    per_layer, backend = layer_self_times(tree)
    assert per_layer == pytest.approx({"bench": 1.0, "master": 6.0, "subproblem": 3.0})
    assert backend == pytest.approx(6.5)
    metrics = layer_metrics(tree, ops=1)
    assert metrics["share.master"] == pytest.approx(0.6)
    assert metrics["share.subproblem"] == pytest.approx(0.3)
    assert metrics["backend.self_frac"] == pytest.approx(0.65)
    assert metrics["backend.lp_s"] == pytest.approx(4.0)
    assert metrics["backend.matrix_s"] == pytest.approx(1.0)


def test_tracer_nests_spans_and_keeps_them_after_errors():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("bench.op"):
        with pytest.raises(ValueError):
            with tracer.span("ccg.run"):
                raise ValueError("boom")
        with tracer.span("master.build"):
            pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("bench.op", None), ("ccg.run", 0), ("master.build", 0),
    ]
    assert all(s.end > s.start for s in tracer.spans)


def test_instrument_traces_a_solve_and_restores_every_name():
    originals = (ccg.run_ccg, ccg.build_master, oracle.dispatch_cost,
                 ScipyBackend.solve_lp, LinearModel.matrix)
    tracer = Tracer()
    inst = build(Shape(regions=2, periods=1, steps_per_period=2), None)
    with instrument(tracer):
        with tracer.span("bench.op"):
            ccg.run_ccg(inst, UncertaintyBudget(gamma_pv=1, gamma_wind=1))
    assert (ccg.run_ccg, ccg.build_master, oracle.dispatch_cost,
            ScipyBackend.solve_lp, LinearModel.matrix) == originals
    metrics = layer_metrics(tracer.spans, ops=1)
    assert metrics["ccg.iterations"] >= 1
    assert metrics["backend.lp_calls"] == metrics["ccg.iterations"]
    assert metrics["backend.milp_calls"] == metrics["ccg.iterations"]
    assert metrics["master.final_nnz"] > 0
    shares = sum(v for k, v in metrics.items() if k.startswith("share."))
    assert shares == pytest.approx(1.0)


def test_benchmark_json_matches_what_the_runs_report():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"solve_s", "setup_s", "peak_rss_mb", "ok_frac"}
    tree = spans(("bench.op", 0.0, 1.0, None))
    reported = [*layer_metrics(tree, ops=1), "trace.overhead_s"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, _layer_unit(name)) for name in reported
    ]
