"""End-to-end acceptance gate, one test per shipped guarantee.

Each test asserts one property of the finished pipeline at its pinned
tolerance, so `pytest -v` on this file reads as the release checklist.
Shared module fixtures run each converged case once; individual tests only
assert on the cached results plus whatever extra solves they need.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from robustgrid.backend import ScipyBackend
from robustgrid.ccg import run_ccg, run_gamma_ladder
from robustgrid.io import load_instance
from robustgrid.master import (
    build_master,
    capacity_keys,
    check_block_physics,
    dispatch_cost,
    solve_master,
)
from robustgrid.model import annualize_cost
from robustgrid.oracle import robust_optimum_by_enumeration
from robustgrid.prep import (
    HOURS_PER_WEEK,
    RawHistorySet,
    compute_deviation,
    reduce_series,
    reference_series,
    synthesize_lower_bound,
)
from robustgrid.subproblem import (
    build_subproblem,
    verify_strong_duality,
)
from robustgrid.uncertainty import (
    UncertaintyBudget,
    WorstCaseRealization,
    count_realizations,
    enumerate_set,
    realize,
)

from toys import (
    single_node,
    symmetric_pair,
    three_region_hydro,
    toy6_with_pumped_hydro,
    two_period_battery,
    two_region,
)

SCIPY = ScipyBackend()
TOY6_PATH = Path(__file__).parent / "fixtures" / "toy6.json"


def halve_deviation(inst):
    rens = tuple(
        dataclasses.replace(
            r,
            cf=dataclasses.replace(
                r.cf, deviation=tuple(d / 2 for d in r.cf.deviation)
            ),
        )
        for r in inst.renewables
    )
    return inst.replace(renewables=rens)


def ref_cf(inst):
    return realize(inst, WorstCaseRealization.reference())


# enumeration-sized cases: each at most 3 regions, 2 periods, budget 2,
# and 200 realizations, so the exact optimum stays computable
ORACLE_CASES = {
    "single_node": (single_node, UncertaintyBudget(1, 1)),
    "two_region": (two_region, UncertaintyBudget(1, 1)),
    "two_period_battery": (two_period_battery, UncertaintyBudget(1, 1)),
    "three_region_hydro": (three_region_hydro, UncertaintyBudget(2, 2)),
    "symmetric_pair": (symmetric_pair, UncertaintyBudget(1, 1)),
}


@pytest.fixture(scope="module")
def converged_runs():
    runs = {}
    for name, (builder, budget) in ORACLE_CASES.items():
        inst = builder()
        started = time.perf_counter()
        solution, trace = run_ccg(inst, budget, backend=SCIPY)
        runs[name] = {
            "inst": inst,
            "budget": budget,
            "solution": solution,
            "trace": trace,
            "seconds": time.perf_counter() - started,
        }
    return runs


@pytest.fixture(scope="module")
def toy6():
    return load_instance(TOY6_PATH)


@pytest.fixture(scope="module")
def toy6_ladder(toy6):
    return run_gamma_ladder(toy6, list(range(7)), backend=SCIPY)


def test_01_deterministic_equivalence(toy6):
    """Zero budget reproduces the deterministic plan within 1e-8 relative."""
    fixtures = {name: case[0]() for name, case in ORACLE_CASES.items()}
    fixtures["toy6"] = toy6
    for name, inst in fixtures.items():
        started = time.perf_counter()
        det = solve_master(build_master(inst, [ref_cf(inst)]), SCIPY).objective
        solution, trace = run_ccg(inst, UncertaintyBudget(0, 0), backend=SCIPY)
        elapsed = time.perf_counter() - started
        assert trace.converged, name
        rel = abs(solution.objective - det) / max(1.0, abs(det))
        assert rel <= 1e-8, f"{name}: deterministic mismatch {rel:.3e}"
        assert elapsed < 5.0, f"{name}: took {elapsed:.1f} s"


def test_02_oracle_equivalence(converged_runs):
    """Converged objective equals exhaustive enumeration within 1e-6 relative."""
    assert len(converged_runs) >= 5
    for name, run in converged_runs.items():
        inst, budget = run["inst"], run["budget"]
        assert len(inst.regions) <= 3, name
        assert len(inst.timegrid.periods) <= 2, name
        assert max(budget.gamma_pv, budget.gamma_wind) <= 2, name
        assert count_realizations(inst, budget) <= 200, name
        assert run["trace"].converged, name
        started = time.perf_counter()
        exact = robust_optimum_by_enumeration(inst, budget, SCIPY)
        elapsed = run["seconds"] + time.perf_counter() - started
        rel = abs(run["solution"].objective - exact) / max(1.0, abs(exact))
        assert rel <= 1e-6, f"{name}: oracle mismatch {rel:.3e}"
        assert elapsed < 120.0, f"{name}: took {elapsed:.1f} s"


def test_03_strong_duality(converged_runs):
    """Dual worst-case value matches primal dispatch within 1e-6 relative."""
    rng = np.random.default_rng(2024)
    for name, run in converged_runs.items():
        inst = run["inst"]
        final = run["trace"].iterations[-1].realization
        gap = verify_strong_duality(inst, run["solution"].capacities, final, SCIPY)
        assert gap <= 1e-6, f"{name}: converged-run duality gap {gap:.3e}"

        triples = [
            (tech, g, p.id)
            for tech in ("pv", "wind")
            for g in inst.region_ids()
            for p in inst.timegrid.periods
        ]
        for trial in range(20):
            values = {
                key: float(rng.uniform(0.0, 30.0)) for key in capacity_keys(inst)
            }
            flags = frozenset(t for t in triples if rng.uniform() < 0.4)
            gap = verify_strong_duality(
                inst, values, WorstCaseRealization(flags), SCIPY
            )
            assert gap <= 1e-6, f"{name} trial {trial}: duality gap {gap:.3e}"


def test_04_robustness_certificate(converged_runs):
    """Every enumerated realization is covered by the recourse bound."""
    for name, run in converged_runs.items():
        inst, budget, solution = run["inst"], run["budget"], run["solution"]
        bound = solution.recourse_bound
        allowed = bound + 1e-6 * max(1.0, bound)
        members = enumerate_set(inst, budget)
        costs = dispatch_cost(
            inst, solution.capacities, [realize(inst, m) for m in members], SCIPY
        )
        for member, cost in zip(members, costs):
            assert cost <= allowed, (
                f"{name}: realization {member.summary()} costs {cost:.10g}, "
                f"recourse bound is {bound:.10g}"
            )


def test_05_bound_monotonicity(converged_runs, toy6_ladder):
    """Lower bounds rise, upper bounds fall, converged gaps close to 1e-8."""
    traces = {name: run["trace"] for name, run in converged_runs.items()}
    for entry in toy6_ladder:
        assert entry.solution is not None, entry.error
        traces[f"toy6_gamma{entry.gamma}"] = entry.trace
    for name, trace in traces.items():
        lbs = [it.lower_bound for it in trace.iterations]
        ubs = [it.upper_bound for it in trace.iterations]
        for a, b in zip(lbs, lbs[1:]):
            assert b >= a - 1e-9 * max(1.0, abs(a)), f"{name}: LB fell {a} -> {b}"
        for a, b in zip(ubs, ubs[1:]):
            assert b <= a + 1e-9 * max(1.0, abs(a)), f"{name}: UB rose {a} -> {b}"
        assert trace.converged, name
        assert trace.final_gap <= 1e-8, f"{name}: final gap {trace.final_gap:.3e}"


def test_05b_inexact_separation_ends_on_an_exact_search():
    """Early stops happen, never end a rung, and leave no NaN in the trace.

    toy6 prices its few-member period windows exactly, so its ladder has no
    early stop; with pumped hydro its every search is one whole-horizon MILP.
    """
    ladder = run_gamma_ladder(toy6_with_pumped_hydro(), list(range(7)), backend=SCIPY)
    iterations = [it for e in ladder for it in e.trace.iterations]
    assert any(not it.realization.exact for it in iterations), "no search stopped early"
    for entry in ladder:
        assert entry.trace.iterations[-1].realization.exact, f"gamma {entry.gamma}"
    assert not any(math.isnan(it.gap) for it in iterations)


def test_05c_seeded_start_keeps_every_objective(toy6, toy6_ladder, monkeypatch):
    """Seeding the memory with the cover moves no rung's objective."""
    import robustgrid.ccg as ccg_module

    monkeypatch.setattr(
        ccg_module, "cover", lambda inst, budget: [WorstCaseRealization.reference()]
    )
    plain = run_gamma_ladder(toy6, list(range(7)), backend=SCIPY)
    for seeded, entry in zip(toy6_ladder, plain):
        assert entry.trace.converged and entry.trace.seeds == [
            WorstCaseRealization.reference()
        ]
        assert seeded.solution.objective == pytest.approx(
            entry.solution.objective, rel=1e-9
        ), f"gamma {entry.gamma}"


def test_06_budget_monotonicity_and_taper(toy6, toy6_ladder):
    """Objectives grow with the budget and the last increment is smallest."""
    values = [entry.solution.objective for entry in toy6_ladder]
    assert len(values) == 7
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9 * max(1.0, abs(a))
    assert values[-1] > values[0] * (1.0 + 1e-6), "no robustness premium"
    increments = [b - a for a, b in zip(values, values[1:])]
    assert increments[-1] < min(increments[:-1]), (
        f"last increment {increments[-1]:.6g} is not the smallest: {increments}"
    )

    small = two_region()
    small_values = [
        e.solution.objective
        for e in run_gamma_ladder(small, [0, 1, 2], backend=SCIPY)
    ]
    for a, b in zip(small_values, small_values[1:]):
        assert b >= a - 1e-9 * max(1.0, abs(a))


def test_07_bigm_soundness():
    """Restricted worst-case solves match primal dispatch, far from the bound.

    Each budget member is pinned in turn and must reproduce the dispatch
    cost within 1e-6 relative. M caps only the phi terms (phi <= M z and
    phi <= mu), so only a flagged multiplier can be clipped by it; partial
    deviations keep every variable, multipliers and phi alike, strictly
    below M, so no solve here leans on the saturation cross-check.
    """
    cases = {
        "single_node_partial": (halve_deviation(single_node()), UncertaintyBudget(1, 1)),
        "two_region_partial": (halve_deviation(two_region()), UncertaintyBudget(1, 1)),
        "two_period_battery": (two_period_battery(), UncertaintyBudget(1, 1)),
        "three_region_hydro": (three_region_hydro(), UncertaintyBudget(2, 2)),
        "symmetric_pair_partial": (halve_deviation(symmetric_pair()), UncertaintyBudget(1, 1)),
    }
    for name, (inst, budget) in cases.items():
        solution, trace = run_ccg(inst, budget, backend=SCIPY)
        assert trace.converged, name
        build = build_subproblem(inst, solution.capacities, budget)
        ceiling = build.big_m * (1.0 - 1e-6)
        for member in enumerate_set(inst, budget):
            for flag, j in build.z.items():
                value = 1.0 if flag in member.flags else 0.0
                build.model.var_lb[j] = value
                build.model.var_ub[j] = value
            res = SCIPY.solve_milp(build.model, gap_tol=1e-9)
            assert res.status == "optimal", f"{name}: {member.summary()}"
            [primal] = dispatch_cost(
                inst, solution.capacities, [realize(inst, member)], SCIPY
            )
            rel = abs(res.objective - primal) / max(1.0, abs(primal))
            assert rel <= 1e-6, (
                f"{name}: {member.summary()} dual {res.objective:.10g} vs "
                f"primal {primal:.10g}"
            )
            worst = float(np.max(np.abs(res.x)))
            assert worst <= ceiling, (
                f"{name}: {member.summary()} puts a variable at {worst:.6g} "
                f"against big-M {build.big_m:.6g}"
            )


def test_08_model_physics(converged_runs, toy6_ladder):
    """Every solved block passes the physical-consistency audit."""
    audited = 0
    cases = [
        (name, run["inst"], run["solution"])
        for name, run in converged_runs.items()
    ]
    toy6 = load_instance(TOY6_PATH)
    cases += [
        (f"toy6_gamma{e.gamma}", toy6, e.solution) for e in toy6_ladder
    ]
    for name, inst, solution in cases:
        for k, (cf, x) in enumerate(zip(solution.realizations, solution.dispatch)):
            violations = check_block_physics(inst, solution.capacities, cf, x)
            assert violations == [], f"{name}/s{k}: {violations}"
            audited += 1
    assert audited >= 20


def test_09_series_preparation():
    """Reduction preserves means; the lower bound is the per-week minimum."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        window = int(rng.integers(1, 30))
        blocks = int(rng.integers(1, 40))
        series = rng.uniform(0.0, 1.0, size=window * blocks)
        reduced = reduce_series(series, window)
        assert reduced.size == blocks
        assert abs(reduced.mean() - series.mean()) <= 1e-12 * max(
            1.0, abs(series.mean())
        )

    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        years, weeks = 4, 3
        mat = rng.uniform(0.0, 1.0, size=(years, weeks * HOURS_PER_WEEK))
        history = RawHistorySet(years=("a", "b", "c", "d"), matrices={"u": mat})
        lower = synthesize_lower_bound(history, "u")
        got_weekly = lower.reshape(weeks, HOURS_PER_WEEK).mean(axis=1)
        expected_weekly = mat.reshape(years, weeks, HOURS_PER_WEEK).mean(axis=2).min(axis=0)
        assert np.array_equal(got_weekly, expected_weekly)

        reference = reduce_series(reference_series(history, "u"), 24)
        deviation = compute_deviation(reference, reduce_series(lower, 24))
        assert (deviation >= 0.0).all()

    for name, (builder, _) in ORACLE_CASES.items():
        for unit in builder().renewables:
            for t, (ref, dev) in enumerate(zip(unit.cf.reference, unit.cf.deviation)):
                assert 0.0 <= dev <= ref, f"{name}/{unit.id} step {t}"


def test_10_annualization_closed_form():
    """Annualized costs match an independent capital-recovery evaluation."""
    rows = [
        (963.0, 30, 0.075, 9.63),
        (370.0, 35, 0.069, 7.40),
        (100.0, 10, 0.0, 0.0),
        (1250.0, 40, 0.05, 20.0),
    ]
    for overnight, lifetime, rate, fixed_om in rows:
        if rate == 0.0:
            crf = 1.0 / lifetime
        else:
            growth = math.pow(1.0 + rate, lifetime)
            crf = rate * growth / (growth - 1.0)
        expected = overnight * crf + fixed_om
        got = annualize_cost(overnight, lifetime, rate, fixed_om)
        assert abs(got - expected) <= 1e-10 * expected
    assert annualize_cost(963.0, 30, 0.075, 9.63) == pytest.approx(91.2, abs=0.05)
