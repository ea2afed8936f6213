"""Worst-case subproblem: strong duality, budgets, big-M linearization."""

import dataclasses

import numpy as np
import pytest

from robustgrid.backend import EQ, BackendError, InTreeBackend, ScipyBackend
from robustgrid.master import (
    build_dispatch_lp,
    build_master,
    capacity_keys,
    dispatch_cost,
    solve_master,
)
from robustgrid.model import PV, WIND
import robustgrid.subproblem as subproblem
from robustgrid.subproblem import (
    build_subproblem,
    default_big_m,
    solve_subproblem,
    verify_strong_duality,
)
from robustgrid.uncertainty import (
    UncertaintyBudget,
    WorstCaseRealization,
    enumerate_set,
)

from toys import (
    FULL_SHED_COST_PER_MWH,
    single_node,
    symmetric_pair,
    three_region_hydro,
    two_period_battery,
    two_region,
)

BACKENDS = [ScipyBackend(), InTreeBackend()]
IDS = [b.name for b in BACKENDS]
SCIPY = ScipyBackend()


@pytest.fixture(params=BACKENDS, ids=IDS)
def backend(request):
    return request.param


REF = WorstCaseRealization.reference()


def master_capacities(inst, backend=SCIPY):
    return solve_master(build_master(inst, [REF]), backend).capacities


def fix_flags(build, flags):
    for flag, j in build.z.items():
        value = 1.0 if flag in flags else 0.0
        build.model.var_lb[j] = value
        build.model.var_ub[j] = value


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


# --- known worst cases -------------------------------------------------------

def test_gamma_zero_is_reference_dispatch(backend):
    inst = single_node()
    caps = {("ren", "s1"): 20.0}
    build = build_subproblem(inst, caps, UncertaintyBudget(0, 0))
    worst = solve_subproblem(build, backend)
    assert worst.flags == frozenset()
    assert worst.dual_objective == pytest.approx(0.0, abs=1e-6)


def test_full_wipe_single_node(backend):
    inst = single_node()
    caps = {("ren", "s1"): 20.0}
    build = build_subproblem(inst, caps, UncertaintyBudget(1, 0))
    worst = solve_subproblem(build, backend)
    assert worst.flags == frozenset({("pv", "R1", "p1")})
    assert worst.dual_objective == pytest.approx(202000.0, rel=1e-8)


def test_zero_capacity_handoff_is_flag_independent():
    # with nothing built the dispatch sheds everything either way, and no
    # flag binaries exist because no flag can change anything
    inst = single_node()
    caps = {("ren", "s1"): 0.0}
    want = FULL_SHED_COST_PER_MWH * 10.0 * 2
    for budget in (UncertaintyBudget(0, 0), UncertaintyBudget(1, 0)):
        build = build_subproblem(inst, caps, budget)
        assert build.z == {}
        worst = solve_subproblem(build, SCIPY)
        assert worst.dual_objective == pytest.approx(want, rel=1e-8)


def test_symmetric_regions_tie(backend):
    # either region can be hit for the same damage; whichever the solver
    # returns, the objective must match the dispatch under that choice
    # (the capacities are pinned symmetric; a master vertex need not be)
    inst = symmetric_pair()
    caps = {("ren", "pv_1"): 10.0, ("ren", "pv_2"): 10.0, ("line", "l12"): 0.0}
    build = build_subproblem(inst, caps, UncertaintyBudget(1, 0))
    worst = solve_subproblem(build, backend)
    assert len(worst.flags) == 1
    costs = dispatch_cost(inst, caps, [
        WorstCaseRealization(flags=frozenset({("pv", f"R{k}", "p1")}))
        for k in (1, 2)
    ], SCIPY)
    assert costs[0] == pytest.approx(costs[1], rel=1e-9)
    assert worst.dual_objective == pytest.approx(costs[0], rel=1e-6)


def test_budget_rows_respected():
    inst = three_region_hydro()
    caps = {key: 10.0 for key in capacity_keys(inst)}
    build = build_subproblem(inst, caps, UncertaintyBudget(1, 0))
    worst = solve_subproblem(build, SCIPY)
    assert sum(f[0] == PV for f in worst.flags) <= 1
    assert sum(f[0] == WIND for f in worst.flags) == 0


# --- strong duality ----------------------------------------------------------

TOYS = [single_node, two_region, two_period_battery, three_region_hydro,
        symmetric_pair]


@pytest.mark.parametrize("builder", TOYS, ids=lambda b: b.__name__)
def test_strong_duality_at_master_optimum(builder):
    inst = builder()
    caps = master_capacities(inst)
    build = build_subproblem(inst, caps, UncertaintyBudget(1, 1))
    worst = solve_subproblem(build, SCIPY)
    assert verify_strong_duality(inst, caps, worst, SCIPY) <= 1e-6
    reference = WorstCaseRealization.reference()
    assert verify_strong_duality(inst, caps, reference, SCIPY) <= 1e-6


@pytest.mark.parametrize("builder", [two_region, three_region_hydro],
                         ids=lambda b: b.__name__)
def test_strong_duality_random_pairs(builder):
    # random capacity vectors and random flag sets, both sides computed
    # independently: the dual at fixed flags must price the dispatch exactly
    inst = builder()
    rng = np.random.default_rng(42)
    keys = capacity_keys(inst)
    flags_pool = [
        (tech, g.id, p.id)
        for tech in (PV, WIND)
        for g in inst.regions
        for p in inst.timegrid.periods
    ]
    for _ in range(10):
        caps = {key: float(rng.uniform(0.0, 30.0)) for key in keys}
        picks = frozenset(
            f for f in flags_pool if rng.uniform() < 0.4
        )
        realization = WorstCaseRealization(flags=picks)
        assert verify_strong_duality(inst, caps, realization, SCIPY) <= 1e-6


def test_strong_duality_intree_backend():
    inst = single_node()
    caps = {("ren", "s1"): 20.0}
    worst = WorstCaseRealization(flags=frozenset({("pv", "R1", "p1")}))
    assert verify_strong_duality(inst, caps, worst, InTreeBackend()) <= 1e-6


# --- oracle equivalence and monotonicity -------------------------------------

@pytest.mark.parametrize("builder", [two_region, three_region_hydro],
                         ids=lambda b: b.__name__)
def test_matches_enumeration_maximum(builder):
    inst = builder()
    caps = master_capacities(inst)
    budget = UncertaintyBudget(1, 1)
    worst_enum = max(
        dispatch_cost(inst, caps, enumerate_set(inst, budget), SCIPY)
    )
    build = build_subproblem(inst, caps, budget)
    worst = solve_subproblem(build, SCIPY)
    assert worst.dual_objective == pytest.approx(worst_enum, rel=1e-6)


def test_objective_nondecreasing_in_gamma():
    inst = three_region_hydro()
    caps = master_capacities(inst)
    budgets = [
        UncertaintyBudget(0, 0),
        UncertaintyBudget(1, 0),
        UncertaintyBudget(1, 1),
        UncertaintyBudget(2, 1),
        UncertaintyBudget(3, 3),
    ]
    objs = []
    for budget in budgets:
        worst = solve_subproblem(build_subproblem(inst, caps, budget), SCIPY)
        objs.append(worst.dual_objective)
    for lo, hi in zip(objs, objs[1:]):
        assert hi >= lo - 1e-6 * max(1.0, abs(lo))


# --- big-M linearization ------------------------------------------------------

def test_restricted_flags_reproduce_dispatch():
    # for every member of the uncertainty set, pinning the binaries makes
    # the dual land exactly on that member's primal dispatch cost
    inst = halve_deviation(two_region())
    caps = {("ren", "pv_a"): 20.0, ("ren", "w_b"): 15.0, ("line", "l12"): 0.0}
    budget = UncertaintyBudget(1, 1)
    for member in enumerate_set(inst, budget):
        build = build_subproblem(inst, caps, budget)
        fix_flags(build, member.flags)
        res = SCIPY.solve_milp(build.model, gap_tol=1e-12)
        assert res.status == "optimal"
        [primal] = dispatch_cost(inst, caps, [member], SCIPY)
        assert res.objective == pytest.approx(primal, rel=1e-6, abs=1e-6)


def test_no_multiplier_saturates_default_big_m():
    inst = halve_deviation(two_region())
    caps = master_capacities(inst)
    build = build_subproblem(inst, caps, UncertaintyBudget(1, 1))
    res = SCIPY.solve_milp(build.model, gap_tol=1e-9)
    assert res.status == "optimal"
    limit = build.big_m * (1.0 - 1e-6)
    for i, pj in build.phi.items():
        assert res.x[pj] < limit
        assert res.x[i] < limit


def test_tiny_big_m_raises_with_guidance():
    inst = single_node()
    caps = {("ren", "s1"): 20.0}
    build = build_subproblem(inst, caps, UncertaintyBudget(1, 0), big_m=1.0)
    with pytest.raises(BackendError, match="increase big_m"):
        # the MILP itself: one node's one flag leaves solve_subproblem
        # nothing to choose, so it prices instead
        subproblem._search(build, SCIPY, gap_tol=1e-9)


def test_two_linearization_rows_per_term():
    inst = single_node()
    caps = {("ren", "s1"): 20.0}
    build = build_subproblem(inst, caps, UncertaintyBudget(1, 0))
    # 2 steps inside the period, deviation positive: 2 phi terms, 4 rows
    assert len(build.phi) == 2
    names = build.model.row_names
    for tag, count in (("lin1", 2), ("lin2", 2), ("lin3", 0), ("lin4", 0)):
        assert sum(n.startswith(f"{tag}[") for n in names) == count


@pytest.mark.parametrize(
    "capacity, want", [(1.0, 190000.0), (5.0, 142000.0), (10.0, 82000.0)]
)
def test_big_m_bounds_only_flagged_multipliers(capacity, want):
    # at budget 0 no flag can be set, so the worst case is the reference
    # dispatch; its availability multipliers sit far above M = 1, which
    # must not cap them while their flags are off
    inst = single_node()
    caps = {("ren", "s1"): capacity}
    build = build_subproblem(inst, caps, UncertaintyBudget(0, 0), big_m=1.0)
    assert len(build.z) == 1
    worst = solve_subproblem(build, SCIPY)
    assert worst.flags == frozenset()
    assert worst.dual_objective == pytest.approx(want, rel=1e-9)
    assert dispatch_cost(inst, caps, [REF], SCIPY) == [pytest.approx(want, rel=1e-9)]


def test_default_big_m_tracks_top_shedding_tier():
    inst = single_node()
    assert default_big_m(inst) == pytest.approx(10.0 * 12000.0)


# --- dual solution bookkeeping ------------------------------------------------

def test_dual_signs_and_objective():
    inst = two_region()
    caps = master_capacities(inst)
    build = build_subproblem(inst, caps, UncertaintyBudget(1, 1))
    res = SCIPY.solve_milp(build.model, gap_tol=1e-9)
    assert res.status == "optimal"
    assert solve_subproblem(build, SCIPY).dual_objective == pytest.approx(res.objective)
    pm = build_dispatch_lp(inst, caps, REF)
    # column i is the multiplier of dispatch row i: free on an equality row,
    # nonnegative on a <= row; every phi is nonnegative
    multipliers = res.x[: pm.n_rows]
    assert (build.model.var_lb[: pm.n_rows][pm.row_sense == EQ] == -np.inf).all()
    assert (multipliers[pm.row_sense != EQ] >= -1e-9).all()
    assert (res.x[list(build.phi.values())] >= -1e-9).all()
    assert len(build.phi) > 0


def test_worst_case_solve_leaves_row_names_unmade():
    # names are made only when asked; a solve with no saturated multiplier
    # (see test_no_multiplier_saturates_default_big_m) never asks
    inst = halve_deviation(two_region())
    build = build_subproblem(inst, master_capacities(inst), UncertaintyBudget(1, 1))
    solve_subproblem(build, SCIPY)
    assert callable(build.model._row_names)


# --- the capacities handed over ------------------------------------------------

def test_handoff_rejects_bad_values():
    inst = single_node()
    budget = UncertaintyBudget(1, 0)
    with pytest.raises(ValueError, match="bad value nan"):
        build_subproblem(inst, {("ren", "s1"): float("nan")}, budget)
    with pytest.raises(ValueError, match="bad value -2.0"):
        build_subproblem(inst, {("ren", "s1"): -2.0}, budget)


def test_handoff_lines_carry_total_capacity():
    # a line enters as its expansion; its flow rows see existing + expansion
    inst = two_region()  # l12 existing 50
    dt = inst.timegrid.step_hours
    build = build_subproblem(inst, {("line", "l12"): 3.0}, UncertaintyBudget(1, 1))
    # the dual objective weighs a <= row's multiplier with minus its rhs
    names = build.model.var_names
    for t in range(inst.timegrid.step_count):
        for side in ("hi", "lo"):
            j = names.index(f"mu[d:flow_{side}[l12,{t}]]")
            assert build.model.var_obj[j] == pytest.approx(-53.0 * dt)


def test_worst_case_prices_the_dispatch_rhs_exactly():
    # the worst case weighs the very right-hand sides the dispatch LP has at
    # the same capacities; (x + existing) - existing is not x in floating
    # point, and at 24-hour steps it moves flow_hi[l12,0] off 1207.2
    inst = two_region()
    inst = inst.replace(timegrid=dataclasses.replace(inst.timegrid, step_hours=24.0))
    caps = {("line", "l12"): 0.3}
    build = build_subproblem(inst, caps, UncertaintyBudget(1, 1))
    pm = build_dispatch_lp(inst, caps, REF)
    want = pm.row_rhs
    i = pm.row_names.index("d:flow_hi[l12,0]")
    assert want[i] == 1207.2
    # the dual objective carries them: +rhs on equality rows, -rhs on <= rows
    eq = pm.row_sense == EQ
    assert build.model.var_obj[: want.size].tolist() == np.where(eq, want, -want).tolist()


def test_bad_big_m_rejected():
    inst = single_node()
    caps = {("ren", "s1"): 1.0}
    with pytest.raises(ValueError, match="big_m"):
        build_subproblem(inst, caps, UncertaintyBudget(0, 0), big_m=0.0)
