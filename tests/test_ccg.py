"""CCG loop: convergence, bound behaviour, ladder, failure modes."""

import dataclasses
import logging
import math
import multiprocessing
import os
import pickle
import random
import re
import time
from pathlib import Path

import pytest

from robustgrid.backend import BackendError, InTreeBackend, ScipyBackend
from robustgrid.ccg import (
    CcgConfig,
    CcgTrace,
    check_gammas,
    run_ccg,
    run_gamma_ladder,
)
import robustgrid.ccg as ccg_module
from robustgrid.io import load_instance
from robustgrid.master import build_master, capacity_keys, dispatch_cost, solve_master
from robustgrid.model import CapacityFactorBundle, DemandSeries
from robustgrid.oracle import certify_run, robust_optimum_by_enumeration
import robustgrid.subproblem as subproblem
from robustgrid.subproblem import build_subproblem, solve_subproblem
import robustgrid.uncertainty as uncertainty
from robustgrid.uncertainty import (
    UncertaintyBudget,
    WorstCaseRealization,
    check_flags,
    complete,
    cover,
    enumerate_set,
    maximal_sets,
)

from toys import (
    draw_capacities,
    single_node,
    symmetric_pair,
    three_region_hydro,
    toy6_priced,
    toy6_with_pumped_hydro,
    two_period_battery,
    two_region,
    two_region_repeated_period,
)

SCIPY = ScipyBackend()
TOY6 = Path(__file__).parent / "fixtures" / "toy6.json"


REF = frozenset()


# --- convergence on known toys -----------------------------------------------

def test_gamma_zero_single_iteration():
    inst = single_node()
    sol, trace = run_ccg(inst, UncertaintyBudget(0, 0), backend=SCIPY)
    assert trace.converged
    assert len(trace.iterations) == 1
    deterministic = solve_master(build_master(inst, [REF]), SCIPY)
    assert sol.objective == pytest.approx(deterministic.objective, rel=1e-9)


def test_full_wipe_converges_in_two():
    # investing cannot help against a total wipe, so the robust plan sheds:
    # reference master prices 20, one cut later the bounds meet at 202000
    inst = single_node()
    sol, trace = run_ccg(inst, UncertaintyBudget(1, 0), backend=SCIPY)
    assert trace.converged
    assert len(trace.iterations) <= 2
    assert sol.objective == pytest.approx(202000.0, rel=1e-8)
    assert sol.capacities[("ren", "s1")] == pytest.approx(0.0, abs=1e-7)


def test_partial_deviation_overbuilds_not_sheds():
    # halving cf is survivable by doubling the build, so the robust optimum
    # stays investment-only
    inst = single_node(deviation=0.25)
    sol, trace = run_ccg(inst, UncertaintyBudget(1, 0), backend=SCIPY)
    assert trace.converged
    assert sol.objective == pytest.approx(40.0, rel=1e-8)
    assert sol.capacities[("ren", "s1")] == pytest.approx(40.0, abs=1e-6)


def test_intree_backend_agrees():
    inst = single_node()
    sol_a, _ = run_ccg(inst, UncertaintyBudget(1, 0), backend=SCIPY)
    sol_b, _ = run_ccg(inst, UncertaintyBudget(1, 0), backend=InTreeBackend())
    assert sol_a.objective == pytest.approx(sol_b.objective, rel=1e-8)


# --- bound behaviour ------------------------------------------------------------

@pytest.mark.parametrize(
    "builder", [two_region, two_period_battery, three_region_hydro],
    ids=lambda b: b.__name__,
)
def test_bounds_monotone_and_gap_closes(builder):
    inst = builder()
    sol, trace = run_ccg(inst, UncertaintyBudget(1, 1), backend=SCIPY)
    assert trace.converged
    lbs = [it.lower_bound for it in trace.iterations]
    ubs = [it.upper_bound for it in trace.iterations]
    for a, b in zip(lbs, lbs[1:]):
        assert b >= a - 1e-6 * max(1.0, abs(a))
    for a, b in zip(ubs, ubs[1:]):
        assert b <= a + 1e-6 * max(1.0, abs(a))
    for lb, ub in zip(lbs, ubs):
        assert lb <= ub + 1e-6 * max(1.0, abs(ub))
    assert trace.final_gap <= 1e-8


@pytest.mark.parametrize(
    "builder", [two_region, three_region_hydro], ids=lambda b: b.__name__
)
def test_convergence_certificate(builder):
    # the worst case for the final plan costs what the master already priced
    inst = builder()
    sol, trace = run_ccg(inst, UncertaintyBudget(1, 1), backend=SCIPY)
    assert trace.converged
    build = build_subproblem(inst, sol.capacities, UncertaintyBudget(1, 1))
    worst = solve_subproblem(build, SCIPY)
    assert worst.dual_objective <= sol.recourse_bound \
        + 1e-6 * max(1.0, sol.recourse_bound)


def test_robustness_certificate_small():
    # every member of the set is covered by the final recourse bound
    inst = two_region()
    budget = UncertaintyBudget(1, 1)
    sol, trace = run_ccg(inst, budget, backend=SCIPY)
    assert trace.converged
    tol = 1e-6 * max(1.0, sol.recourse_bound)
    members = enumerate_set(inst, budget)
    assert max(dispatch_cost(inst, sol.capacities, members, SCIPY)) <= sol.recourse_bound + tol


def test_memory_grows_without_repeats():
    inst = three_region_hydro()
    _, trace = run_ccg(inst, UncertaintyBudget(1, 1), backend=SCIPY)
    keys = [it.realization.flags for it in trace.iterations]
    # every identified realization before the last is distinct and kept
    assert len(set(keys[:-1])) == len(keys[:-1])
    assert all(it.seconds >= 0.0 for it in trace.iterations)


def test_iteration_time_splits_into_master_and_worst_case(monkeypatch):
    # each solve is held up by a known pause, so each part of an iteration's
    # wall time must show its own
    def paused(solve, pause):
        def run(*args, **kwargs):
            time.sleep(pause)
            return solve(*args, **kwargs)
        return run

    monkeypatch.setattr(ccg_module, "solve_master", paused(ccg_module.solve_master, 0.02))
    monkeypatch.setattr(
        ccg_module, "solve_subproblem", paused(ccg_module.solve_subproblem, 0.04)
    )
    _, trace = run_ccg(three_region_hydro(), UncertaintyBudget(1, 1), backend=SCIPY)
    for it in trace.iterations:
        assert it.master_s >= 0.02 and it.worst_s >= 0.04
        assert it.master_s + it.worst_s <= it.seconds


# --- the seeded start ----------------------------------------------------------------

TOYS = [single_node, two_region, two_period_battery, three_region_hydro, symmetric_pair]


def test_memory_starts_from_the_cover():
    # master block s<k> is seed k, then the cut of iteration k - len(seeds)
    inst = three_region_hydro()
    budget = UncertaintyBudget(0, 1)
    sol, trace = run_ccg(inst, budget, backend=SCIPY)
    assert trace.converged
    assert trace.seeds == cover(inst, budget) and len(trace.seeds) == 2
    assert len(sol.realizations) == len(trace.seeds) + len(trace.iterations) - 1
    assert sol.realizations[:len(trace.seeds)] == trace.seeds


def test_members_seeds_and_blocks_are_flag_sets(reference_start):
    # a member of the set is its flags alone; only a search result carries
    # a value, which it cannot lack
    inst = three_region_hydro()
    budget = UncertaintyBudget(1, 1)
    for made in (maximal_sets, enumerate_set, cover):
        assert all(type(m) is frozenset for m in made(inst, budget)), made.__name__
    every = uncertainty.members(uncertainty.instance_flags(inst), budget)
    assert all(type(m) is frozenset for m in every)
    solution, trace = run_ccg(inst, budget, backend=SCIPY)
    assert all(type(m) is frozenset for m in trace.seeds + solution.realizations)
    assert len(solution.realizations) > len(trace.seeds)  # the cuts are flag sets too
    with pytest.raises(TypeError):
        WorstCaseRealization(frozenset())


@pytest.mark.parametrize("gamma", [0, 1, 2])
@pytest.mark.parametrize("make", TOYS, ids=lambda make: make.__name__)
def test_cover_start_keeps_the_objective(make, gamma, monkeypatch):
    # every seed is a member, so the answer cannot depend on the start
    inst = make()
    budget = UncertaintyBudget(gamma, gamma)
    seeded, seeded_trace = run_ccg(inst, budget, backend=SCIPY)
    monkeypatch.setattr(
        ccg_module, "cover", lambda inst, budget: [frozenset()]
    )
    plain, plain_trace = run_ccg(inst, budget, backend=SCIPY)
    assert seeded_trace.converged and plain_trace.converged
    assert len(seeded_trace.iterations) <= len(plain_trace.iterations)
    assert seeded.objective == pytest.approx(plain.objective, rel=1e-9)


# --- completed cuts ----------------------------------------------------------------

def sparse_capacities(inst, rng):
    """Random capacities where about half the units have none, so the
    worst-case search lacks binaries for their flags."""
    line_limit = {l.id: l.expansion_limit for l in inst.lines}
    return {
        (kind, eid): 0.0 if rng.random() < 0.5
        else rng.uniform(0.0, line_limit[eid] if kind == "line" else 10.0)
        for kind, eid in capacity_keys(inst)
    }


TOYS = [single_node, two_region, two_period_battery, three_region_hydro, symmetric_pair]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("gamma", [0, 1, 2])
@pytest.mark.parametrize("make", TOYS, ids=lambda make: make.__name__)
def test_completed_cut_is_still_a_worst_case(make, gamma, seed):
    inst = make()
    budget = UncertaintyBudget(gamma, gamma).clamp(len(inst.regions))
    caps = sparse_capacities(inst, random.Random(seed))
    worst = solve_subproblem(build_subproblem(inst, caps, budget), SCIPY)
    cut = complete(inst, worst.flags, budget)
    assert worst.flags <= cut
    [cost] = dispatch_cost(inst, caps, [cut], SCIPY)
    assert cost == pytest.approx(worst.dual_objective, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize(
    "make, gamma",
    [
        (lambda: load_instance(TOY6), 6),
        (two_region, 2),
    ],
    ids=["toy6", "two_region"],
)
def test_full_budget_converges_in_one(make, gamma):
    # the one seed flags every live (tech, region, period), which dominates
    # every member, so the first iteration's exact worst case closes the gap
    _, trace = run_ccg(make(), UncertaintyBudget(gamma, gamma), backend=SCIPY)
    assert trace.converged
    assert len(trace.seeds) == 1
    assert len(trace.iterations) == 1


# --- pricing where the budget leaves no choice -----------------------------------

def counting_milps(monkeypatch):
    """A scipy backend, and the list its solve_milp appends to per call."""
    backend, calls = ScipyBackend(), []
    solve_milp = backend.solve_milp

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_milp(*args, **kwargs)

    monkeypatch.setattr(backend, "solve_milp", counted)
    return backend, calls


@pytest.mark.parametrize(
    "make, gamma",
    [
        (lambda: load_instance(TOY6), 6),
        (lambda: load_instance(TOY6), 0),
        (two_region, 2),
    ],
    ids=["toy6-full", "toy6-zero", "two_region-full"],
)
def test_budget_without_a_choice_prices_instead_of_searching(make, gamma, monkeypatch):
    inst = make()
    budget = UncertaintyBudget(gamma, gamma)
    backend, calls = counting_milps(monkeypatch)
    solution, trace = run_ccg(inst, budget, backend=backend)
    assert calls == []
    assert trace.converged and len(trace.iterations) == 1
    worst = trace.iterations[0].realization
    assert worst.exact and worst.milp_nodes is None
    maximal = maximal_sets(inst, budget)
    optimum = robust_optimum_by_enumeration(inst, budget, SCIPY, members=maximal)
    assert solution.objective == pytest.approx(optimum, rel=1e-9)
    # certify's worst-case search prices the one member too
    report = certify_run(inst, budget, (solution, trace), backend)
    assert [check.passed for check in report.checks] == [True, True, True]
    assert calls == []


class SpyBackend(ScipyBackend):
    """A scipy backend that records the name of each solve method called."""

    def __init__(self):
        self.calls = []

    def solve_lp(self, *args, **kwargs):
        self.calls.append("solve_lp")
        return super().solve_lp(*args, **kwargs)

    def solve_lps(self, *args, **kwargs):
        self.calls.append("solve_lps")
        return super().solve_lps(*args, **kwargs)

    def solve_milp(self, *args, **kwargs):
        self.calls.append("solve_milp")
        return super().solve_milp(*args, **kwargs)


@pytest.mark.parametrize("full", [False, True], ids=["zero", "full"])
@pytest.mark.parametrize(
    "make",
    [lambda: load_instance(TOY6), toy6_priced, two_period_battery, toy6_with_pumped_hydro],
    ids=["toy6", "toy6_priced", "two_period_battery", "toy6_with_pumped_hydro"],
)
def test_budget_without_a_choice_takes_the_worst_case_from_the_master(make, full):
    # the one seed is the one maximal member, so the first master holds its
    # value: the run solves that master and nothing else
    inst = make()
    gamma = len(inst.regions) if full else 0
    spy = SpyBackend()
    solution, trace = run_ccg(inst, UncertaintyBudget(gamma, gamma), backend=spy)
    assert spy.calls == ["solve_lp"]
    assert trace.converged
    [it] = trace.iterations
    worst = it.realization
    assert worst.exact and worst.milps == 0 and worst.milp_nodes is None
    assert worst.dual_objective == solution.recourse_bound
    [cost] = dispatch_cost(inst, solution.capacities, [worst.flags], SCIPY)
    assert worst.dual_objective == pytest.approx(cost, rel=1e-12)


def one_technology_per_region():
    """two_region with load at both nodes, no line, half deviation, and a
    unit of each technology in each region, but pv buildable in RA alone
    and wind in RB alone. At gamma (1, 1) the cover's two seeds flag one
    region each, while the plan builds pv_a and w_b: the one maximal
    member over the live flags is pv in RA and wind in RB, and each seed
    holds only half of it."""
    inst = two_region()
    pv_a, w_b = (
        dataclasses.replace(unit, cf=CapacityFactorBundle(ref, tuple(c / 2 for c in ref)))
        for unit in inst.renewables
        for ref in [unit.cf.reference]
    )
    return inst.replace(
        renewables=(
            pv_a,
            w_b,
            dataclasses.replace(pv_a, id="pv_b", node="n2", region="RB", expansion_limit=0.0),
            dataclasses.replace(w_b, id="w_a", node="n1", region="RA", expansion_limit=0.0),
        ),
        demand=DemandSeries(by_node={"n1": (10.0, 10.0), "n2": (10.0, 10.0)}),
        lines=(dataclasses.replace(inst.lines[0], existing_cap=0.0, expansion_limit=0.0),),
    )


def test_member_no_block_holds_is_priced():
    inst = one_technology_per_region()
    budget = UncertaintyBudget(1, 1)
    spy = SpyBackend()
    solution, trace = run_ccg(inst, budget, backend=spy)
    member = frozenset({("pv", "RA", "p1"), ("wind", "RB", "p1")})
    live = frozenset(build_subproblem(inst, solution.capacities, budget).z)
    assert live == member
    # every seed's live flags are a proper subset of the member's
    assert [seed & live < member for seed in trace.seeds] == [True, True]
    assert spy.calls == ["solve_lp", "solve_lps"]  # the master, then the member's LP
    assert trace.converged
    [it] = trace.iterations
    assert it.realization.flags == member and it.realization.exact


@pytest.mark.parametrize("gamma", [6, 0], ids=["full", "zero"])
def test_solve_subproblem_reads_the_held_member_off_the_master(gamma):
    # the budget leaves one maximal member, and the cover's first master
    # holds it: given that master the search solves nothing
    inst = load_instance(TOY6)
    budget = UncertaintyBudget(gamma, gamma)
    solution = solve_master(build_master(inst, cover(inst, budget)), SCIPY)
    build = build_subproblem(inst, solution.capacities, budget)
    spy = SpyBackend()
    held = solve_subproblem(build, spy, master=solution)
    assert held.held and held.exact and held.milps == 0
    assert held.dual_objective == solution.recourse_bound
    assert spy.calls == []
    # without the master the same search prices the member
    priced = solve_subproblem(build, spy)
    assert spy.calls == ["solve_lps"]
    assert not priced.held and priced.exact
    assert priced.flags == held.flags
    eta = solution.recourse_bound
    assert priced.dual_objective == pytest.approx(eta, rel=0, abs=1e-9 * max(1.0, abs(eta)))


def test_solve_subproblem_rejects_a_master_at_other_capacities():
    inst = load_instance(TOY6)
    budget = UncertaintyBudget(6, 6)
    solution = solve_master(build_master(inst, cover(inst, budget)), SCIPY)
    other = {key: value + 1.0 for key, value in solution.capacities.items()}
    spy = SpyBackend()
    with pytest.raises(ValueError, match="capacities"):
        solve_subproblem(build_subproblem(inst, other, budget), spy, master=solution)
    assert spy.calls == []


@pytest.mark.parametrize("full", [False, True], ids=["zero", "full"])
@pytest.mark.parametrize(
    "make",
    [
        single_node, two_region, two_period_battery, three_region_hydro, symmetric_pair,
        lambda: load_instance(TOY6), toy6_priced, toy6_with_pumped_hydro,
    ],
    ids=[
        "single_node", "two_region", "two_period_battery", "three_region_hydro",
        "symmetric_pair", "toy6", "toy6_priced", "toy6_with_pumped_hydro",
    ],
)
def test_held_value_equals_the_priced_one(make, full):
    # at both ends of the ladder the first master holds the one maximal
    # member, and the value it holds is the one a dispatch LP prices
    inst = make()
    gamma = len(inst.regions) if full else 0
    budget = UncertaintyBudget(gamma, gamma)
    solution = solve_master(build_master(inst, cover(inst, budget)), SCIPY)
    build = build_subproblem(inst, solution.capacities, budget)
    held = solve_subproblem(build, SCIPY, master=solution)
    priced = solve_subproblem(build, SCIPY)
    assert held.held and not priced.held
    assert held.flags == priced.flags
    eta = solution.recourse_bound
    assert priced.dual_objective == pytest.approx(eta, rel=0, abs=1e-9 * max(1.0, abs(eta)))


def test_iteration_log_names_the_held_route(caplog):
    # full budget reads the worst case off the master; at gamma (1, 0) the
    # search prices its period windows
    toy6 = load_instance(TOY6)
    with caplog.at_level(logging.INFO, logger="robustgrid.ccg"):
        run_ccg(toy6, UncertaintyBudget(6, 6), backend=SCIPY)
        run_ccg(toy6, UncertaintyBudget(1, 0), backend=SCIPY)
    routes = [re.search(r", (\w+) worst case ", r.getMessage())[1] for r in caplog.records]
    assert routes == ["held", "exact"]


def test_few_members_per_window_price_every_iteration(monkeypatch):
    # toy6 builds pv alone, so a window at gamma (1, 1) has at most six
    # maximal members: every split search prices them instead of its MILPs
    inst = load_instance(TOY6)
    budget = UncertaintyBudget(1, 1)
    backend, calls = counting_milps(monkeypatch)
    solution, trace = run_ccg(inst, budget, backend=backend)
    assert calls == []
    assert trace.converged
    assert all(it.realization.exact for it in trace.iterations)
    assert [it.realization.milps for it in trace.iterations] == [0] * len(trace.iterations)
    assert all(it.realization.milp_nodes is None for it in trace.iterations)
    optimum = robust_optimum_by_enumeration(inst, budget, SCIPY)
    assert solution.objective == pytest.approx(optimum, rel=1e-9)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("full", [False, True], ids=["zero", "full"])
@pytest.mark.parametrize("make", TOYS, ids=lambda make: make.__name__)
def test_priced_worst_case_equals_the_search(make, full, seed):
    inst = make()
    gamma = len(inst.regions) if full else 0
    budget = UncertaintyBudget(gamma, gamma)
    caps = sparse_capacities(inst, random.Random(seed))
    build = build_subproblem(inst, caps, budget)
    assert list(build.z) == sorted(build.z)  # the flags with a binary
    priced = solve_subproblem(build, SCIPY)
    assert priced.milps == 0 and build.windows == []
    searched = subproblem._search(build, SCIPY, gap_tol=1e-9)  # the MILP
    assert priced.dual_objective == pytest.approx(
        searched.dual_objective, rel=1e-6, abs=1e-6
    )
    check_flags(inst, priced.flags, budget)


def drawn_plan(inst, monkeypatch):
    """Make every master of a run return drawn capacities that store no
    energy and build pv and wind in all six of toy6's regions: more maximal
    members per period window than any plan toy6 builds itself."""
    caps = draw_capacities(inst, 0)
    solve = ccg_module.solve_master
    monkeypatch.setattr(
        ccg_module, "solve_master",
        lambda build, backend: dataclasses.replace(solve(build, backend), capacities=caps),
    )
    return inst


@pytest.mark.parametrize(
    "make, budget, milps",
    [
        (lambda mp: symmetric_pair(), UncertaintyBudget(1, 0), 1),
        (lambda mp: three_region_hydro(), UncertaintyBudget(1, 1), 1),
        # two periods and no stored energy, but C(6, 2) ** 2 = 225 maximal
        # members in each window: one MILP per period window
        (lambda mp: drawn_plan(load_instance(TOY6), mp), UncertaintyBudget(2, 2), 2),
    ],
    ids=["symmetric_pair", "three_region_hydro", "toy6_drawn"],
)
def test_budget_with_a_choice_still_searches(make, budget, milps, monkeypatch):
    inst = make(monkeypatch)
    backend, calls = counting_milps(monkeypatch)
    _, trace = run_ccg(inst, budget, CcgConfig(max_iterations=1), backend)
    assert len(calls) == milps
    assert trace.iterations[0].realization.milps == milps
    assert trace.iterations[0].realization.milp_nodes is not None


# --- failure modes ---------------------------------------------------------------

def test_iteration_limit_flagged(reference_start, caplog):
    inst = single_node()
    config = CcgConfig(max_iterations=1)
    with caplog.at_level(logging.WARNING, logger="robustgrid.ccg"):
        sol, trace = run_ccg(inst, UncertaintyBudget(1, 0), config, SCIPY)
    assert not trace.converged
    assert not trace.stalled
    assert "limit" in trace.message
    assert [r.getMessage() for r in caplog.records] == [f"gamma (1, 0): {trace.message}"]
    assert len(trace.iterations) == 1
    assert sol is not None


def test_duplicate_with_open_gap_stalls(monkeypatch, reference_start, caplog):
    # a worst case re-identified while the gap is open must stop the loop
    inst = load_instance(TOY6)
    flags = frozenset({("pv", "R1", "p1")})

    def fake_solve(build, backend, gap_tol=1e-9, target=None, master=None):
        return WorstCaseRealization(flags=flags, dual_objective=9.9e9)

    monkeypatch.setattr(ccg_module, "solve_subproblem", fake_solve)
    with caplog.at_level(logging.WARNING, logger="robustgrid.ccg"):
        sol, trace = run_ccg(inst, UncertaintyBudget(1, 0), backend=SCIPY)
    assert trace.stalled
    assert not trace.converged
    assert "stall" in trace.message
    assert [r.getMessage() for r in caplog.records] == [f"gamma (1, 0): {trace.message}"]
    assert len(trace.iterations) == 2


def test_converged_gap_within_tolerance(monkeypatch):
    # bounds below 1 in magnitude: the gap the loop stops on and the gap it
    # reports must be scaled alike, or a converged run reports 5e-8 > 1e-8
    inst = symmetric_pair()
    upper = 0.05 + 5e-9

    def fake_master(build, backend):
        solution = solve_master(build, backend)
        return dataclasses.replace(solution, objective=0.1, investment_cost=0.05)

    def fake_solve(build, backend, gap_tol=1e-9, target=None, master=None):
        return WorstCaseRealization(flags=frozenset(), dual_objective=upper)

    monkeypatch.setattr(ccg_module, "solve_master", fake_master)
    monkeypatch.setattr(ccg_module, "solve_subproblem", fake_solve)
    config = CcgConfig(tolerance=1e-8)
    _, trace = run_ccg(inst, UncertaintyBudget(1, 0), config, SCIPY)
    assert trace.converged
    assert len(trace.iterations) == 1
    assert trace.final_gap <= config.tolerance


def test_early_stop_neither_stops_nor_lowers_the_upper_bound(monkeypatch, reference_start):
    # an early stop's value is only a lower bound on the worst case: even one
    # that would close the gap must not end the loop or enter the running UB
    inst = load_instance(TOY6)
    results = iter([
        WorstCaseRealization(frozenset({("wind", "R2", "p1")}), dual_objective=1.0),
        WorstCaseRealization(
            frozenset({("wind", "R3", "p1")}), dual_objective=0.05, exact=False
        ),
        WorstCaseRealization(frozenset(), dual_objective=0.05),
    ])
    targets = []

    def fake_master(build, backend):
        solution = solve_master(build, backend)
        return dataclasses.replace(solution, objective=0.1, investment_cost=0.05)

    def fake_solve(build, backend, gap_tol=1e-9, target=None, master=None):
        targets.append(target)
        return next(results)

    monkeypatch.setattr(ccg_module, "solve_master", fake_master)
    monkeypatch.setattr(ccg_module, "solve_subproblem", fake_solve)
    _, trace = run_ccg(inst, UncertaintyBudget(1, 1), backend=SCIPY)
    assert trace.converged and not trace.stalled
    assert [it.realization.exact for it in trace.iterations] == [True, False, True]
    assert [it.upper_bound for it in trace.iterations] == pytest.approx([1.05, 1.05, 0.1])
    assert trace.iterations[1].gap == pytest.approx(0.95 / 1.05)
    assert all(t is not None for t in targets)


def test_first_iterations_before_an_exact_search_have_infinite_bounds():
    # toy6 with pumped hydro at gamma 2 stops its first search early, so an
    # iteration limit of one leaves no exact search: UB and gap are inf, not
    # inf/inf = NaN
    inst = toy6_with_pumped_hydro()
    config = CcgConfig(max_iterations=1)
    _, trace = run_ccg(inst, UncertaintyBudget(2, 2), config, SCIPY)
    (it,) = trace.iterations
    assert not it.realization.exact and not trace.converged
    assert it.upper_bound == math.inf and it.gap == math.inf
    assert trace.final_gap == math.inf
    assert "inf" in trace.message


def test_backend_error_carries_iteration_context(reference_start):
    # the first two iterations price; the third searches, and its worst case
    # keeps shedding, so an M of 1 clips it
    inst = symmetric_pair(annualized_cost=1000.0)
    config = CcgConfig(big_m=1.0)  # saturates the linearization on purpose
    with pytest.raises(BackendError, match="iteration 2"):
        run_ccg(inst, UncertaintyBudget(1, 0), config, SCIPY)


def test_config_validation():
    with pytest.raises(ValueError, match="tolerance"):
        CcgConfig(tolerance=0.0)
    with pytest.raises(ValueError, match="max_iterations"):
        CcgConfig(max_iterations=0)
    with pytest.raises(ValueError, match="big_m"):
        CcgConfig(big_m=-5.0)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: UncertaintyBudget(True, 0), "gamma_pv"),
        (lambda: UncertaintyBudget(0, 2.0), "gamma_wind"),
        (lambda: CcgConfig(max_iterations=2.5), "max_iterations"),
        (lambda: CcgConfig(max_iterations=True), "max_iterations"),
        (lambda: check_gammas([False, True]), "gammas"),
        (lambda: check_gammas([0, 1.5]), "gammas"),
    ],
    ids=["budget-bool", "budget-float", "iterations-float", "iterations-bool",
         "gammas-bool", "gammas-float"],
)
def test_integer_counts_reject_bools_and_fractions(make, field):
    # a bool is an int to Python, and 2.5 iterations only failed inside range()
    with pytest.raises(ValueError, match=field):
        make()


def test_budget_clamp_warns(caplog):
    inst = single_node()
    with caplog.at_level(logging.WARNING):
        _, trace = run_ccg(inst, UncertaintyBudget(5, 0), backend=SCIPY)
    assert any("clamp" in r.message for r in caplog.records)
    assert trace.converged


# --- gamma ladder -----------------------------------------------------------------

def _usable_cpus(monkeypatch, count):
    """The ladder sizes its worker pool from the CPUs this process may use."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


# 1 usable CPU runs the rungs in-process, 2 in forked workers
PATHS = pytest.mark.parametrize("cpus", [1, 2], ids=["in_process", "forked"])


def test_ladder_monotone_objectives():
    inst = two_region()
    entries = run_gamma_ladder(inst, [0, 1, 2], backend=SCIPY)
    assert [e.gamma for e in entries] == [0, 1, 2]
    assert all(e.error is None and e.trace.converged for e in entries)
    objs = [e.solution.objective for e in entries]
    for a, b in zip(objs, objs[1:]):
        assert b >= a - 1e-6 * max(1.0, abs(a))
    # a budget of zero is the deterministic plan
    deterministic = solve_master(build_master(inst, [REF]), SCIPY)
    assert objs[0] == pytest.approx(deterministic.objective, rel=1e-8)


def test_ladder_clamps_oversized_budgets(monkeypatch, caplog):
    _usable_cpus(monkeypatch, 1)  # in-process, where caplog sees the rungs
    inst = two_region()
    with caplog.at_level(logging.WARNING, logger="robustgrid.uncertainty"):
        entries = run_gamma_ladder(inst, [2, 7], backend=SCIPY)
    # the oversized rung warns once, not once more inside run_ccg
    assert ["clamp" in r.getMessage() for r in caplog.records] == [True]
    assert entries[0].budget == entries[1].budget
    assert entries[1].solution.objective == pytest.approx(
        entries[0].solution.objective, rel=1e-8
    )


def test_ladder_collects_errors_and_continues(reference_start, monkeypatch):
    _usable_cpus(monkeypatch, 2)  # the failing rung runs in a worker
    inst = symmetric_pair(annualized_cost=1000.0)
    config = CcgConfig(big_m=1.0)
    entries = run_gamma_ladder(inst, [0, 1], config, SCIPY)
    assert entries[0].error is None and entries[0].trace.converged
    assert entries[1].error is not None and "big_m" in entries[1].error
    assert entries[1].solution is None


def test_iteration_log_lines_name_their_budget(caplog):
    # parallel ladder rungs interleave their log lines, so each names its rung
    inst = three_region_hydro()
    with caplog.at_level(logging.INFO, logger="robustgrid.ccg"):
        _, trace = run_ccg(inst, UncertaintyBudget(2, 1), backend=SCIPY)
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == len(trace.iterations)
    for k, line in enumerate(lines):
        assert line.startswith(f"gamma (2, 1) iteration {k}: LB ")


def test_a_pickled_run_leaves_its_bases_behind():
    # a ladder entry crosses the fork pickled, and HiGHS's basis cannot be
    solution, trace = run_ccg(three_region_hydro(), UncertaintyBudget(1, 1), backend=SCIPY)
    assert solution.basis is not None
    back, back_trace = pickle.loads(pickle.dumps((solution, trace)))
    assert back.basis is None
    assert back.objective == solution.objective
    assert back.capacities == solution.capacities
    assert back.binding == solution.binding
    assert back.dispatch.tobytes() == solution.dispatch.tobytes()
    assert [it.lower_bound for it in back_trace.iterations] == [
        it.lower_bound for it in trace.iterations
    ]
    assert back_trace.seeds == trace.seeds and back_trace.converged
    assert solution.basis is not None  # kept here


@pytest.fixture(scope="module")
def toy6_runs():
    inst = load_instance(TOY6)
    return inst, [run_ccg(inst, UncertaintyBudget(g, g), backend=SCIPY) for g in range(4)]


@PATHS
def test_ladder_equals_in_process_runs_bit_for_bit(toy6_runs, monkeypatch, cpus):
    inst, runs = toy6_runs
    _usable_cpus(monkeypatch, cpus)
    entries = run_gamma_ladder(inst, [0, 1, 2, 3], backend=SCIPY)
    assert multiprocessing.active_children() == []
    assert [e.gamma for e in entries] == [0, 1, 2, 3]
    for entry, (solution, trace) in zip(entries, runs):
        assert entry.error is None
        assert entry.solution.objective == solution.objective
        assert entry.solution.capacities == solution.capacities
        assert len(entry.trace.iterations) == len(trace.iterations)
        assert [sorted(s) for s in entry.trace.seeds] == [sorted(s) for s in trace.seeds]


def test_ladder_rungs_run_in_forked_workers(monkeypatch):
    # each rung reports the process it ran in: never this one, at most one
    # per usable CPU
    _usable_cpus(monkeypatch, 2)

    def where(inst, budget, config=None, backend=None):
        return None, CcgTrace(message=str(os.getpid()))

    monkeypatch.setattr(ccg_module, "run_ccg", where)
    entries = run_gamma_ladder(single_node(), [0, 1, 2], backend=SCIPY)
    pids = {int(e.trace.message) for e in entries}
    assert os.getpid() not in pids
    assert 1 <= len(pids) <= 2
    assert multiprocessing.active_children() == []


def test_ladder_runs_in_process_on_one_cpu(monkeypatch):
    _usable_cpus(monkeypatch, 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-CPU ladder must not start a pool")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    entries = run_gamma_ladder(two_region(), [0, 1], backend=SCIPY)
    assert all(e.error is None and e.trace.converged for e in entries)


@PATHS
def test_ladder_passes_other_errors_through(monkeypatch, cpus):
    # only a BackendError is a recorded rung; the pool is gone either way
    _usable_cpus(monkeypatch, cpus)
    real = ccg_module.run_ccg

    def failing(inst, budget, config=None, backend=None):
        if budget.gamma_pv == 1:
            raise ValueError("rung 1 is broken")
        return real(inst, budget, config, backend)

    monkeypatch.setattr(ccg_module, "run_ccg", failing)
    with pytest.raises(ValueError, match="rung 1 is broken"):
        run_gamma_ladder(two_region(), [0, 1, 2], backend=SCIPY)
    assert multiprocessing.active_children() == []


@PATHS
def test_ladder_rejects_repeated_gamma(monkeypatch, cpus):
    # [1, 1] once solved the same rung twice; now it fails before any rung runs
    _usable_cpus(monkeypatch, cpus)
    rungs = []
    monkeypatch.setattr(ccg_module, "_run_rung", lambda gamma, *rest: rungs.append(gamma))
    with pytest.raises(ValueError, match="sorted strictly ascending"):
        run_gamma_ladder(two_region(), [1, 1], backend=SCIPY)
    assert rungs == []
    assert multiprocessing.active_children() == []


def test_run_ccg_rejects_invalid_instance():
    # validate rejects it; unchecked, CCG converged on the merged periods
    with pytest.raises(ValueError, match=r"1 invariant\(s\): p1: duplicate_id"):
        run_ccg(two_region_repeated_period(), UncertaintyBudget(1, 1), backend=SCIPY)


@PATHS
def test_ladder_rejects_invalid_instance_before_any_rung(monkeypatch, cpus):
    _usable_cpus(monkeypatch, cpus)
    rungs = []
    monkeypatch.setattr(ccg_module, "_run_rung", lambda gamma, *rest: rungs.append(gamma))
    with pytest.raises(ValueError, match="duplicate_id"):
        run_gamma_ladder(two_region_repeated_period(), [0, 1], backend=SCIPY)
    assert rungs == []
    assert multiprocessing.active_children() == []


def test_ladder_rejects_unsorted():
    inst = single_node()
    # a repeated rung would solve and write the same budget twice
    for gammas in ([2, 1], [1, 1], []):
        with pytest.raises(ValueError, match="sorted strictly ascending"):
            run_gamma_ladder(inst, gammas, backend=SCIPY)
    with pytest.raises(ValueError, match="nonnegative"):
        run_gamma_ladder(inst, [-1, 0], backend=SCIPY)


def test_trace_properties():
    trace = CcgTrace()
    trace.iterations = []
    with pytest.raises(IndexError):
        _ = trace.final_gap
