"""The worst-case search split by period, and the capacity snap it relies on."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from robustgrid.backend import SolveResult, ScipyBackend
from robustgrid.ccg import CcgConfig, run_ccg
from robustgrid.io import load_instance
from robustgrid.master import (
    CAPACITY_SNAP,
    build_master,
    dispatch_cost,
    dispatch_template,
    solve_master,
)
from robustgrid.model import Period, tech_class, validate
import robustgrid.subproblem as subproblem
from robustgrid.subproblem import (
    WINDOW_ENUMERATION_LIMIT,
    build_subproblem,
    period_windows,
    solve_subproblem,
)
from robustgrid.uncertainty import (
    UncertaintyBudget,
    check_flags,
    maximal_sets,
    member_count,
    members,
    summary,
)

from toys import (
    draw_capacities,
    three_region_hydro,
    toy6_with_pumped_hydro,
    two_period_battery,
)

SCIPY = ScipyBackend()
TOY6 = Path(__file__).parent / "fixtures" / "toy6.json"


def toy6():
    return load_instance(TOY6)


def hydro_windows():
    """three_region_hydro without its pumped storage, over two periods with
    a step outside both before the first and another between them, and
    every per-step series uneven, so a series the window slicer missed
    moves a window's dispatch cost."""
    inst = three_region_hydro(steps=6)
    wave = (0.9, 0.2, 0.7, 0.4, 1.0, 0.3)
    rens = tuple(
        dataclasses.replace(
            r,
            cf=dataclasses.replace(
                r.cf,
                reference=tuple(v * w for v, w in zip(r.cf.reference, wave)),
                deviation=tuple(v * w for v, w in zip(r.cf.deviation, wave)),
            ),
        )
        for r in inst.renewables
    )
    hydros = tuple(
        dataclasses.replace(h, availability=tuple(reversed(wave)))
        for h in inst.hydros
        if h.kind != "psp"
    )
    demand = dataclasses.replace(
        inst.demand,
        by_node={
            node: tuple(v * (1.5 - w) for v, w in zip(series, wave))
            for node, series in inst.demand.by_node.items()
        },
    )
    timegrid = dataclasses.replace(
        inst.timegrid, periods=(Period("p2", 4, 5), Period("p1", 1, 2))
    )
    return inst.replace(renewables=rens, hydros=hydros, demand=demand, timegrid=timegrid)


def counting_milps(monkeypatch):
    """A scipy backend, and the list its solve_milp appends each call's
    keyword arguments to."""
    backend, calls = ScipyBackend(), []
    solve_milp = backend.solve_milp

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return solve_milp(*args, **kwargs)

    monkeypatch.setattr(backend, "solve_milp", counted)
    return backend, calls


# --- the snap at the capacity handoff ------------------------------------------

class MasterResult:
    """A backend whose solve_lp returns the master solution it was given,
    with every row's dual 0."""

    def __init__(self, x):
        self.x = x

    def solve_lp(self, model, start=None):
        return SolveResult("optimal", objective=0.0, x=self.x, duals=np.zeros(model.n_rows))


def test_master_noise_snaps_to_zero_at_the_handoff():
    inst = toy6()
    build = build_master(inst, [frozenset()])
    column = dispatch_template(inst).keys.index
    x = np.zeros(build.model.n_vars)
    x[column(("h2_stor", "h2_2"))] = 4.7e-13  # what HiGHS left on the benchmark ladder
    x[column(("ren", "pv_1"))] = 1e-13
    x[column(("ren", "pv_2"))] = -1e-12
    x[column(("ren", "w_1"))] = CAPACITY_SNAP
    x[column(("ren", "w_2"))] = 2 * CAPACITY_SNAP
    x[column(("ren", "pv_3"))] = 5.0
    caps = solve_master(build, MasterResult(x)).capacities
    assert caps["h2_stor", "h2_2"] == 0.0
    assert caps["ren", "pv_1"] == 0.0
    assert caps["ren", "pv_2"] == 0.0
    assert caps["ren", "w_1"] == 0.0
    assert caps["ren", "w_2"] == 2 * CAPACITY_SNAP
    assert caps["ren", "pv_3"] == 5.0

    unit = {r.id: r for r in inst.renewables}

    def flags_of(uid):
        r = unit[uid]
        return {(tech_class(r.technology), r.region, p.id) for p in inst.timegrid.periods}

    sub = build_subproblem(inst, caps, UncertaintyBudget(1, 1))
    assert set(sub.z) == flags_of("pv_3") | flags_of("w_2")
    assert list(sub.z) == sorted(sub.z)
    # no energy left in the tank, so a search with a choice would split by
    # period; this one has none (one live flag per technology), so it is
    # priced whole
    tpl = dispatch_template(inst)
    assert not tpl.stores_energy(tpl.cap_array(caps))
    assert sub.windows == []


# --- the windows -----------------------------------------------------------------

def test_windows_cover_the_horizon_in_time_order():
    inst = hydro_windows()
    windows = period_windows(inst)
    assert period_windows(inst) is windows  # kept on the instance
    # p1 holds steps 1..2 and p2 steps 4..5, declared in reverse: step 0
    # joins the first window, and step 3 the earlier of the two around it
    assert [w.timegrid.step_count for w in windows] == [4, 2]
    assert [w.timegrid.periods for w in windows] == [
        (Period("p1", 1, 2),), (Period("p2", 0, 1),)
    ]
    for w, cut in zip(windows, (slice(0, 4), slice(4, 6))):
        assert w.demand.by_node == {n: s[cut] for n, s in inst.demand.by_node.items()}
        for r, full in zip(w.renewables, inst.renewables):
            assert r.cf.reference == full.cf.reference[cut]
            assert r.cf.deviation == full.cf.deviation[cut]
        for h, full in zip(w.hydros, inst.hydros):
            assert h.availability == full.availability[cut]


@pytest.mark.parametrize(
    "make", [toy6, two_period_battery, hydro_windows, three_region_hydro],
    ids=["toy6", "two_period_battery", "hydro_windows", "three_region_hydro"],
)
def test_every_window_validates(make):
    inst = make()
    windows = period_windows(inst)
    assert len(windows) == len(inst.timegrid.periods)
    assert sum(w.timegrid.step_count for w in windows) == inst.timegrid.step_count
    for w in windows:
        assert validate(w) == []


# --- the split search against the whole-horizon MILP -------------------------------

SPLIT_CASES = [
    (make, gamma, seed)
    for make, regions in ((toy6, 6), (two_period_battery, 2), (hydro_windows, 3))
    for gamma in range(1, regions + 1)
    for seed in (0, 1)
]


@pytest.mark.parametrize(
    "make, gamma, seed", SPLIT_CASES,
    ids=[f"{m.__name__}-gamma{g}-seed{s}" for m, g, s in SPLIT_CASES],
)
def test_split_search_equals_the_whole_horizon_search(make, gamma, seed):
    inst = make()
    budget = UncertaintyBudget(gamma, gamma)
    caps = draw_capacities(inst, seed)
    build = build_subproblem(inst, caps, budget)
    # one maximal member over the whole horizon is priced whole, unsplit
    whole_priced = member_count(build.z, budget) == 1
    assert len(build.windows) == (0 if whole_priced else 2)
    split = solve_subproblem(build, SCIPY)
    whole = subproblem._search(build, SCIPY, gap_tol=1e-9)  # the whole-horizon MILP
    # one MILP per window with too many maximal members to price
    milps = sum(member_count(w.z, budget) > WINDOW_ENUMERATION_LIMIT for w in build.windows)
    assert split.exact and split.milps == milps and whole.milps == 1
    assert split.dual_objective == pytest.approx(whole.dual_objective, rel=1e-6, abs=1e-6)
    check_flags(inst, split.flags, budget)
    [cost] = dispatch_cost(inst, caps, [split.flags], SCIPY)
    assert cost == pytest.approx(split.dual_objective, rel=1e-6, abs=1e-6)


# --- a window with few maximal members is priced, not searched ---------------------

PRICED_CASES = [
    (make, gamma, seed)
    for make, regions in ((toy6, 6), (hydro_windows, 3))
    for gamma in range(1, regions + 1)
    for seed in (0, 1)
]


@pytest.mark.parametrize(
    "make, gamma, seed", PRICED_CASES,
    ids=[f"{m.__name__}-gamma{g}-seed{s}" for m, g, s in PRICED_CASES],
)
def test_priced_window_equals_its_milp(make, gamma, seed):
    inst = make()
    budget = UncertaintyBudget(gamma, gamma)
    caps = draw_capacities(inst, seed)
    build = build_subproblem(inst, caps, budget)
    # a build of one maximal member is priced whole, so it has no windows
    # of its own; its windows' builds are priced the same way all the same
    windows = build.windows or [build_subproblem(w, caps, budget) for w in period_windows(inst)]
    assert len(windows) == 2
    for window in windows:
        # priced however many members it has
        priced = subproblem._price_or_search(window, math.inf, SCIPY, gap_tol=1e-9)
        searched = subproblem._search(window, SCIPY, gap_tol=1e-9)  # its MILP
        assert searched.milps == 1
        assert priced.exact and priced.milps == 0 and priced.milp_nodes is None
        assert priced.dual_objective == pytest.approx(searched.dual_objective, rel=1e-6, abs=1e-6)
        check_flags(window.instance, priced.flags, budget)
        # the costliest member, and of several equally costly ones the one
        # whose sorted flags come first
        candidates = members(window.z, budget)
        costs = dispatch_cost(
            window.instance, caps, candidates, SCIPY,
        )
        top = max(costs)
        assert priced.dual_objective == top
        assert sorted(priced.flags) == min(sorted(m) for m, cost in zip(candidates, costs) if cost == top)


def test_window_above_the_limit_solves_one_milp(monkeypatch):
    inst = toy6()
    budget = UncertaintyBudget(2, 2)
    build = build_subproblem(inst, draw_capacities(inst, 0), budget)
    # pv and wind live in all six regions: C(6, 2) ** 2 = 225 members per window
    for window in build.windows:
        assert member_count(window.z, budget) > WINDOW_ENUMERATION_LIMIT
    backend, calls = counting_milps(monkeypatch)
    parts = [solve_subproblem(window, backend) for window in build.windows]
    assert len(calls) == 2 and [part.milps for part in parts] == [1, 1]
    split = solve_subproblem(build, backend)
    assert len(calls) == 4 and split.milps == 2
    assert split.milp_nodes == sum(part.milp_nodes for part in parts)


def test_split_search_prices_every_window_with_few_members(monkeypatch):
    inst = toy6()
    budget = UncertaintyBudget(1, 1)
    build = build_subproblem(inst, draw_capacities(inst, 1), budget)
    backend, calls = counting_milps(monkeypatch)
    priced = solve_subproblem(build, backend, target=math.inf)
    assert calls == []
    assert priced.exact and priced.milps == 0 and priced.milp_nodes is None
    whole = solve_subproblem(dataclasses.replace(build, windows=[]), SCIPY)
    assert priced.dual_objective == pytest.approx(whole.dual_objective, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("gamma", [1, 6], ids=["windows", "full"])
def test_a_priced_search_assembles_no_milp(gamma, monkeypatch):
    # at gamma 1 every window has few maximal members, at full budget the
    # whole horizon has one: no part of either search needs its MILP
    inst = toy6()
    assembled = []
    assemble = subproblem._assemble

    def counted(build):
        assembled.append(build)
        return assemble(build)

    monkeypatch.setattr(subproblem, "_assemble", counted)
    build = build_subproblem(inst, draw_capacities(inst, 1), UncertaintyBudget(gamma, gamma))
    assert len(build.windows) == (2 if gamma == 1 else 0)
    worst = solve_subproblem(build, SCIPY)
    assert worst.exact and worst.milps == 0
    assert assembled == []
    # a MILP is assembled on first use, and once
    assert build.model is build.model
    assert assembled == [build]


# every maximal member at the budgets where they are few enough to price:
# toy6 has 1296 at gamma 1 and 5, and one at 6
MEMBER_CASES = [
    (make, gamma, seed)
    for make, gammas in ((toy6, (1, 5, 6)), (two_period_battery, (1, 2)), (hydro_windows, (1, 2, 3)))
    for gamma in gammas
    for seed in (0, 1)
]


@pytest.mark.parametrize(
    "make, gamma, seed", MEMBER_CASES,
    ids=[f"{m.__name__}-gamma{g}-seed{s}" for m, g, s in MEMBER_CASES],
)
def test_window_costs_sum_to_the_whole_horizon_cost(make, gamma, seed):
    inst = make()
    caps = draw_capacities(inst, seed)
    members = maximal_sets(inst, UncertaintyBudget(gamma, gamma))
    whole = dispatch_cost(inst, caps, members, SCIPY)
    # a window's cost depends only on the flags of its own period
    parts = []
    for w in period_windows(inst):
        [period] = w.timegrid.periods
        own = sorted({frozenset(f for f in m if f[2] == period.id) for m in members}, key=sorted)
        costs = dispatch_cost(w, caps, own, SCIPY)
        parts.append((period.id, dict(zip(own, costs))))
    for m, cost in zip(members, whole):
        total = sum(
            costs[frozenset(f for f in m if f[2] == pid)] for pid, costs in parts
        )
        assert total == pytest.approx(cost, rel=1e-9, abs=1e-6), summary(m)


def test_split_search_stops_early_only_in_its_last_window(monkeypatch):
    inst = toy6()
    budget = UncertaintyBudget(2, 2)
    caps = draw_capacities(inst, 0)
    build = build_subproblem(inst, caps, budget)
    exact = solve_subproblem(build, SCIPY)
    backend, calls = counting_milps(monkeypatch)
    early = solve_subproblem(build, backend, target=0.5 * exact.dual_objective)
    assert [call.get("target") is None for call in calls] == [True, False]
    assert not early.exact and early.milps == 2
    assert early.dual_objective >= 0.5 * exact.dual_objective
    # a lower bound on the dispatch cost at its own flags
    [cost] = dispatch_cost(inst, caps, [early.flags], SCIPY)
    assert early.dual_objective <= cost * (1 + 1e-9) + 1e-9


# --- a plan that stores energy keeps the whole-horizon search ----------------------

STORING = [
    (toy6_with_pumped_hydro, 0.0),
    (two_period_battery, 3.0),
]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "make, energy", STORING, ids=["toy6_pumped_hydro", "two_period_battery_energy"]
)
def test_a_plan_that_stores_energy_searches_the_whole_horizon(make, energy, seed, monkeypatch):
    inst = make()
    budget = UncertaintyBudget(1, 1)
    caps = draw_capacities(inst, seed, energy)
    build = build_subproblem(inst, caps, budget)
    assert build.windows == []
    backend, calls = counting_milps(monkeypatch)
    # the search solve_subproblem runs where the budget leaves a choice;
    # two_period_battery's one region per technology leaves none
    worst = subproblem._search(build, backend, gap_tol=1e-9)
    assert len(calls) == 1 and worst.milps == 1
    # the very MILP the search solves, with nothing split or summed
    res = SCIPY.solve_milp(build.model, gap_tol=1e-9)
    assert worst.dual_objective == res.objective
    assert worst.milp_nodes == res.stats["nodes"]
    assert worst.flags == frozenset(f for f, j in build.z.items() if res.x[j] > 0.5)


@pytest.mark.parametrize("gamma", [1, 2])
def test_ccg_on_pumped_hydro_runs_one_milp_per_search(gamma, monkeypatch):
    # two_period_battery has no case here: one region per technology leaves
    # its adversary no choice at any budget, so CCG prices every iteration
    backend, calls = counting_milps(monkeypatch)
    _, trace = run_ccg(toy6_with_pumped_hydro(), UncertaintyBudget(gamma, gamma), backend=backend)
    assert trace.converged
    assert [it.realization.milps for it in trace.iterations] == [1] * len(trace.iterations)
    assert len(calls) == len(trace.iterations)
