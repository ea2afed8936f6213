"""The worst-case search split by period, and the capacity snap it relies on."""

import dataclasses
import random
from pathlib import Path

import numpy as np
import pytest

from robustgrid.backend import SolveResult, ScipyBackend
from robustgrid.ccg import CcgConfig, run_ccg
from robustgrid.io import load_instance
from robustgrid.master import (
    CAPACITY_SNAP,
    build_master,
    capacity_keys,
    dispatch_cost,
    solve_master,
)
from robustgrid.model import HydroUnit, Period, tech_class, validate
from robustgrid.subproblem import (
    build_subproblem,
    live_flags,
    period_windows,
    solve_subproblem,
)
from robustgrid.uncertainty import (
    UncertaintyBudget,
    WorstCaseRealization,
    check_flags,
    maximal_sets,
    realize,
)

from toys import three_region_hydro, two_period_battery

SCIPY = ScipyBackend()
TOY6 = Path(__file__).parent / "fixtures" / "toy6.json"
ENERGY = ("bat_stor", "h2_stor")


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


def draw_capacities(inst, seed, energy=0.0):
    """Random capacities, about a quarter of them zero; every storage
    energy capacity is `energy`."""
    rng = random.Random(seed)
    line_limit = {l.id: l.expansion_limit for l in inst.lines}
    caps = {}
    for kind, eid in capacity_keys(inst):
        if kind in ENERGY:
            caps[kind, eid] = energy
        elif rng.random() < 0.25:
            caps[kind, eid] = 0.0
        else:
            caps[kind, eid] = rng.uniform(0.0, line_limit[eid] if kind == "line" else 10.0)
    return caps


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
    """A backend whose solve_lp returns the master solution it was given."""

    def __init__(self, x):
        self.x = x

    def solve_lp(self, model):
        return SolveResult("optimal", objective=0.0, x=self.x)


def test_master_noise_snaps_to_zero_at_the_handoff():
    inst = toy6()
    build = build_master(inst, [realize(inst, WorstCaseRealization.reference())])
    x = np.zeros(build.model.n_vars)
    x[build.inv["h2_stor", "h2_2"]] = 4.7e-13  # what HiGHS left on the benchmark ladder
    x[build.inv["ren", "pv_1"]] = 1e-13
    x[build.inv["ren", "pv_2"]] = -1e-12
    x[build.inv["ren", "w_1"]] = CAPACITY_SNAP
    x[build.inv["ren", "w_2"]] = 2 * CAPACITY_SNAP
    x[build.inv["ren", "pv_3"]] = 5.0
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
    assert live_flags(inst, caps) == sorted(sub.z)
    # no energy left in the tank, so the search splits by period
    assert len(sub.windows) == 2


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
    assert len(build.windows) == 2
    split = solve_subproblem(build, SCIPY)
    whole = solve_subproblem(dataclasses.replace(build, windows=[]), SCIPY)
    assert split.exact and split.milps == 2 and whole.milps == 1
    assert split.dual_objective == pytest.approx(whole.dual_objective, rel=1e-6, abs=1e-6)
    check_flags(inst, split.flags, budget)
    [cost] = dispatch_cost(inst, caps, [realize(inst, WorstCaseRealization(split.flags))], SCIPY)
    assert cost == pytest.approx(split.dual_objective, rel=1e-6, abs=1e-6)


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
    whole = dispatch_cost(inst, caps, [realize(inst, m) for m in members], SCIPY)
    # a window's cost depends only on the flags of its own period
    parts = []
    for w in period_windows(inst):
        [period] = w.timegrid.periods
        own = sorted({frozenset(f for f in m.flags if f[2] == period.id) for m in members}, key=sorted)
        costs = dispatch_cost(w, caps, [realize(w, WorstCaseRealization(f)) for f in own], SCIPY)
        parts.append((period.id, dict(zip(own, costs))))
    for m, cost in zip(members, whole):
        total = sum(
            costs[frozenset(f for f in m.flags if f[2] == pid)] for pid, costs in parts
        )
        assert total == pytest.approx(cost, rel=1e-9, abs=1e-6), m.summary()


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
    [cost] = dispatch_cost(inst, caps, [realize(inst, WorstCaseRealization(early.flags))], SCIPY)
    assert early.dual_objective <= cost * (1 + 1e-9) + 1e-9


# --- a plan that stores energy keeps the whole-horizon search ----------------------

def toy6_with_pumped_hydro():
    inst = toy6()
    psp = HydroUnit(
        id="psp_1", node="n1", kind="psp", existing_cap=5.0, storage_scale=6.0, efficiency=0.75
    )
    return inst.replace(hydros=(psp,))


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
    worst = solve_subproblem(build, backend, gap_tol=1e-9)
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
    assert [it.milps for it in trace.iterations] == [1] * len(trace.iterations)
    assert len(calls) == len(trace.iterations)
