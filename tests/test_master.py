"""Master problem and dispatch blocks: structure, optima, physics."""

import math

import numpy as np
import pytest

from robustgrid.backend import BackendError, InTreeBackend, ScipyBackend, SolveResult
from robustgrid.master import (
    build_dispatch_lp,
    build_master,
    capacity_keys,
    check_block_physics,
    dispatch_cost,
    dispatch_template,
    investment_cost,
    solve_master,
)
from robustgrid.model import (
    ConventionalUnit,
    DemandSeries,
    LoadSheddingPolicy,
    NetworkInstance,
    Node,
    Period,
    TimeGrid,
    WeatherRegion,
)
from robustgrid.uncertainty import WorstCaseRealization, realize

from toys import (
    DEFAULT_SHEDDING,
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


def hit(*flags):
    return WorstCaseRealization(flags=frozenset(flags))


# --- structure: hand-counted rows and columns ------------------------------

def test_single_node_master_counts():
    inst = single_node()
    build = build_master(inst, [REF])
    m = build.model
    # columns: 1 capacity + recourse + 2 generation + 3 tiers x 2 steps
    assert m.n_vars == 1 + 1 + 2 + 6
    # rows: 2 balance + 2 availability + 6 tier caps + 1 epigraph
    assert m.n_rows == 2 + 2 + 6 + 1
    assert sum(":balance[" in name for name in m.row_names) == 2
    assert sum(":ren_cap[" in name for name in m.row_names) == 2


def test_ac_line_block_counts():
    inst = two_region()
    build = build_master(inst, [REF])
    m = build.model
    # per step: one angle per node, one flow definition, a bound each way,
    # and the slack row pinning the reference angle
    assert sum(":theta[" in name for name in m.var_names) == 4
    assert sum(":flow_def[" in name for name in m.row_names) == 2
    assert sum(":flow_hi[" in name for name in m.row_names) == 2
    assert sum(":flow_lo[" in name for name in m.row_names) == 2
    assert sum(":slack[" in name for name in m.row_names) == 2
    assert sum(":ang_hi[" in name for name in m.row_names) == 4
    assert sum(":ang_lo[" in name for name in m.row_names) == 4


def test_psp_starts_half_full():
    inst = three_region_hydro()
    build = build_master(inst, [REF])
    i = build.model.row_names.index("s0:psp_lvl[psp_1,0]")
    # 5 MW at 6 hours of storage, half full: 15 MWh on the rhs
    assert build.model.row_rhs[i] == pytest.approx(15.0)


def test_dc_line_has_no_angles():
    inst = two_period_battery()
    build = build_master(inst, [REF])
    assert not any(":theta[" in name for name in build.model.var_names)
    assert not any(":flow_def[" in name for name in build.model.row_names)


# --- known optima -----------------------------------------------------------

def test_deterministic_single_node_optimum(backend):
    # demand 10 in each of 2 steps at cf 0.5: build 20 MW at cost 1/MW
    inst = single_node()
    sol = solve_master(build_master(inst, [REF]), backend)
    assert sol.capacities[("ren", "s1")] == pytest.approx(20.0, abs=1e-7)
    assert sol.objective == pytest.approx(20.0, abs=1e-7)
    assert sol.recourse_bound == pytest.approx(0.0, abs=1e-7)
    assert sol.investment_cost == pytest.approx(20.0, abs=1e-7)


def test_zero_cf_realization_builds_nothing(backend):
    # full deviation wipes solar out; building cannot help the worst block,
    # so the plan sheds everything: 10100 EUR per MWh of demand
    inst = single_node()
    zero = hit(("pv", "R1", "p1"))
    assert realize(inst, zero)["s1"] == (0.0, 0.0)
    sol = solve_master(build_master(inst, [REF, zero]), backend)
    want = FULL_SHED_COST_PER_MWH * 10.0 * 2
    assert sol.capacities[("ren", "s1")] == pytest.approx(0.0, abs=1e-7)
    assert sol.recourse_bound == pytest.approx(want, rel=1e-9)
    assert sol.objective == pytest.approx(want, rel=1e-9)


def test_zero_demand_zero_plan():
    inst = single_node()
    inst = inst.replace(demand=DemandSeries(by_node={"n1": (0.0, 0.0)}))
    sol = solve_master(build_master(inst, [REF]), SCIPY)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert all(v == pytest.approx(0.0, abs=1e-9) for v in sol.capacities.values())


def test_objective_is_investment_plus_recourse():
    inst = two_region()
    rlz = [REF, hit(("pv", "RA", "p1"))]
    sol = solve_master(build_master(inst, rlz), SCIPY)
    assert sol.objective == pytest.approx(
        sol.investment_cost + sol.recourse_bound, rel=1e-9
    )


# --- dispatch cost at fixed capacities --------------------------------------

def test_dispatch_cost_reference_free(backend):
    inst = single_node()
    caps = {("ren", "s1"): 20.0}
    assert dispatch_cost(inst, caps, [REF], backend) == [pytest.approx(
        0.0, abs=1e-7
    )]


def test_dispatch_cost_zero_cf_full_shed(backend):
    inst = single_node()
    caps = {("ren", "s1"): 20.0}
    [cost] = dispatch_cost(inst, caps, [hit(("pv", "R1", "p1"))], backend)
    assert cost == pytest.approx(FULL_SHED_COST_PER_MWH * 20.0, rel=1e-9)


def test_dispatch_cost_conventional_only():
    inst = NetworkInstance(
        nodes=(Node("n1", region="R1", is_reference=True),),
        lines=(),
        renewables=(),
        conventionals=(
            ConventionalUnit(id="gas", node="n1", existing_cap=30.0, variable_cost=50.0),
        ),
        hydros=(),
        batteries=(),
        hydrogens=(),
        demand=DemandSeries(by_node={"n1": (10.0, 10.0)}),
        regions=(WeatherRegion("R1", nodes=("n1",)),),
        shedding=DEFAULT_SHEDDING,
        timegrid=TimeGrid(step_count=2, step_hours=1.0, periods=(Period("p1", 0, 1),)),
    )
    assert dispatch_cost(inst, {}, [REF], SCIPY) == [pytest.approx(1000.0, rel=1e-9)]


def test_partial_deviation_worst_block_priced():
    # cf 0.5 vs hit 0.25: covering the hit outright costs 40, far below
    # any shedding, so the robust plan doubles the build
    inst = single_node(deviation=0.25)
    rlz = [REF, hit(("pv", "R1", "p1"))]
    sol = solve_master(build_master(inst, rlz), SCIPY)
    assert sol.capacities[("ren", "s1")] == pytest.approx(40.0, abs=1e-6)
    assert sol.objective == pytest.approx(40.0, rel=1e-9)


# --- invariants across toys --------------------------------------------------

TOYS = {
    "two_region": (two_region, [("pv", "RA", "p1"), ("wind", "RB", "p1")]),
    "battery": (two_period_battery, [("pv", "RA", "p1"), ("wind", "RB", "p2")]),
    "hydro": (three_region_hydro, [("pv", "R1", "p1"), ("wind", "R2", "p1")]),
    "symmetric": (symmetric_pair, [("pv", "R1", "p1")]),
    # the build limit leaves the drought block short of energy and the
    # reference block slack below a positive recourse bound
    "capped": (
        lambda: single_node(deviation=0.25, expansion_limit=20.0), [("pv", "R1", "p1")]
    ),
}


@pytest.mark.parametrize("name", sorted(TOYS))
def test_master_self_consistency(name):
    # with one block the recourse bound is that block's re-solved dispatch
    builder, _ = TOYS[name]
    inst = builder()
    sol = solve_master(build_master(inst, [REF]), SCIPY)
    [redisp] = dispatch_cost(inst, sol.capacities, [REF], SCIPY)
    assert sol.recourse_bound == pytest.approx(redisp, rel=1e-7, abs=1e-6)
    assert sol.objective == pytest.approx(
        investment_cost(inst, sol.capacities) + redisp, rel=1e-7, abs=1e-6
    )


# the toys whose master the dense in-tree simplex solves in well under a
# second; it takes over 20 s on the 4-block battery and hydro masters
INTREE_TOYS = {"capped", "symmetric", "two_region"}


@pytest.mark.parametrize("name", sorted(TOYS))
def test_recourse_bound_is_worst_block(name):
    # the binding block is read from the recourse rows' duals, and each
    # backend recovers duals its own way: check their sign on both
    builder, flags = TOYS[name]
    inst = builder()
    rlz = [REF] + [hit(f) for f in flags] + [hit(*flags)]
    tpl = dispatch_template(inst)
    for backend in BACKENDS if name in INTREE_TOYS else [SCIPY]:
        sol = solve_master(build_master(inst, rlz), backend)
        assert sol.realizations == rlz and sol.dispatch.shape == (len(rlz), tpl.n_vars)
        tol = 1e-6 * max(1.0, abs(sol.recourse_bound))
        costs = sol.dispatch @ tpl.var_obj
        assert (costs <= sol.recourse_bound + tol).all()
        assert costs.max() == pytest.approx(sol.recourse_bound, rel=1e-6, abs=1e-6)
        # the plan really covers every block at its re-optimized dispatch,
        # and the binding block's realization prices at the bound
        priced = dispatch_cost(inst, sol.capacities, rlz, SCIPY)
        assert max(priced) <= sol.recourse_bound + tol
        assert priced[sol.binding] == pytest.approx(sol.recourse_bound, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("name", sorted(TOYS))
def test_adding_blocks_never_cheapens(name):
    builder, flags = TOYS[name]
    inst = builder()
    chain = [REF] + [hit(f) for f in flags]
    prev = -math.inf
    for k in range(1, len(chain) + 1):
        sol = solve_master(build_master(inst, chain[:k]), SCIPY)
        assert sol.objective >= prev - 1e-6 * max(1.0, abs(sol.objective))
        prev = sol.objective


@pytest.mark.parametrize("name", sorted(TOYS))
def test_block_physics_clean(name):
    builder, flags = TOYS[name]
    inst = builder()
    rlz = [REF, hit(*flags)]
    sol = solve_master(build_master(inst, rlz), SCIPY)
    for realization, x in zip(rlz, sol.dispatch):
        assert check_block_physics(inst, sol.capacities, realize(inst, realization), x) == []


def test_line_expansion_respects_limit():
    # starve the tie so imports want more than the limit allows
    inst = two_region(line_cap=5.0)
    rlz = [REF, hit(("pv", "RA", "p1"))]
    sol = solve_master(build_master(inst, rlz), SCIPY)
    assert sol.capacities[("line", "l12")] <= 5.0 + 1e-9


def nudged(inst, x, key, by):
    """A copy of dispatch x with template column `key` moved by `by`."""
    x = x.copy()
    x[dispatch_template(inst).col_keys.index(key)] += by
    return x


def test_physics_checker_flags_corruption():
    inst = two_region()
    sol = solve_master(build_master(inst, [REF]), SCIPY)
    x = nudged(inst, sol.dispatch[0], ("gen", "pv_a", 0), 1.0)
    out = check_block_physics(inst, sol.capacities, realize(inst, REF), x)
    assert any("balance" in v for v in out)


def test_physics_checker_flags_storage_break():
    # one level per storage kind, nudged off its recursion
    for make, prefix, uid, t in (
        (two_period_battery, "bat", "bat_a", 1),
        (three_region_hydro, "psp", "psp_1", 2),
        (three_region_hydro, "h2", "h2_2", 0),
    ):
        inst = make()
        cf = realize(inst, REF)
        sol = solve_master(build_master(inst, [REF]), SCIPY)
        assert check_block_physics(inst, sol.capacities, cf, sol.dispatch[0]) == []
        x = nudged(inst, sol.dispatch[0], ("lvl", uid, t), 0.5)
        out = check_block_physics(inst, sol.capacities, cf, x)
        assert f"{prefix}_lvl[{uid},{t}]: recursion residual" in out


# one dispatch value pushed past each power rating the block imposes
RATING_BREACHES = [
    (two_region, ("gen", "pv_a", 0), "ren_cap"),
    (two_region, ("gen", "gas_b", 1), "conv_cap"),
    (three_region_hydro, ("gen", "rsv_2", 0), "hydro_cap"),
    (three_region_hydro, ("gen", "ror_3", 2), "hydro_cap"),
    (three_region_hydro, ("gen", "psp_1", 0), "psp_gen_cap"),
    (three_region_hydro, ("ch", "psp_1", 1), "psp_ch_cap"),
    (two_period_battery, ("gen", "bat_a", 0), "bat_gen_cap"),
    (two_period_battery, ("ch", "bat_a", 1), "bat_ch_cap"),
    (three_region_hydro, ("gen", "h2_2", 3), "h2_gen_cap"),
    (three_region_hydro, ("ch", "h2_2", 0), "h2_ch_cap"),
]


@pytest.mark.parametrize(
    "make, key, row",
    RATING_BREACHES,
    ids=[f"{row}-{key[1]}" for _, key, row in RATING_BREACHES],
)
def test_physics_checker_flags_power_above_rating(make, key, row):
    inst = make()
    sol = solve_master(build_master(inst, [REF]), SCIPY)
    x = nudged(inst, sol.dispatch[0], key, 1e6)
    _, entity, t = key
    out = check_block_physics(inst, sol.capacities, realize(inst, REF), x)
    assert f"{row}[{entity},{t}]: above its rating" in out


# --- input errors -------------------------------------------------------------

def test_master_result_without_duals_is_a_backend_error():
    # the binding block is read from the duals; a result without them
    # cannot name it
    class NoDuals:
        def solve_lp(self, model, start=None):
            return SolveResult("optimal", objective=0.0, x=np.zeros(model.n_vars))

    inst = single_node()
    with pytest.raises(BackendError, match="no duals"):
        solve_master(build_master(inst, [REF]), NoDuals())


def test_empty_realization_list_rejected():
    with pytest.raises(ValueError, match="at least one"):
        build_master(single_node(), [])


@pytest.mark.parametrize(
    "stamp",
    [
        lambda inst, realization: build_master(inst, [REF, realization]),
        lambda inst, realization: build_dispatch_lp(inst, {}, realization),
        # no backend: the flags are checked before anything is solved
        lambda inst, realization: dispatch_cost(inst, {}, [REF, realization], None),
    ],
    ids=["build_master", "build_dispatch_lp", "dispatch_cost"],
)
@pytest.mark.parametrize(
    "flag, message",
    [
        (("pv", "nowhere", "p1"), "unknown region 'nowhere'"),
        (("pv", "R1", "p9"), "unknown period 'p9'"),
        (("solar", "R1", "p1"), "unknown technology class 'solar'"),
    ],
    ids=["unknown_region", "unknown_period", "unknown_technology"],
)
def test_malformed_realization_rejected(stamp, flag, message):
    # a flag naming no region, period or technology of single_node is an
    # input error, even one that lowers no unit and so moves no rhs
    inst = single_node()
    with pytest.raises(ValueError, match=message):
        stamp(inst, hit(flag))


def test_bad_capacity_rejected():
    inst = single_node()
    with pytest.raises(ValueError, match="capacity"):
        build_dispatch_lp(inst, {("ren", "s1"): -1.0}, REF)


# --- miscellaneous ------------------------------------------------------------

def test_capacity_keys_cover_fleet():
    inst = three_region_hydro()
    keys = capacity_keys(inst)
    assert ("ren", "pv_1") in keys
    assert ("h2_ocgt", "h2_2") in keys and ("h2_stor", "h2_2") in keys
    assert ("line", "l23") in keys
    assert len(keys) == len(set(keys))
    # hydro is existing-only: no investment key for any hydro unit
    assert not any(uid in ("psp_1", "rsv_2", "ror_3") for _, uid in keys)


@pytest.mark.parametrize("name", sorted(TOYS))
def test_dispatch_cost_prices_each_member_at_its_own_dispatch_lp(name):
    # one LP for the list, solved once under each distinct rhs in order of
    # first appearance, with each member's rhs the one build_dispatch_lp
    # gives it, bit for bit; nothing else of the LP differs between members
    builder, flags = TOYS[name]
    inst = builder()
    rlz = [REF] + [hit(f) for f in flags] + [hit(*flags)]
    caps = {key: 3.0 for key in capacity_keys(inst)}
    seen = []

    class Recording(ScipyBackend):
        def solve_lps(self, model, rhs):
            rhs = list(rhs)
            seen.append((model, rhs))
            return super().solve_lps(model, rhs)

    costs = dispatch_cost(inst, caps, rlz, Recording())
    [(model, rhs)] = seen
    assert len(costs) == len(rlz)
    alone = [build_dispatch_lp(inst, caps, r) for r in rlz]
    distinct = {}
    for lp in alone:
        distinct.setdefault(lp.row_rhs.tobytes(), lp.row_rhs)
    assert [b.tobytes() for b in rhs] == list(distinct)
    solved = dict(zip(distinct, rhs))
    for lp, cost in zip(alone, costs):
        assert np.array_equal(solved[lp.row_rhs.tobytes()], lp.row_rhs)
        assert lp.matrix() is model.matrix()
        assert np.array_equal(lp.var_obj, model.var_obj)
        assert cost == pytest.approx(SCIPY.solve_lp(lp).objective, rel=1e-9, abs=1e-9)
    assert dispatch_cost(inst, caps, [], SCIPY) == []


def test_dispatch_cost_solves_each_distinct_lp_once(backend):
    # with no wind built, a wind flag moves no rhs: members that differ
    # only in it share one solve and its cost
    inst = two_region()
    caps = {("ren", "pv_a"): 20.0, ("ren", "w_b"): 0.0, ("line", "l12"): 0.0}
    wind, pv = ("wind", "RB", "p1"), ("pv", "RA", "p1")
    rlz = [REF, hit(wind), hit(pv), hit(pv, wind)]
    seen = []

    class Recording(type(backend)):
        def solve_lps(self, model, rhs):
            rhs = list(rhs)
            seen.append(rhs)
            return super().solve_lps(model, rhs)

    costs = dispatch_cost(inst, caps, rlz, Recording())
    [rhs] = seen
    assert len(rhs) == 2
    assert costs[0] == costs[1] and costs[2] == costs[3]
    assert costs[0] < costs[2]
    for r, cost in zip(rlz, costs):
        alone = backend.solve_lp(build_dispatch_lp(inst, caps, r))
        assert cost == pytest.approx(alone.objective, rel=1e-9, abs=1e-9)


def test_infeasible_group_names_its_first_member(backend):
    # shedding tiers covering under 100 % of demand leave no escape valve:
    # the drought empties the unit, and realizations 2 and 3 share its rhs
    inst = single_node().replace(
        shedding=LoadSheddingPolicy(
            fractions=(0.01, 0.02, 0.03), costs=(1000.0, 3000.0, 12000.0)
        )
    )
    drought = hit(("pv", "R1", "p1"))
    rlz = [REF, REF, drought, drought]
    with pytest.raises(BackendError, match=r"infeasible under realization 2$"):
        dispatch_cost(inst, {("ren", "s1"): 20.0}, rlz, backend)


def test_dispatch_lp_solution_is_physical():
    inst = two_region()
    caps = {("ren", "pv_a"): 20.0, ("ren", "w_b"): 0.0, ("line", "l12"): 0.0}
    res = SCIPY.solve_lp(build_dispatch_lp(inst, caps, REF))
    assert dispatch_cost(inst, caps, [REF], SCIPY) == [float(res.objective)]
    tpl = dispatch_template(inst)
    fuel = float(tpl.fuel_costs @ res.x[tpl.fuel_cols])
    shed = float(tpl.shed_costs @ res.x[tpl.shed_cols])
    assert fuel + shed == pytest.approx(res.objective, rel=1e-9, abs=1e-9)
    assert check_block_physics(inst, caps, realize(inst, REF), res.x) == []


def test_infeasible_dispatch_surfaces_backend_error():
    # shedding tiers covering under 100 % of demand leave no escape valve
    inst = single_node()
    inst = inst.replace(
        shedding=LoadSheddingPolicy(
            fractions=(0.01, 0.02, 0.03), costs=(1000.0, 3000.0, 12000.0)
        )
    )
    zero = hit(("pv", "R1", "p1"))
    with pytest.raises(BackendError, match="dispatch"):
        dispatch_cost(inst, {("ren", "s1"): 0.0}, [zero], SCIPY)
