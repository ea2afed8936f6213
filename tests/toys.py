"""Hand-sized network fixtures with known optima, shared across test modules.

Each builder returns a NetworkInstance small enough to reason about on
paper. Where a test needs the exact optimum, the derivation lives next to
the assertion in the test module.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

from robustgrid.io import load_instance
from robustgrid.master import capacity_keys
from robustgrid.model import (
    BatteryUnit,
    ConventionalUnit,
    DemandSeries,
    HydroUnit,
    HydrogenUnit,
    Line,
    LoadSheddingPolicy,
    NetworkInstance,
    Node,
    Period,
    RenewableUnit,
    CapacityFactorBundle,
    TimeGrid,
    WeatherRegion,
)

DEFAULT_SHEDDING = LoadSheddingPolicy(
    fractions=(0.05, 0.15, 0.80),
    costs=(1000.0, 3000.0, 12000.0),
    node_costs={},
)

# Full involuntary curtailment under the default ladder costs
# 0.05*1000 + 0.15*3000 + 0.80*12000 = 10100 per unit of demand.
FULL_SHED_COST_PER_MWH = 10100.0


def single_node(
    steps: int = 2,
    demand: float = 10.0,
    cf: float = 0.5,
    deviation: float | None = None,
    annualized_cost: float = 1.0,
    expansion_limit: float | None = None,
) -> NetworkInstance:
    """One node, one solar unit, no grid. Deviation defaults to the full cf.

    Deterministic optimum: build demand / cf and pay annualized_cost * that.
    With a budget of 1 and full deviation the worst case wipes the unit out,
    so the robust plan builds nothing and sheds everything.
    """
    dev = cf if deviation is None else deviation
    return NetworkInstance(
        nodes=(Node("n1", region="R1", is_reference=True),),
        lines=(),
        renewables=(
            RenewableUnit(
                id="s1",
                node="n1",
                technology="solar_pv",
                region="R1",
                annualized_cost=annualized_cost,
                cf=CapacityFactorBundle(
                    reference=(cf,) * steps, deviation=(dev,) * steps
                ),
                expansion_limit=expansion_limit,
            ),
        ),
        conventionals=(),
        hydros=(),
        batteries=(),
        hydrogens=(),
        demand=DemandSeries(by_node={"n1": (demand,) * steps}),
        regions=(WeatherRegion("R1", nodes=("n1",)),),
        shedding=DEFAULT_SHEDDING,
        timegrid=TimeGrid(
            step_count=steps,
            step_hours=1.0,
            periods=(Period("p1", 0, steps - 1),),
        ),
    )


def two_region(
    steps: int = 2,
    demand: float = 10.0,
    cf_a: float = 0.5,
    cf_b: float = 0.4,
    gas_cost: float = 80.0,
    gas_cap: float = 30.0,
    line_cap: float = 50.0,
) -> NetworkInstance:
    """Two weather regions joined by one expandable AC line.

    Node n1 carries all demand plus a solar unit; n2 hosts a wind unit and
    a gas plant. Either renewable can be wiped out by a one-region budget,
    with the gas plant as the backstop.
    """
    return NetworkInstance(
        nodes=(
            Node("n1", region="RA", is_reference=True),
            Node("n2", region="RB"),
        ),
        lines=(
            Line(
                id="l12",
                kind="ac",
                from_node="n1",
                to_node="n2",
                susceptance=10.0,
                existing_cap=line_cap,
                expansion_cost=2.0,
                expansion_limit=line_cap,
            ),
        ),
        renewables=(
            RenewableUnit(
                id="pv_a",
                node="n1",
                technology="solar_pv",
                region="RA",
                annualized_cost=1.0,
                cf=CapacityFactorBundle(
                    reference=(cf_a,) * steps, deviation=(cf_a,) * steps
                ),
            ),
            RenewableUnit(
                id="w_b",
                node="n2",
                technology="wind_onshore",
                region="RB",
                annualized_cost=1.5,
                cf=CapacityFactorBundle(
                    reference=(cf_b,) * steps, deviation=(cf_b,) * steps
                ),
            ),
        ),
        conventionals=(
            ConventionalUnit(id="gas_b", node="n2", existing_cap=gas_cap, variable_cost=gas_cost),
        ),
        hydros=(),
        batteries=(),
        hydrogens=(),
        demand=DemandSeries(by_node={"n1": (demand,) * steps}),
        regions=(
            WeatherRegion("RA", nodes=("n1",)),
            WeatherRegion("RB", nodes=("n2",)),
        ),
        shedding=DEFAULT_SHEDDING,
        timegrid=TimeGrid(
            step_count=steps,
            step_hours=1.0,
            periods=(Period("p1", 0, steps - 1),),
        ),
    )


def two_period_battery(steps_per_period: int = 2) -> NetworkInstance:
    """Two regions, two periods, a battery at the demand node.

    Solar produces only in the first step of each period, so serving later
    steps needs either the battery or the second region's wind over the
    DC tie.
    """
    steps = 2 * steps_per_period
    sun = tuple(0.8 if t % steps_per_period == 0 else 0.0 for t in range(steps))
    breeze = (0.4,) * steps
    return NetworkInstance(
        nodes=(
            Node("n1", region="RA", is_reference=True),
            Node("n2", region="RB"),
        ),
        lines=(
            Line(
                id="dc12",
                kind="dc",
                from_node="n1",
                to_node="n2",
                susceptance=0.0,
                existing_cap=15.0,
                expansion_cost=3.0,
                expansion_limit=15.0,
            ),
        ),
        renewables=(
            RenewableUnit(
                id="pv_a",
                node="n1",
                technology="solar_pv",
                region="RA",
                annualized_cost=1.0,
                cf=CapacityFactorBundle(
                    reference=sun, deviation=tuple(v / 2 for v in sun)
                ),
            ),
            RenewableUnit(
                id="w_b",
                node="n2",
                technology="wind_onshore",
                region="RB",
                annualized_cost=2.0,
                cf=CapacityFactorBundle(
                    reference=breeze, deviation=tuple(v / 2 for v in breeze)
                ),
            ),
        ),
        conventionals=(),
        hydros=(),
        batteries=(
            BatteryUnit(
                id="bat_a",
                node="n1",
                inverter_cost=0.5,
                storage_cost=0.2,
                efficiency=0.9,
            ),
        ),
        hydrogens=(),
        demand=DemandSeries(by_node={"n1": (10.0,) * steps}),
        regions=(
            WeatherRegion("RA", nodes=("n1",)),
            WeatherRegion("RB", nodes=("n2",)),
        ),
        shedding=DEFAULT_SHEDDING,
        timegrid=TimeGrid(
            step_count=steps,
            step_hours=1.0,
            periods=(
                Period("p1", 0, steps_per_period - 1),
                Period("p2", steps_per_period, steps - 1),
            ),
        ),
    )


def three_region_hydro(steps: int = 4) -> NetworkInstance:
    """Three regions in a line with the full technology mix.

    n1: demand, solar, pumped storage. n2: wind, reservoir hydro, hydrogen
    chain. n3: run-of-river and a gas unit. AC ties n1-n2 and n2-n3.
    """
    return NetworkInstance(
        nodes=(
            Node("n1", region="R1", is_reference=True),
            Node("n2", region="R2"),
            Node("n3", region="R3"),
        ),
        lines=(
            Line("l12", "ac", "n1", "n2", susceptance=8.0, existing_cap=20.0,
                 expansion_cost=2.0, expansion_limit=20.0),
            Line("l23", "ac", "n2", "n3", susceptance=8.0, existing_cap=20.0,
                 expansion_cost=2.0, expansion_limit=20.0),
        ),
        renewables=(
            RenewableUnit(
                id="pv_1", node="n1", technology="solar_pv", region="R1",
                annualized_cost=1.0,
                cf=CapacityFactorBundle(
                    reference=(0.6,) * steps, deviation=(0.3,) * steps
                ),
            ),
            RenewableUnit(
                id="w_2", node="n2", technology="wind_onshore", region="R2",
                annualized_cost=1.2,
                cf=CapacityFactorBundle(
                    reference=(0.5,) * steps, deviation=(0.25,) * steps
                ),
            ),
            RenewableUnit(
                id="woff_3", node="n3", technology="wind_offshore", region="R3",
                annualized_cost=1.8,
                cf=CapacityFactorBundle(
                    reference=(0.7,) * steps, deviation=(0.35,) * steps
                ),
            ),
        ),
        conventionals=(
            ConventionalUnit(id="gas_3", node="n3", existing_cap=8.0, variable_cost=90.0),
        ),
        hydros=(
            HydroUnit(id="psp_1", node="n1", kind="psp", existing_cap=5.0,
                      storage_scale=6.0, efficiency=0.75),
            HydroUnit(id="rsv_2", node="n2", kind="rsv", existing_cap=4.0,
                      availability=(0.5,) * steps),
            HydroUnit(id="ror_3", node="n3", kind="ror", existing_cap=2.0,
                      availability=(0.9,) * steps),
        ),
        batteries=(),
        hydrogens=(
            HydrogenUnit(
                id="h2_2", node="n2", ocgt_cost=1.5, electrolyzer_cost=1.0,
                storage_cost=0.1, eta_el=0.7, eta_ocgt=0.43,
            ),
        ),
        demand=DemandSeries(by_node={"n1": (12.0,) * steps, "n3": (3.0,) * steps}),
        regions=(
            WeatherRegion("R1", nodes=("n1",)),
            WeatherRegion("R2", nodes=("n2",)),
            WeatherRegion("R3", nodes=("n3",)),
        ),
        shedding=DEFAULT_SHEDDING,
        timegrid=TimeGrid(
            step_count=steps,
            step_hours=1.0,
            periods=(Period("p1", 0, steps - 1),),
        ),
    )


def symmetric_pair(steps: int = 2, annualized_cost: float = 1.0) -> NetworkInstance:
    """Two identical regions with one tie; any one of them can be hit.

    Symmetry makes the worst case degenerate, which exercises tie-breaking
    in the identification step without changing the optimal value. With
    annualized_cost above half the first shedding tier's cost, the robust
    plan keeps some shedding, so its worst case costs more than nothing.
    """
    nodes = (
        Node("n1", region="R1", is_reference=True),
        Node("n2", region="R2"),
    )
    rens = tuple(
        RenewableUnit(
            id=f"pv_{k}",
            node=f"n{k}",
            technology="solar_pv",
            region=f"R{k}",
            annualized_cost=annualized_cost,
            cf=CapacityFactorBundle(
                reference=(0.5,) * steps, deviation=(0.5,) * steps
            ),
        )
        for k in (1, 2)
    )
    return NetworkInstance(
        nodes=nodes,
        lines=(
            Line("l12", "ac", "n1", "n2", susceptance=5.0, existing_cap=30.0,
                 expansion_cost=1.0, expansion_limit=30.0),
        ),
        renewables=rens,
        conventionals=(),
        hydros=(),
        batteries=(),
        hydrogens=(),
        demand=DemandSeries(
            by_node={"n1": (5.0,) * steps, "n2": (5.0,) * steps}
        ),
        regions=(
            WeatherRegion("R1", nodes=("n1",)),
            WeatherRegion("R2", nodes=("n2",)),
        ),
        shedding=DEFAULT_SHEDDING,
        timegrid=TimeGrid(
            step_count=steps,
            step_hours=1.0,
            periods=(Period("p1", 0, steps - 1),),
        ),
    )


def toy6_with_pumped_hydro() -> NetworkInstance:
    """toy6 (tests/fixtures/toy6.json) with one pumped-hydro unit at n1.

    Its storage level is open at every plan, so a worst-case search on it
    never splits by period: the whole-horizon MILP runs, and its inexact
    separation can stop early (toy6 itself, which stores no energy, prices
    its few-member windows exactly instead).
    """
    inst = load_instance(Path(__file__).parent / "fixtures" / "toy6.json")
    psp = HydroUnit(
        id="psp_1", node="n1", kind="psp", existing_cap=5.0, storage_scale=6.0, efficiency=0.75
    )
    return inst.replace(hydros=(psp,))


def toy6_priced(weight: float = 1e-3) -> NetworkInstance:
    """toy6 with every variable_cost and shedding cost times weight.

    At 1e-3 operating cost competes with investment: from a budget of 2 on,
    the robust plan leaves recourse, and several master blocks are slack.
    """
    inst = load_instance(Path(__file__).parent / "fixtures" / "toy6.json")

    def scale(costs):
        return tuple(c * weight for c in costs)

    shedding = inst.shedding
    return inst.replace(
        conventionals=tuple(
            dataclasses.replace(c, variable_cost=c.variable_cost * weight)
            for c in inst.conventionals
        ),
        shedding=dataclasses.replace(
            shedding,
            costs=scale(shedding.costs),
            node_costs={n: scale(c) for n, c in shedding.node_costs.items()},
        ),
    )


def draw_capacities(inst: NetworkInstance, seed: int, energy: float = 0.0) -> dict:
    """Random capacities for inst, about a quarter of them zero; every
    storage energy capacity is `energy`, so at the default 0 the plan
    stores no energy."""
    rng = random.Random(seed)
    line_limit = {l.id: l.expansion_limit for l in inst.lines}
    caps = {}
    for kind, eid in capacity_keys(inst):
        if kind in ("bat_stor", "h2_stor"):
            caps[kind, eid] = energy
        elif rng.random() < 0.25:
            caps[kind, eid] = 0.0
        else:
            caps[kind, eid] = rng.uniform(0.0, line_limit[eid] if kind == "line" else 10.0)
    return caps


def two_region_repeated_period() -> NetworkInstance:
    """two_region with each of its two steps a period, both named p1.

    validate reports the repeated id (duplicate_id): read as one budget
    group, the two periods would merge and the budget would cover both.
    """
    inst = two_region()
    return inst.replace(
        timegrid=TimeGrid(
            step_count=2,
            step_hours=inst.timegrid.step_hours,
            periods=(Period("p1", 0, 0), Period("p1", 1, 1)),
        )
    )
