"""Domain types, validation rules, and cost annualization."""

import dataclasses
import math

import pytest

from robustgrid.model import (
    CapacityFactorBundle,
    DemandSeries,
    HydroUnit,
    Line,
    LoadSheddingPolicy,
    Node,
    Period,
    RenewableUnit,
    TimeGrid,
    annualize_cost,
    tech_class,
    validate,
)

import toys


# --- annualization -----------------------------------------------------

def _payment_by_simulation(overnight: float, lifetime: int, rate: float) -> float:
    """Find the constant yearly payment that amortizes the loan exactly.

    Independent of the closed form: simulate the outstanding balance and
    bisect on the payment until the balance after `lifetime` years is zero.
    """

    def residual(payment: float) -> float:
        balance = overnight
        for _ in range(lifetime):
            balance = balance * (1.0 + rate) - payment
        return balance

    lo, hi = 0.0, overnight * (1.0 + rate)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "overnight, lifetime, rate, fixed_om",
    [
        (963.0, 30, 0.075, 9.63),
        (370.0, 35, 0.069, 7.40),
        (1380.0, 30, 0.093, 13.80),
        (60.0, 10, 0.06, 0.60),
        (411.0, 25, 0.08, 8.70),
        (100.0, 1, 0.10, 0.0),
        (500.0, 40, 0.0, 5.0),
    ],
)
def test_annualize_matches_loan_simulation(overnight, lifetime, rate, fixed_om):
    expected = _payment_by_simulation(overnight, lifetime, rate) + fixed_om
    got = annualize_cost(overnight, lifetime, rate, fixed_om)
    assert got == pytest.approx(expected, rel=1e-9)


def test_annualize_zero_rate_is_straight_line():
    assert annualize_cost(350.0, 35, 0.0) == pytest.approx(10.0)


def test_annualize_known_values():
    # onshore wind: 963 over 30y at 7.5% plus 9.63 fixed O&M
    assert annualize_cost(963.0, 30, 0.075, 9.63) == pytest.approx(91.17, abs=0.01)
    # solar: 370 over 35y at 6.9% plus 7.40
    assert annualize_cost(370.0, 35, 0.069, 7.40) == pytest.approx(35.67, abs=0.01)


def test_annualize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        annualize_cost(100.0, 0, 0.05)
    with pytest.raises(ValueError):
        annualize_cost(100.0, 10, -0.01)


# --- technology classes ------------------------------------------------

def test_tech_class_groups_wind_variants():
    assert tech_class("solar_pv") == "pv"
    assert tech_class("wind_onshore") == "wind"
    assert tech_class("wind_offshore") == "wind"
    with pytest.raises(ValueError):
        tech_class("fusion")


# --- validation --------------------------------------------------------

def test_valid_toys_produce_no_violations():
    for build in (
        toys.single_node,
        toys.two_region,
        toys.two_period_battery,
        toys.three_region_hydro,
        toys.symmetric_pair,
    ):
        assert validate(build()) == []


def _violations(inst):
    return {(v.entity, v.rule) for v in validate(inst)}


def test_missing_reference_node_flagged():
    inst = toys.single_node()
    bad = inst.replace(nodes=(Node("n1", region="R1", is_reference=False),))
    assert any(rule == "reference_node" for _, rule in _violations(bad))


def test_duplicate_node_ids_flagged():
    # Nodes, lines, units (one id space across all unit families), regions
    # and periods must each have unique ids.
    inst = toys.two_region()
    pv, wind = inst.renewables
    (gas,) = inst.conventionals
    ra, rb = inst.regions
    for bad in (
        inst.replace(nodes=inst.nodes + (Node("n1", region="RA"),)),
        inst.replace(lines=inst.lines * 2),
        inst.replace(renewables=(pv, dataclasses.replace(wind, id=pv.id))),
        inst.replace(conventionals=(dataclasses.replace(gas, id=pv.id),)),
        inst.replace(regions=(ra, dataclasses.replace(rb, id=ra.id))),
        inst.replace(timegrid=dataclasses.replace(
            inst.timegrid, periods=(Period("p1", 0, 0), Period("p1", 1, 1)),
        )),
    ):
        assert any(rule == "duplicate_id" for _, rule in _violations(bad))


def test_cf_out_of_range_flagged():
    inst = toys.single_node()
    ren = inst.renewables[0]
    bad_ren = RenewableUnit(
        id=ren.id, node=ren.node, technology=ren.technology, region=ren.region,
        annualized_cost=ren.annualized_cost,
        cf=CapacityFactorBundle(reference=(1.2, 0.5), deviation=(0.0, 0.0)),
    )
    bad = inst.replace(renewables=(bad_ren,))
    assert any(rule == "cf_range" for _, rule in _violations(bad))


def test_deviation_exceeding_reference_flagged():
    inst = toys.single_node()
    ren = inst.renewables[0]
    bad_ren = RenewableUnit(
        id=ren.id, node=ren.node, technology=ren.technology, region=ren.region,
        annualized_cost=ren.annualized_cost,
        cf=CapacityFactorBundle(reference=(0.5, 0.5), deviation=(0.6, 0.5)),
    )
    bad = inst.replace(renewables=(bad_ren,))
    assert any(rule == "deviation_exceeds_reference" for _, rule in _violations(bad))


def test_line_with_unknown_endpoint_flagged():
    inst = toys.two_region()
    bad_line = Line("lx", "ac", "n1", "nowhere", susceptance=1.0,
                    existing_cap=1.0, expansion_cost=1.0, expansion_limit=1.0)
    bad = inst.replace(lines=inst.lines + (bad_line,))
    assert any(rule == "unknown_node" for _, rule in _violations(bad))


def test_ac_line_needs_positive_susceptance():
    inst = toys.two_region()
    bad_line = Line("lx", "ac", "n1", "n2", susceptance=0.0,
                    existing_cap=1.0, expansion_cost=1.0, expansion_limit=1.0)
    bad = inst.replace(lines=(bad_line,))
    assert any(rule == "susceptance" for _, rule in _violations(bad))


def test_reservoir_needs_availability():
    inst = toys.three_region_hydro()
    bad_h = HydroUnit(id="rsv_x", node="n2", kind="rsv", existing_cap=1.0)
    bad = inst.replace(hydros=inst.hydros + (bad_h,))
    assert any(rule == "availability" for _, rule in _violations(bad))


def test_pumped_storage_needs_scale_and_efficiency():
    inst = toys.three_region_hydro()
    bad_h = HydroUnit(id="psp_x", node="n1", kind="psp", existing_cap=1.0)
    bad = inst.replace(hydros=inst.hydros + (bad_h,))
    rules = {rule for _, rule in _violations(bad)}
    assert "storage_scale" in rules and "efficiency" in rules


def test_negative_demand_flagged():
    inst = toys.single_node()
    bad = inst.replace(demand=DemandSeries(by_node={"n1": (10.0, -1.0)}))
    assert any(rule == "demand_negative" for _, rule in _violations(bad))


def test_shedding_fractions_must_increase():
    inst = toys.single_node()
    bad = inst.replace(
        shedding=LoadSheddingPolicy(
            fractions=(0.15, 0.05, 0.80), costs=(1000.0, 3000.0, 12000.0),
            node_costs={},
        )
    )
    assert any(rule == "shedding_fractions" for _, rule in _violations(bad))


def test_shedding_costs_must_increase():
    inst = toys.single_node()
    bad = inst.replace(
        shedding=LoadSheddingPolicy(
            fractions=(0.05, 0.15, 0.80), costs=(3000.0, 1000.0, 12000.0),
            node_costs={},
        )
    )
    assert any(rule == "shedding_costs" for _, rule in _violations(bad))


def test_overlapping_periods_flagged():
    inst = toys.single_node(steps=4)
    bad = inst.replace(
        timegrid=TimeGrid(
            step_count=4, step_hours=1.0,
            periods=(Period("p1", 0, 2), Period("p2", 2, 3)),
        )
    )
    assert any(rule == "period_overlap" for _, rule in _violations(bad))


def test_period_outside_grid_flagged():
    inst = toys.single_node(steps=2)
    bad = inst.replace(
        timegrid=TimeGrid(
            step_count=2, step_hours=1.0, periods=(Period("p1", 0, 5),)
        )
    )
    assert any(rule == "period_bounds" for _, rule in _violations(bad))


def _with(inst, family, index, **changes):
    """inst with one entity of a family replaced by a changed copy."""
    items = list(getattr(inst, family))
    items[index] = dataclasses.replace(items[index], **changes)
    return inst.replace(**{family: tuple(items)})


NAN, INF = math.nan, math.inf

# (instance, expected (entity, rule)); every number must be finite
NON_FINITE = {
    "conventional-variable_cost-nan": (
        lambda: _with(toys.two_region(), "conventionals", 0, variable_cost=NAN),
        ("gas_b", "variable_cost_finite"),
    ),
    "conventional-existing_cap-inf": (
        lambda: _with(toys.two_region(), "conventionals", 0, existing_cap=INF),
        ("gas_b", "existing_cap_finite"),
    ),
    "line-susceptance-nan": (
        lambda: _with(toys.two_region(), "lines", 0, susceptance=NAN),
        ("l12", "susceptance_finite"),
    ),
    "line-expansion_limit-nan": (
        lambda: _with(toys.two_region(), "lines", 0, expansion_limit=NAN),
        ("l12", "expansion_limit_finite"),
    ),
    "line-expansion_limit-minus-inf": (
        lambda: _with(toys.two_region(), "lines", 0, expansion_limit=-INF),
        ("l12", "expansion_limit_finite"),
    ),
    "renewable-annualized_cost-nan": (
        lambda: _with(toys.two_region(), "renewables", 0, annualized_cost=NAN),
        ("pv_a", "annualized_cost_finite"),
    ),
    "hydro-storage_scale-inf": (
        lambda: _with(toys.three_region_hydro(), "hydros", 0, storage_scale=INF),
        ("psp_1", "storage_scale_finite"),
    ),
    "battery-storage_cost-inf": (
        lambda: _with(toys.two_period_battery(), "batteries", 0, storage_cost=INF),
        ("bat_a", "storage_cost_finite"),
    ),
    "hydrogen-ocgt_cost-nan": (
        lambda: _with(toys.three_region_hydro(), "hydrogens", 0, ocgt_cost=NAN),
        ("h2_2", "ocgt_cost_finite"),
    ),
    "hydrogen-el_limit-nan": (
        lambda: _with(toys.three_region_hydro(), "hydrogens", 0, el_limit=NAN),
        ("h2_2", "el_limit_finite"),
    ),
    "step_hours-inf": (
        lambda: toys.single_node().replace(timegrid=TimeGrid(2, INF)),
        ("timegrid", "step_hours"),
    ),
    "step_hours-nan": (
        lambda: toys.single_node().replace(timegrid=TimeGrid(2, NAN)),
        ("timegrid", "step_hours"),
    ),
    "shedding-fraction-inf": (
        lambda: toys.single_node().replace(
            shedding=LoadSheddingPolicy((0.05, 0.15, INF), (1000.0, 3000.0, 12000.0))
        ),
        ("shedding", "shedding_fractions"),
    ),
    "shedding-cost-inf": (
        lambda: toys.single_node().replace(
            shedding=LoadSheddingPolicy((0.05, 0.15, 0.8), (1000.0, 3000.0, INF))
        ),
        ("shedding", "shedding_costs"),
    ),
    "shedding-node-cost-nan": (
        lambda: toys.single_node().replace(
            shedding=LoadSheddingPolicy(
                (0.05, 0.15, 0.8), (1000.0, 3000.0, 12000.0),
                node_costs={"n1": (NAN, 3000.0, 12000.0)},
            )
        ),
        ("shedding[n1]", "shedding_costs"),
    ),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_number_flagged(case):
    make, expected = NON_FINITE[case]
    assert expected in _violations(make())


# (instance, expected (entity, rule)); limits and investment costs that may
# not be negative, and shedding tiers that must be able to cover demand
OUT_OF_RANGE = {
    "battery-inverter_limit": (
        lambda: _with(toys.two_period_battery(), "batteries", 0, inverter_limit=-1.0),
        ("bat_a", "negative_limit"),
    ),
    "battery-storage_limit": (
        lambda: _with(toys.two_period_battery(), "batteries", 0, storage_limit=-1.0),
        ("bat_a", "negative_limit"),
    ),
    "hydrogen-ocgt_limit": (
        lambda: _with(toys.three_region_hydro(), "hydrogens", 0, ocgt_limit=-1.0),
        ("h2_2", "negative_limit"),
    ),
    "hydrogen-el_limit": (
        lambda: _with(toys.three_region_hydro(), "hydrogens", 0, el_limit=-1.0),
        ("h2_2", "negative_limit"),
    ),
    "hydrogen-storage_limit": (
        lambda: _with(toys.three_region_hydro(), "hydrogens", 0, storage_limit=-1.0),
        ("h2_2", "negative_limit"),
    ),
    "renewable-annualized_cost": (
        lambda: _with(toys.two_region(), "renewables", 0, annualized_cost=-1.0),
        ("pv_a", "negative_cost"),
    ),
    "line-expansion_cost": (
        lambda: _with(toys.two_region(), "lines", 0, expansion_cost=-1.0),
        ("l12", "negative_cost"),
    ),
    "battery-inverter_cost": (
        lambda: _with(toys.two_period_battery(), "batteries", 0, inverter_cost=-1.0),
        ("bat_a", "negative_cost"),
    ),
    "battery-storage_cost": (
        lambda: _with(toys.two_period_battery(), "batteries", 0, storage_cost=-1.0),
        ("bat_a", "negative_cost"),
    ),
    "hydrogen-ocgt_cost": (
        lambda: _with(toys.three_region_hydro(), "hydrogens", 0, ocgt_cost=-1.0),
        ("h2_2", "negative_cost"),
    ),
    "hydrogen-electrolyzer_cost": (
        lambda: _with(toys.three_region_hydro(), "hydrogens", 0, electrolyzer_cost=-1.0),
        ("h2_2", "negative_cost"),
    ),
    "hydrogen-storage_cost": (
        lambda: _with(toys.three_region_hydro(), "hydrogens", 0, storage_cost=-1.0),
        ("h2_2", "negative_cost"),
    ),
    "shedding-fractions-below-one": (
        lambda: toys.two_region().replace(
            shedding=LoadSheddingPolicy((0.01, 0.02, 0.03), (1000.0, 3000.0, 12000.0))
        ),
        ("shedding", "shedding_fractions"),
    ),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_number_flagged(case):
    make, expected = OUT_OF_RANGE[case]
    assert expected in _violations(make())


def test_limit_may_be_infinite():
    inst = _with(toys.two_region(), "lines", 0, expansion_limit=INF)
    inst = _with(inst, "renewables", 0, expansion_limit=INF)
    assert validate(inst) == []
    battery = _with(toys.two_period_battery(), "batteries", 0, storage_limit=INF)
    assert validate(battery) == []


def test_region_partition_must_cover_every_node():
    inst = toys.two_region()
    bad = inst.replace(
        regions=(inst.regions[0],),  # RB gone, n2 uncovered
        renewables=(inst.renewables[0],),  # drop the unit that references RB
    )
    assert any(rule == "region_cover" for _, rule in _violations(bad))


# --- small structural helpers ------------------------------------------

def test_timegrid_period_lookup():
    grid = TimeGrid(
        step_count=6, step_hours=2.0,
        periods=(Period("a", 0, 2), Period("b", 4, 5)),
    )
    assert grid.period_of(1).id == "a"
    assert grid.period_of(3) is None
    assert grid.period_of(5).id == "b"
    assert list(grid.periods[0].steps()) == [0, 1, 2]


def test_demand_series_lookup_and_total():
    d = DemandSeries(by_node={"n1": (1.0, 2.0), "n2": (3.0, 4.0)})
    assert d.at("n1", 1) == 2.0
    assert d.at("missing", 0) == 0.0
    assert d.total() == pytest.approx(10.0)


def test_instance_region_of_node():
    inst = toys.two_region()
    assert inst.region_of_node("n2") == "RB"
    assert inst.reference_node().id == "n1"
    assert math.isclose(inst.demand.total(), 20.0)
