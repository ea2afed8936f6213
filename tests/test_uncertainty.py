"""Uncertainty set: realization arithmetic, enumeration counts, budgets."""

import dataclasses
import importlib.util
import itertools
import logging
import math
import random
import sys
from pathlib import Path

import pytest

from robustgrid.io import load_instance
from robustgrid.model import PV, WIND, Period, tech_class
from robustgrid.uncertainty import (
    EnumerationCapError,
    UncertaintyBudget,
    WorstCaseRealization,
    check_flags,
    complete,
    count_realizations,
    cover,
    enumerate_set,
    is_dunkelflaute,
    maximal_sets,
    realize,
)

import toys


def test_budget_rejects_bad_values():
    with pytest.raises(ValueError):
        UncertaintyBudget(gamma_pv=-1)
    with pytest.raises(ValueError):
        UncertaintyBudget(gamma_pv=1.5)  # type: ignore[arg-type]


def test_budget_clamp_warns(caplog):
    with caplog.at_level(logging.WARNING):
        clamped = UncertaintyBudget(gamma_pv=9, gamma_wind=1).clamp(2)
    assert clamped == UncertaintyBudget(gamma_pv=2, gamma_wind=1)
    assert any("clamp" in rec.message for rec in caplog.records)
    # no warning when nothing changes
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        UncertaintyBudget(1, 1).clamp(2)
    assert not caplog.records


# --- realize -------------------------------------------------------------

def test_all_zero_flags_reproduce_reference():
    inst = toys.two_region()
    cf = realize(inst, WorstCaseRealization.reference())
    for unit in inst.renewables:
        assert cf[unit.id] == unit.cf.reference


def test_flagged_region_drops_to_lower_bound():
    inst = toys.two_region()
    hit = WorstCaseRealization(frozenset({(PV, "RA", "p1")}))
    cf = realize(inst, hit)
    pv, wind = inst.renewables
    assert cf[pv.id] == tuple(
        r - d for r, d in zip(pv.cf.reference, pv.cf.deviation)
    )
    assert cf[wind.id] == wind.cf.reference  # wrong tech class, untouched


def test_flags_apply_only_within_their_period():
    inst = toys.two_period_battery()
    hit = WorstCaseRealization(frozenset({(PV, "RA", "p2")}))
    cf = realize(inst, hit)
    pv = inst.renewables[0]
    grid = inst.timegrid
    for t in range(grid.step_count):
        expected = pv.cf.reference[t]
        if grid.period_ids()[t] == "p2":
            expected -= pv.cf.deviation[t]
        assert cf[pv.id][t] == pytest.approx(expected, abs=1e-15)


def test_realized_values_stay_in_bounds():
    inst = toys.three_region_hydro()
    budget = UncertaintyBudget(gamma_pv=2, gamma_wind=2)
    for real in enumerate_set(inst, budget):
        cf = realize(inst, real)
        for unit in inst.renewables:
            for t, v in enumerate(cf[unit.id]):
                lb = unit.cf.reference[t] - unit.cf.deviation[t]
                assert lb - 1e-12 <= v <= unit.cf.reference[t] + 1e-12


def test_realize_rejects_unknown_region_and_budget_violation():
    inst = toys.two_region()
    with pytest.raises(ValueError):
        realize(inst, WorstCaseRealization(frozenset({(PV, "nowhere", "p1")})))
    too_many = WorstCaseRealization(
        frozenset({(PV, "RA", "p1"), (PV, "RB", "p1")})
    )
    with pytest.raises(ValueError):
        realize(inst, too_many, UncertaintyBudget(gamma_pv=1))
    # fine without a budget to enforce
    realize(inst, too_many)


def realize_by_period_of(inst, realization):
    """realize as it was written first: a scan for the first period that
    holds each step, for every unit and step."""
    grid = inst.timegrid
    out = {}
    for unit in inst.renewables:
        tech = tech_class(unit.technology)
        values = []
        for t in range(grid.step_count):
            v = unit.cf.reference[t]
            period = next((p for p in grid.periods if p.start <= t <= p.end), None)
            if period is not None and (tech, unit.region, period.id) in realization.flags:
                v -= unit.cf.deviation[t]
            values.append(max(0.0, v))
        out[unit.id] = tuple(values)
    return out


def _perfbench_instance(regions, periods, steps_per_period):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "instances.py"
    spec = importlib.util.spec_from_file_location("perfbench_instances", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.build(module.Shape(regions, periods, steps_per_period), None)


def _with_periods(inst, *periods):
    return inst.replace(timegrid=dataclasses.replace(inst.timegrid, periods=periods))


REALIZE_CASES = {
    "single_node": toys.single_node,
    "two_region": toys.two_region,
    "two_period_battery": toys.two_period_battery,
    "three_region_hydro": toys.three_region_hydro,
    "symmetric_pair": toys.symmetric_pair,
    "toy6": lambda: load_instance(Path(__file__).parent / "fixtures" / "toy6.json"),
    "certify-small": lambda: _perfbench_instance(3, 2, 4),
    "ladder-mid": lambda: _perfbench_instance(6, 2, 7),
    # steps 0, 2 and 5 lie outside every period
    "gaps": lambda: _with_periods(
        toys.two_period_battery(steps_per_period=3), Period("p1", 1, 1), Period("p2", 3, 4)
    ),
    # not a valid grid; realize still takes the first period holding a step
    "overlap": lambda: _with_periods(
        toys.two_period_battery(), Period("p1", 0, 2), Period("p2", 1, 3)
    ),
}


@pytest.mark.parametrize("name", sorted(REALIZE_CASES))
def test_realize_equals_the_period_of_version(name):
    # the reference, every flag, and random flag sets
    inst = REALIZE_CASES[name]()
    flags = [
        (tech, region.id, period.id)
        for tech in (PV, WIND)
        for region in inst.regions
        for period in inst.timegrid.periods
    ]
    rng = random.Random(7)
    sets = [frozenset(), frozenset(flags)]
    sets += [frozenset(f for f in flags if rng.random() < 0.4) for _ in range(20)]
    for flagged in sets:
        realization = WorstCaseRealization(flagged)
        assert realize(inst, realization) == realize_by_period_of(inst, realization)


# --- enumeration ---------------------------------------------------------

def test_two_regions_one_period_budget_one_gives_nine():
    inst = toys.two_region()
    members = enumerate_set(inst, UncertaintyBudget(1, 1))
    assert len(members) == 9
    assert len({m.key() for m in members}) == 9


def test_zero_budget_single_member():
    inst = toys.two_region()
    members = enumerate_set(inst, UncertaintyBudget(0, 0))
    assert members == [WorstCaseRealization.reference()]


def test_three_regions_full_pv_budget_gives_eight():
    inst = toys.three_region_hydro()
    members = enumerate_set(inst, UncertaintyBudget(gamma_pv=3, gamma_wind=0))
    assert len(members) == 8


@pytest.mark.parametrize("G", [1, 2, 3, 4])
@pytest.mark.parametrize("periods", [1, 2])
def test_count_matches_exhaustive_listing(G, periods):
    inst = _synthetic_regions(G, periods)
    for g_pv in range(G + 1):
        for g_wind in range(G + 1):
            budget = UncertaintyBudget(g_pv, g_wind)
            members = enumerate_set(inst, budget)
            per_period = sum(math.comb(G, k) for k in range(g_pv + 1)) * sum(
                math.comb(G, k) for k in range(g_wind + 1)
            )
            assert len(members) == per_period ** periods
            assert count_realizations(inst, budget) == len(members)
            assert len({m.key() for m in members}) == len(members)


def _synthetic_regions(G, periods):
    from robustgrid.model import (
        CapacityFactorBundle,
        DemandSeries,
        NetworkInstance,
        Node,
        Period,
        RenewableUnit,
        TimeGrid,
        WeatherRegion,
    )

    steps = 2 * periods
    nodes = tuple(
        Node(f"n{k}", region=f"R{k}", is_reference=(k == 0)) for k in range(G)
    )
    return NetworkInstance(
        nodes=nodes,
        lines=(),
        renewables=tuple(
            RenewableUnit(
                id=f"pv{k}", node=f"n{k}", technology="solar_pv", region=f"R{k}",
                annualized_cost=1.0,
                cf=CapacityFactorBundle(
                    reference=(0.5,) * steps, deviation=(0.1,) * steps
                ),
            )
            for k in range(G)
        ),
        conventionals=(),
        hydros=(),
        batteries=(),
        hydrogens=(),
        demand=DemandSeries(by_node={"n0": (1.0,) * steps}),
        regions=tuple(WeatherRegion(f"R{k}", nodes=(f"n{k}",)) for k in range(G)),
        shedding=toys.DEFAULT_SHEDDING,
        timegrid=TimeGrid(
            step_count=steps,
            step_hours=1.0,
            periods=tuple(
                Period(f"p{j + 1}", 2 * j, 2 * j + 1) for j in range(periods)
            ),
        ),
    )


def test_enumeration_cap_enforced():
    inst = _synthetic_regions(4, 2)
    with pytest.raises(EnumerationCapError):
        enumerate_set(inst, UncertaintyBudget(4, 4), cap=100)


@pytest.mark.parametrize("G", [1, 2, 3, 4])
@pytest.mark.parametrize("periods", [1, 2])
def test_maximal_sets_fill_every_group(G, periods):
    inst = _synthetic_regions(G, periods)
    pids = [p.id for p in inst.timegrid.periods]
    for g_pv in range(G + 2):
        for g_wind in range(G + 2):
            budget = UncertaintyBudget(g_pv, g_wind)
            full_pv, full_wind = min(g_pv, G), min(g_wind, G)
            members = maximal_sets(inst, budget)
            assert len(members) == (
                math.comb(G, full_pv) ** periods * math.comb(G, full_wind) ** periods
            )
            assert len({m.key() for m in members}) == len(members)
            for m in members:
                for pid in pids:
                    assert sum(1 for t, _, p in m.flags if t == PV and p == pid) == full_pv
                    assert sum(1 for t, _, p in m.flags if t == WIND and p == pid) == full_wind


@pytest.mark.parametrize("G, periods", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_every_member_lies_in_a_maximal_set(G, periods):
    inst = _synthetic_regions(G, periods)
    for budget in (UncertaintyBudget(1, 1), UncertaintyBudget(2, 1), UncertaintyBudget(1, 0)):
        tops = [m.flags for m in maximal_sets(inst, budget)]
        everything = {m.flags for m in enumerate_set(inst, budget)}
        assert set(tops) <= everything
        for flags in everything:
            assert any(flags <= top for top in tops)


def test_maximal_sets_cap_enforced():
    inst = _synthetic_regions(3, 2)
    budget = UncertaintyBudget(1, 1)
    assert len(maximal_sets(inst, budget, cap=81)) == 81
    with pytest.raises(EnumerationCapError, match="81 maximal realizations"):
        maximal_sets(inst, budget, cap=80)


def test_member_order_is_pinned():
    # certify_run and the referee take the earliest member on ties, so the
    # order is behaviour. Each code gives a member's region per (tech,
    # period) group, "-" for none: the first group varies slowest, and a
    # group runs from no flag to more, regions in declaration order.
    groups = [(PV, "p1"), (WIND, "p1"), (PV, "p2"), (WIND, "p2")]

    def decode(codes):
        return [
            frozenset((tech, f"R{c}", pid) for (tech, pid), c in zip(groups, code) if c != "-")
            for code in codes.split()
        ]

    inst = _synthetic_regions(2, 2)
    budget = UncertaintyBudget(1, 1)
    assert [m.flags for m in maximal_sets(inst, budget)] == decode("""
        0000 0001 0010 0011 0100 0101 0110 0111
        1000 1001 1010 1011 1100 1101 1110 1111
    """)
    assert [m.flags for m in enumerate_set(inst, budget)] == decode("""
        ---- ---0 ---1 --0- --00 --01 --1- --10 --11
        -0-- -0-0 -0-1 -00- -000 -001 -01- -010 -011
        -1-- -1-0 -1-1 -10- -100 -101 -11- -110 -111
        0--- 0--0 0--1 0-0- 0-00 0-01 0-1- 0-10 0-11
        00-- 00-0 00-1 000- 0000 0001 001- 0010 0011
        01-- 01-0 01-1 010- 0100 0101 011- 0110 0111
        1--- 1--0 1--1 1-0- 1-00 1-01 1-1- 1-10 1-11
        10-- 10-0 10-1 100- 1000 1001 101- 1010 1011
        11-- 11-0 11-1 110- 1100 1101 111- 1110 1111
    """)


def _patchy_regions(G):
    """_synthetic_regions(G, 2) with gaps in what a flag can lower.

    Wind units stand only in the even regions, R1's solar unit cannot
    deviate in p2, and the regions are declared in reverse, so declaration
    order is not sorted order.
    """
    from robustgrid.model import CapacityFactorBundle, RenewableUnit

    inst = _synthetic_regions(G, 2)
    solar = tuple(
        dataclasses.replace(u, cf=CapacityFactorBundle(
            reference=u.cf.reference, deviation=(0.1, 0.1, 0.0, 0.0)
        )) if u.region == "R1" else u
        for u in inst.renewables
    )
    wind = tuple(
        RenewableUnit(
            id=f"w{k}", node=f"n{k}", technology="wind_onshore", region=f"R{k}",
            annualized_cost=1.0,
            cf=CapacityFactorBundle(reference=(0.4,) * 4, deviation=(0.2,) * 4),
        )
        for k in range(0, G, 2)
    )
    return inst.replace(
        renewables=solar + wind, regions=tuple(reversed(inst.regions))
    )


def _lowers_something(inst, flag):
    reference = realize(inst, WorstCaseRealization.reference())
    return realize(inst, WorstCaseRealization(frozenset({flag}))) != reference


@pytest.mark.parametrize("G", [3, 4])
def test_complete_adds_live_flags_in_declaration_order(G):
    inst = _patchy_regions(G)
    every_flag = {
        (tech, g, p.id)
        for tech in (PV, WIND)
        for g in inst.region_ids()
        for p in inst.timegrid.periods
    }
    live = {f for f in every_flag if _lowers_something(inst, f)}
    assert live < every_flag
    rng = random.Random(G)
    for g_pv in range(G + 2):
        for g_wind in range(G + 2):
            budget = UncertaintyBudget(g_pv, g_wind)
            members = enumerate_set(inst, budget.clamp(G))
            for member in rng.sample(members, min(20, len(members))):
                flags = member.flags & live
                cut = complete(inst, flags, budget)
                assert flags <= cut
                check_flags(inst, cut, budget)
                for tech in (PV, WIND):
                    for pid in ("p1", "p2"):
                        group = [g for g in inst.region_ids() if (tech, g, pid) in live]
                        held = [g for g in group if (tech, g, pid) in flags]
                        added = [g for g in inst.region_ids()
                                 if (tech, g, pid) in cut - flags]
                        fill = min(budget.limit(tech), len(group))
                        assert len(held) + len(added) == fill
                        assert added == [g for g in group if g not in held][:len(added)]


@pytest.mark.parametrize("G", [3, 4])
def test_complete_leaves_full_groups_alone(G):
    inst = _synthetic_regions(G, 2)
    for budget in (UncertaintyBudget(0, 0), UncertaintyBudget(1, 0), UncertaintyBudget(2, 2)):
        for member in maximal_sets(inst, budget):
            # the instance has no wind unit, so wind groups stay empty
            live = frozenset(f for f in member.flags if f[0] == PV)
            assert complete(inst, live, budget) == live
    patchy = _patchy_regions(G)
    budget = UncertaintyBudget(G, G)
    cut = complete(patchy, frozenset(), budget)
    assert complete(patchy, cut, budget) == cut


@pytest.mark.parametrize("G", [3, 4])
def test_cover_flags_every_live_flag_with_few_maximal_members(G):
    inst = _patchy_regions(G)
    every_flag = {
        (tech, g, p.id)
        for tech in (PV, WIND)
        for g in inst.region_ids()
        for p in inst.timegrid.periods
    }
    live = {f for f in every_flag if _lowers_something(inst, f)}
    assert live < every_flag
    # each (tech, period) group's live regions, in declaration order
    groups = {
        (tech, p.id): [g for g in inst.region_ids() if (tech, g, p.id) in live]
        for tech in (PV, WIND)
        for p in inst.timegrid.periods
    }
    for g_pv in range(G + 2):
        for g_wind in range(G + 2):
            budget = UncertaintyBudget(g_pv, g_wind)
            members = cover(inst, budget)
            fill = {
                (tech, pid): min(budget.limit(tech), len(regions))
                for (tech, pid), regions in groups.items()
            }
            expected = max(
                (math.ceil(len(groups[key]) / k) for key, k in fill.items() if k > 0),
                default=1,
            )
            assert len(members) == expected <= G
            assert len({m.key() for m in members}) == len(members)
            assert members[0].flags == complete(inst, frozenset(), budget)
            for m in members:
                check_flags(inst, m.flags, budget)
                assert m.flags <= live
                # maximal among live flags: every group is full
                for (tech, pid), k in fill.items():
                    assert sum(1 for t, _, p in m.flags if (t, p) == (tech, pid)) == k
            flagged = frozenset().union(*(m.flags for m in members))
            assert flagged == {f for f in live if budget.limit(f[0]) > 0}


@pytest.mark.parametrize("periods", [1, 2, 3])
@pytest.mark.parametrize("G", [1, 2, 3, 5])
def test_cover_count_is_the_longest_round_robin(G, periods):
    # every group has G live regions: ceil(G / gamma) members, whatever
    # the number of periods
    inst = _synthetic_regions(G, periods)
    for gamma in range(1, G + 2):
        members = cover(inst, UncertaintyBudget(gamma, gamma))
        assert len(members) == math.ceil(G / min(gamma, G)) <= G
        first = [g for g in inst.region_ids() if (PV, g, "p1") in members[0].flags]
        assert first == inst.region_ids()[:min(gamma, G)]


@pytest.mark.parametrize(
    "make",
    [toys.single_node, toys.two_region, toys.two_period_battery,
     toys.three_region_hydro, toys.symmetric_pair],
    ids=lambda make: make.__name__,
)
def test_cover_is_the_reference_without_a_group_to_flag(make):
    inst = make()
    assert cover(inst, UncertaintyBudget(0, 0)) == [WorstCaseRealization.reference()]
    flat = inst.replace(renewables=tuple(
        dataclasses.replace(u, cf=dataclasses.replace(
            u.cf, deviation=(0.0,) * len(u.cf.deviation)
        ))
        for u in inst.renewables
    ))
    assert cover(flat, UncertaintyBudget(2, 2)) == [WorstCaseRealization.reference()]


def test_every_member_respects_budget():
    inst = _synthetic_regions(3, 2)
    budget = UncertaintyBudget(2, 1)
    for m in enumerate_set(inst, budget):
        for pid in ("p1", "p2"):
            pv_hits = sum(1 for t, g, p in m.flags if t == PV and p == pid)
            wind_hits = sum(1 for t, g, p in m.flags if t == WIND and p == pid)
            assert pv_hits <= 2 and wind_hits <= 1


# --- classification ------------------------------------------------------

def test_dunkelflaute_requires_both_techs():
    both = WorstCaseRealization(frozenset({(PV, "R1", "p1"), (WIND, "R1", "p1")}))
    only_pv = WorstCaseRealization(frozenset({(PV, "R1", "p1")}))
    assert is_dunkelflaute(both, "R1", "p1")
    assert not is_dunkelflaute(only_pv, "R1", "p1")
    assert not is_dunkelflaute(both, "R2", "p1")


def test_summary_is_sorted_and_stable():
    real = WorstCaseRealization(
        frozenset({(WIND, "R2", "p1"), (PV, "R1", "p1")})
    )
    assert real.summary() == "pv:R1@p1 wind:R2@p1"
    assert WorstCaseRealization.reference().summary() == "-"
