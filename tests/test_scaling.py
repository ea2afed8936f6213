"""Metamorphic checks: the two exact scalings of the planning problem.

Multiplying demand and every existing or capped capacity by one factor
multiplies every dispatch and investment quantity, and so the objective, by
that factor. Multiplying one renewable unit's capacity factors and its
annualized cost by a factor divides the capacity it needs by that factor,
so availability, cost and objective stay put. With powers of two binary
floating point multiplies exactly; the benchmark's seeded instances rely on
both invariances.
"""

import dataclasses

import pytest

from robustgrid.backend import ScipyBackend
from robustgrid.ccg import run_ccg
from robustgrid.model import CapacityFactorBundle, DemandSeries, validate
from robustgrid.uncertainty import UncertaintyBudget

from toys import three_region_hydro, two_period_battery, two_region

SCIPY = ScipyBackend()
TOYS = [two_region, two_period_battery, three_region_hydro]
FACTORS = [2.0, 0.5]


def _times(value, factor):
    return None if value is None else value * factor


def scaled_system(inst, f):
    """Demand and every existing or capped capacity times f."""
    R = dataclasses.replace
    return inst.replace(
        demand=DemandSeries(by_node={
            node: tuple(v * f for v in series)
            for node, series in inst.demand.by_node.items()
        }),
        lines=tuple(
            R(l, existing_cap=l.existing_cap * f, expansion_limit=l.expansion_limit * f)
            for l in inst.lines
        ),
        renewables=tuple(
            R(u, expansion_limit=_times(u.expansion_limit, f)) for u in inst.renewables
        ),
        conventionals=tuple(
            R(c, existing_cap=c.existing_cap * f) for c in inst.conventionals
        ),
        hydros=tuple(R(h, existing_cap=h.existing_cap * f) for h in inst.hydros),
        batteries=tuple(
            R(b, inverter_limit=_times(b.inverter_limit, f),
              storage_limit=_times(b.storage_limit, f))
            for b in inst.batteries
        ),
        hydrogens=tuple(
            R(h, ocgt_limit=_times(h.ocgt_limit, f), el_limit=_times(h.el_limit, f),
              storage_limit=_times(h.storage_limit, f))
            for h in inst.hydrogens
        ),
    )


def scaled_unit(inst, unit_id, f):
    """Unit unit_id's reference, deviation and cost times f, its limit over f."""

    def one(u):
        if u.id != unit_id:
            return u
        return dataclasses.replace(
            u,
            annualized_cost=u.annualized_cost * f,
            expansion_limit=_times(u.expansion_limit, 1.0 / f),
            cf=CapacityFactorBundle(
                reference=tuple(v * f for v in u.cf.reference),
                deviation=tuple(v * f for v in u.cf.deviation),
            ),
        )

    return inst.replace(renewables=tuple(one(u) for u in inst.renewables))


@pytest.mark.parametrize("f", FACTORS)
@pytest.mark.parametrize("gamma", [0, 1, 2])
@pytest.mark.parametrize("make", TOYS, ids=lambda make: make.__name__)
def test_system_scale_scales_the_objective_exactly(make, gamma, f):
    inst = make()
    budget = UncertaintyBudget(gamma, gamma)
    base, base_trace = run_ccg(inst, budget, backend=SCIPY)
    got, got_trace = run_ccg(scaled_system(inst, f), budget, backend=SCIPY)
    assert base_trace.converged and got_trace.converged
    assert got.objective == base.objective * f


@pytest.mark.parametrize("f", FACTORS)
@pytest.mark.parametrize("gamma", [0, 1, 2])
@pytest.mark.parametrize("make", TOYS, ids=lambda make: make.__name__)
def test_unit_scale_keeps_the_objective(make, gamma, f):
    inst = make()
    budget = UncertaintyBudget(gamma, gamma)
    base, base_trace = run_ccg(inst, budget, backend=SCIPY)
    assert base_trace.converged
    # a capacity factor above 1 would leave the model
    scaled = [scaled_unit(inst, u.id, f) for u in inst.renewables]
    scaled = [other for other in scaled if not validate(other)]
    assert scaled
    for other in scaled:
        got, got_trace = run_ccg(other, budget, backend=SCIPY)
        assert got_trace.converged
        assert got.objective == pytest.approx(base.objective, rel=1e-12, abs=0.0)
