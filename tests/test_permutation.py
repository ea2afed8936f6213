"""Metamorphic check: the order in which an instance lists things is immaterial.

Reversing every entity list (nodes, regions, lines and each kind of unit)
renumbers the dispatch template's columns and rows, the capacity keys and
the flag ranks, but describes the same system, so the robust optimum must
not move. CCG may reach it along another path (ties between worst cases can
break the other way), so only objectives are compared.
"""

import pytest

from robustgrid.backend import ScipyBackend
from robustgrid.ccg import run_ccg
from robustgrid.uncertainty import UncertaintyBudget

from toys import three_region_hydro, two_period_battery, two_region

ENTITY_LISTS = (
    "nodes", "regions", "lines", "renewables",
    "conventionals", "hydros", "batteries", "hydrogens",
)


def reversed_instance(inst):
    return inst.replace(
        **{name: tuple(reversed(getattr(inst, name))) for name in ENTITY_LISTS}
    )


@pytest.mark.parametrize("gamma", [0, 1, 2])
@pytest.mark.parametrize(
    "make", [two_region, three_region_hydro, two_period_battery],
    ids=lambda make: make.__name__,
)
def test_reversed_entity_order_keeps_the_optimum(make, gamma):
    inst = make()
    flipped = reversed_instance(inst)
    assert flipped != inst
    budget = UncertaintyBudget(gamma, gamma)
    want, want_trace = run_ccg(inst, budget, backend=ScipyBackend())
    got, got_trace = run_ccg(flipped, budget, backend=ScipyBackend())
    assert want_trace.converged and got_trace.converged
    assert got.objective == pytest.approx(want.objective, rel=1e-9)
