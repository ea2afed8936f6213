"""Seeded planning instances for the benchmark workloads.

The shape follows the bundled six-region fixture (tests/fixtures/gen_toy6.py):
two nodes per weather region, a PV unit on the first and a wind unit on the
second, an intra-region DC tie, and a chain of deliberately tight DC ties
between neighbouring regions, with regional demand decaying geometrically
from the first region. Deviations remove part of the availability, never
all of it, so worst-case duals stay off the big-M bounds.

The seed changes every number the solver sees through two exact
invariances of the planning problem, so that the amount of work (CCG
iterations, model sizes) is the same for every seed and the robust
optimum is known in closed form:

* one factor scales demand and every existing or capped capacity; every
  dispatch and investment quantity, and so the objective, scales with it;
* a second factor per renewable unit scales its capacity-factor reference
  and deviation together with its annualized cost; the unit's capacity
  shrinks by the same factor, so availability, cost and objective are
  unchanged.

Both factors are powers of two, which binary floating point multiplies
exactly. Any other change of the numbers moves the CCG path: random
jitter of 0.1 % to 1 % on demand and capacity factors, or a common scale
drawn from [0.9, 1.1], took the six-region full-budget run anywhere from
14 to 33 iterations, because the worst case is picked among many
near-tied realizations. Timings from such seeds measure the instance, not
the code. A common scale of 4 also moved it (15 to 20 iterations), as the
solver's absolute tolerances start to matter, so the scale stays within
one factor of two of the base instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from robustgrid.model import (
    BatteryUnit,
    CapacityFactorBundle,
    ConventionalUnit,
    DemandSeries,
    HydrogenUnit,
    Line,
    LoadSheddingPolicy,
    NetworkInstance,
    Node,
    Period,
    RenewableUnit,
    TimeGrid,
    WeatherRegion,
)

STEP_HOURS = 24.0
SCALES = (0.5, 1.0, 2.0)

# (reference, deviation) per period parity, as in the six-region fixture
PV_CF = ((0.45, 0.30), (0.40, 0.26))
WIND_CF = ((0.38, 0.22), (0.44, 0.26))


@dataclass(frozen=True)
class Shape:
    regions: int
    periods: int
    steps_per_period: int


def _factors(seed: int | None, units: int) -> tuple[float, list[float]]:
    """The common scale and one factor per renewable unit."""
    if seed is None:
        return 1.0, [1.0] * units
    rng = random.Random(seed)
    return rng.choice(SCALES), [rng.choice(SCALES) for _ in range(units)]


def objective_scale(seed: int | None) -> float:
    """Factor by which the seed scales the robust optimum of any shape."""
    return _factors(seed, 0)[0]


def build(shape: Shape, seed: int | None) -> NetworkInstance:
    """A toy6-shaped instance: `shape.regions` regions of two nodes each.

    seed None gives the base instance, whose factors are all one.
    """
    if min(shape.regions, shape.periods, shape.steps_per_period) < 1:
        raise ValueError(f"every dimension of {shape} must be positive")
    scale, unit_factors = _factors(seed, 2 * shape.regions)
    unit_factors = iter(unit_factors)
    steps = shape.periods * shape.steps_per_period

    def cf_series(per_period, factor):
        ref, dev = [], []
        for p in range(shape.periods):
            r, d = per_period[p % 2]
            ref += [r * factor] * shape.steps_per_period
            dev += [d * factor] * shape.steps_per_period
        return CapacityFactorBundle(reference=tuple(ref), deviation=tuple(dev))

    nodes, regions, demand, rens, lines = [], [], {}, [], []
    for k in range(shape.regions):
        rid = f"R{k + 1}"
        a, b = f"n{2 * k + 1}", f"n{2 * k + 2}"
        nodes.append(Node(a, region=rid, is_reference=(k == 0)))
        nodes.append(Node(b, region=rid))
        regions.append(WeatherRegion(rid, nodes=(a, b)))
        level = scale * 240.0 * 0.55**k
        demand[a] = (level * 0.6,) * steps
        demand[b] = (level * 0.4,) * steps
        for unit, node, tech, cost, cf in (
            (f"pv_{k + 1}", a, "solar_pv", 35.0, PV_CF),
            (f"w_{k + 1}", b, "wind_onshore", 55.0, WIND_CF),
        ):
            factor = next(unit_factors)
            rens.append(
                RenewableUnit(
                    id=unit, node=node, technology=tech, region=rid,
                    annualized_cost=cost * factor, cf=cf_series(cf, factor),
                )
            )
        lines.append(
            Line(f"t{k + 1}", "dc", a, b, susceptance=1.0,
                 existing_cap=12.0 * scale, expansion_cost=3.0,
                 expansion_limit=12.0 * scale)
        )
    for k in range(shape.regions - 1):
        tie = scale * 3.0 * 0.6**k
        lines.append(
            Line(f"x{k + 1}{k + 2}", "dc", f"n{2 * k + 2}", f"n{2 * k + 3}",
                 susceptance=1.0, existing_cap=tie, expansion_cost=8.0,
                 expansion_limit=tie)
        )

    conventionals = [
        ConventionalUnit("gas_1", "n2", existing_cap=6.0 * scale, variable_cost=80.0)
    ]
    if shape.regions >= 4:
        conventionals.append(
            ConventionalUnit("gas_4", "n8", existing_cap=4.0 * scale, variable_cost=85.0)
        )
    hydrogens = ()
    if shape.regions >= 2:
        hydrogens = (
            HydrogenUnit("h2_2", "n3", ocgt_cost=18.0, electrolyzer_cost=10.0,
                         storage_cost=0.6, eta_el=0.68, eta_ocgt=0.45),
        )
    return NetworkInstance(
        nodes=tuple(nodes),
        lines=tuple(lines),
        renewables=tuple(rens),
        conventionals=tuple(conventionals),
        hydros=(),
        batteries=(
            BatteryUnit("bat_1", "n1", inverter_cost=20.0, storage_cost=5.0,
                        efficiency=0.9),
        ),
        hydrogens=hydrogens,
        demand=DemandSeries(by_node=demand),
        regions=tuple(regions),
        shedding=LoadSheddingPolicy(
            fractions=(0.05, 0.15, 0.80), costs=(1000.0, 3000.0, 12000.0)
        ),
        timegrid=TimeGrid(
            step_count=steps,
            step_hours=STEP_HOURS,
            periods=tuple(
                Period(f"p{p + 1}", p * shape.steps_per_period,
                       (p + 1) * shape.steps_per_period - 1)
                for p in range(shape.periods)
            ),
        ),
    )
