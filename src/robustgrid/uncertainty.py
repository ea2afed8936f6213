"""Cardinality-budgeted low-availability events.

An adverse realization picks, independently for every declared period, up
to gamma_pv weather regions whose solar units and up to gamma_wind regions
whose wind units drop from the reference capacity factor to the synthetic
lower bound (reference minus deviation) for every step of that period.
Deviations are downward only: more availability never hurts a
cost-minimizing dispatcher, so upward branches would never be active. For
the same reason a member never costs more than one whose flags contain its
own, so the maximal members (maximal_sets), which flag min(gamma, regions)
regions in every (technology, period) group, carry every worst case, and
any worst case stays one when complete fills its groups up to the budget.
cover picks a few members, maximal among the flags that lower something,
that between them flag every such flag: CCG starts from them.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

from .model import PV, WIND, NetworkInstance, tech_class

__all__ = [
    "TECH_CLASSES",
    "EnumerationCapError",
    "UncertaintyBudget",
    "WorstCaseRealization",
    "check_flags",
    "complete",
    "count_realizations",
    "cover",
    "enumerate_set",
    "is_dunkelflaute",
    "maximal_sets",
    "realize",
]

log = logging.getLogger(__name__)

TECH_CLASSES = (PV, WIND)

DEFAULT_ENUMERATION_CAP = 1_000_000


class EnumerationCapError(RuntimeError):
    """The realization set is too large to enumerate explicitly."""


@dataclass(frozen=True)
class UncertaintyBudget:
    """Per-period budgets: how many regions each technology class can lose."""

    gamma_pv: int = 0
    gamma_wind: int = 0

    def __post_init__(self):
        for name, g in (("gamma_pv", self.gamma_pv), ("gamma_wind", self.gamma_wind)):
            if not isinstance(g, int) or g < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {g!r}")

    def limit(self, tech: str) -> int:
        if tech == PV:
            return self.gamma_pv
        if tech == WIND:
            return self.gamma_wind
        raise ValueError(f"unknown technology class {tech!r}")

    def clamp(self, region_count: int) -> "UncertaintyBudget":
        """Cap both budgets at the region count, warning when that bites."""
        pv = min(self.gamma_pv, region_count)
        wind = min(self.gamma_wind, region_count)
        if (pv, wind) != (self.gamma_pv, self.gamma_wind):
            log.warning(
                "budget (%d, %d) exceeds the %d available regions; clamped to (%d, %d)",
                self.gamma_pv, self.gamma_wind, region_count, pv, wind,
            )
        return UncertaintyBudget(pv, wind)


Flag = tuple[str, str, str]  # (tech class, region id, period id)


@dataclass(frozen=True)
class WorstCaseRealization:
    """One member of the uncertainty set.

    flags holds the (tech, region, period) triples whose availability drops
    to the lower bound. dual_objective is filled in once a subproblem has
    priced the flags; exact is False when that search stopped early, at a
    realization that reached its target, so dual_objective is a lower bound
    on the worst case rather than the worst case itself. milps counts the
    MILPs of the search that found it, 0 where no search ran; milp_nodes is
    their branch-and-bound node count, None where no search ran or the
    solver did not say.
    """

    flags: frozenset[Flag] = frozenset()
    dual_objective: float | None = field(default=None, compare=False)
    exact: bool = field(default=True, compare=False)
    milp_nodes: int | None = field(default=None, compare=False)
    milps: int = field(default=0, compare=False)

    @staticmethod
    def reference() -> "WorstCaseRealization":
        return WorstCaseRealization(frozenset())

    def hits(self, tech: str, region: str, period_id: str) -> bool:
        return (tech, region, period_id) in self.flags

    def key(self) -> tuple[Flag, ...]:
        return tuple(sorted(self.flags))

    def summary(self) -> str:
        if not self.flags:
            return "-"
        return " ".join(f"{t}:{g}@{p}" for t, g, p in self.key())


def check_flags(
    inst: NetworkInstance,
    flags: frozenset[Flag],
    budget: UncertaintyBudget | None = None,
) -> None:
    """Reject flags naming unknown entities or exceeding the budget."""
    regions = set(inst.region_ids())
    periods = {p.id for p in inst.timegrid.periods}
    counts: dict[tuple[str, str], int] = {}
    for tech, region, period in flags:
        if tech not in TECH_CLASSES:
            raise ValueError(f"unknown technology class {tech!r}")
        if region not in regions:
            raise ValueError(f"unknown region {region!r}")
        if period not in periods:
            raise ValueError(f"unknown period {period!r}")
        counts[tech, period] = counts.get((tech, period), 0) + 1
    if budget is not None:
        for (tech, period), n in counts.items():
            if n > budget.limit(tech):
                raise ValueError(
                    f"budget violation: {n} regions flagged for {tech} in "
                    f"period {period}, budget allows {budget.limit(tech)}"
                )


def realize(
    inst: NetworkInstance,
    realization: WorstCaseRealization,
    budget: UncertaintyBudget | None = None,
) -> dict[str, tuple[float, ...]]:
    """Per-unit capacity-factor series under the given realization.

    On flagged (tech, region, period) triples the unit's series drops by
    its deviation for every step of that period; everywhere else it stays
    at the reference. Values are floored at 0 against roundoff.
    """
    check_flags(inst, realization.flags, budget)
    grid = inst.timegrid
    # each step's period id, or None: the first period holding it wins, as
    # in TimeGrid.period_of
    period_ids: list[str | None] = [None] * grid.step_count
    for period in reversed(grid.periods):
        for t in range(max(period.start, 0), min(period.end + 1, grid.step_count)):
            period_ids[t] = period.id
    out: dict[str, tuple[float, ...]] = {}
    for unit in inst.renewables:
        tech = tech_class(unit.technology)
        ref, dev = unit.cf.reference, unit.cf.deviation
        values = []
        for t, pid in enumerate(period_ids):
            v = ref[t]
            if pid is not None and realization.hits(tech, unit.region, pid):
                v -= dev[t]
            values.append(max(0.0, v))
        out[unit.id] = tuple(values)
    return out


def _group_sizes(inst: NetworkInstance, budget: UncertaintyBudget, maximal: bool):
    """Flag counts allowed per (tech, period) group, pv first, then wind."""
    out = []
    for gamma in (budget.gamma_pv, budget.gamma_wind):
        top = min(gamma, len(inst.regions))
        out.append(range(top, top + 1) if maximal else range(top + 1))
    return out


def _count(inst: NetworkInstance, sizes) -> int:
    G = len(inst.regions)
    per_period = 1
    for tech_sizes in sizes:
        per_period *= sum(math.comb(G, k) for k in tech_sizes)
    return per_period ** len(inst.timegrid.periods)


def _product(
    inst: NetworkInstance, sizes, cap: int, what: str
) -> list[WorstCaseRealization]:
    """Every member whose (tech, period) groups flag a count from sizes.

    Raises EnumerationCapError when the closed-form count exceeds cap, so
    callers never start a hopeless enumeration.
    """
    total = _count(inst, sizes)
    if total > cap:
        raise EnumerationCapError(
            f"{total} {what} exceed the enumeration cap of {cap}"
        )
    regions = inst.region_ids()
    pv_choices, wind_choices = (
        [frozenset(c) for k in tech_sizes for c in itertools.combinations(regions, k)]
        for tech_sizes in sizes
    )
    per_period: list[list[frozenset[Flag]]] = []
    for pid in (p.id for p in inst.timegrid.periods):
        options = []
        for pv_set, wind_set in itertools.product(pv_choices, wind_choices):
            options.append(
                frozenset(
                    [(PV, g, pid) for g in pv_set]
                    + [(WIND, g, pid) for g in wind_set]
                )
            )
        per_period.append(options)
    return [
        WorstCaseRealization(frozenset().union(*combo))
        for combo in itertools.product(*per_period)
    ]


def count_realizations(inst: NetworkInstance, budget: UncertaintyBudget) -> int:
    """Closed-form cardinality of the realization set."""
    return _count(inst, _group_sizes(inst, budget, maximal=False))


def enumerate_set(
    inst: NetworkInstance,
    budget: UncertaintyBudget,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[WorstCaseRealization]:
    """Every realization the budget admits, duplicate-free.

    Raises EnumerationCapError when the closed-form count exceeds cap.
    """
    sizes = _group_sizes(inst, budget, maximal=False)
    return _product(inst, sizes, cap, "realizations")


def maximal_sets(
    inst: NetworkInstance,
    budget: UncertaintyBudget,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[WorstCaseRealization]:
    """The members no other member contains, generated directly.

    Each flags exactly min(gamma, regions) regions in every (technology,
    period) group, so there are C(G, gamma_pv)^P * C(G, gamma_wind)^P of
    them for G regions and P periods. Every member of the budget's set is
    a subset of one of them. Raises EnumerationCapError when that count
    exceeds cap.
    """
    sizes = _group_sizes(inst, budget, maximal=True)
    return _product(inst, sizes, cap, "maximal realizations")


def _live_flags(inst: NetworkInstance) -> set[Flag]:
    """Flags that lower some unit's availability at some step of their period."""
    periods = inst.timegrid.periods
    return {
        (tech_class(unit.technology), unit.region, period.id)
        for unit in inst.renewables
        for period in periods
        if any(unit.cf.deviation[t] > 0.0 for t in period.steps())
    }


def complete(
    inst: NetworkInstance, flags: frozenset[Flag], budget: UncertaintyBudget
) -> frozenset[Flag]:
    """flags plus live flags up to the budget in every (tech, period) group.

    A group holding fewer than budget.limit(tech) flags gains further flags
    in region declaration order, each live: the region has a unit of that
    technology whose deviation is positive at some step of the period. A
    flag never lowers the dispatch cost, so at any capacities the result
    costs at least what flags cost; a worst case stays a worst case.
    """
    live = _live_flags(inst)
    out = set(flags)
    for tech in TECH_CLASSES:
        for period in inst.timegrid.periods:
            room = budget.limit(tech) - sum(
                1 for t, _, p in flags if t == tech and p == period.id
            )
            for region in inst.region_ids():
                if room <= 0:
                    break
                flag = (tech, region, period.id)
                if flag in live and flag not in out:
                    out.add(flag)
                    room -= 1
    return frozenset(out)


def cover(
    inst: NetworkInstance, budget: UncertaintyBudget
) -> list[WorstCaseRealization]:
    """A few maximal members that together flag every live flag.

    In each (tech, period) group with live regions L, in declaration order,
    and k = min(budget.limit(tech), |L|), member j flags L[(j*k + i) mod |L|]
    for i < k: the groups are walked round-robin, k regions at a time. There
    are max over groups of ceil(|L| / k) members, duplicates dropped, so never
    more than the instance has regions. Member 0 is complete(inst, {},
    budget). With no group to flag (a zero budget, or no deviation) the cover
    is the reference alone.
    """
    live = _live_flags(inst)
    groups = []
    for tech in TECH_CLASSES:
        for period in inst.timegrid.periods:
            regions = [g for g in inst.region_ids() if (tech, g, period.id) in live]
            k = min(budget.limit(tech), len(regions))
            if k > 0:
                groups.append((tech, period.id, regions, k))
    if not groups:
        return [WorstCaseRealization.reference()]
    count = max(math.ceil(len(regions) / k) for _, _, regions, k in groups)
    members = {
        frozenset(
            (tech, regions[(j * k + i) % len(regions)], pid)
            for tech, pid, regions, k in groups
            for i in range(k)
        ): None
        for j in range(count)
    }
    return [WorstCaseRealization(flags) for flags in members]


def is_dunkelflaute(
    realization: WorstCaseRealization, region: str, period_id: str
) -> bool:
    """True when both technology classes are down in the region and period."""
    return realization.hits(PV, region, period_id) and realization.hits(
        WIND, region, period_id
    )
