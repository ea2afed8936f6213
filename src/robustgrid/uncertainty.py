"""Cardinality-budgeted low-availability events.

An adverse realization picks, independently for every declared period, up
to gamma_pv weather regions whose solar units and up to gamma_wind regions
whose wind units drop from the reference capacity factor to the synthetic
lower bound (reference minus deviation) for every step of that period.
Deviations are downward only. A flag never lowers the dispatch cost at any
capacities: validate keeps 0 <= deviation <= reference and a flagged
factor is floored at 0, so a flag only lowers capacity factors, and these
enter the dispatch only through the ren_cap rows gen <= cf * cap *
step_hours, so a flag only shrinks the dispatcher's choices. Hence upward
branches would never be active, and a member never costs more than one
whose flags contain its own: the maximal members (maximal_sets), which
flag min(gamma, regions) regions in every (technology, period) group,
carry every worst case, and any worst case stays one when complete fills
its groups up to the budget.
cover picks a few members, maximal among the flags that lower something,
that between them flag every such flag: CCG starts from them.

This module alone knows two rules. step_flags names the flag that lowers
each unit at each step, for realize, complete, cover and the dispatch
template (master). flag_groups groups flags by (technology, period), and
members and member_count enumerate and count the members over any flags;
maximal_sets, enumerate_set and count_realizations apply them to every
flag of an instance, and the worst-case search to its live flags.
Everywhere a member is its flag set alone, the reference frozenset(); a
worst-case search alone returns more, a WorstCaseRealization. realize
spells flags out as per-unit series only for tests and check_block_physics.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass

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
    "flag_groups",
    "instance_flags",
    "is_dunkelflaute",
    "maximal_sets",
    "member_count",
    "members",
    "realize",
    "step_flags",
    "summary",
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
            if isinstance(g, bool) or not isinstance(g, int) or g < 0:
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
    """What a worst-case search returns: the member it found (flags) and
    its worst-case dispatch cost (dual_objective), only a lower bound on it
    where exact is False, as the search stopped early at a member that
    reached its target. milps counts the search's MILPs, 0 where it priced
    or held the member; milp_nodes sums their nodes, None without a MILP.
    held is True where the search read the member's value off a master
    that holds it, with no solve (subproblem.solve_subproblem).
    """

    flags: frozenset[Flag]
    dual_objective: float
    exact: bool = True
    milp_nodes: int | None = None
    milps: int = 0
    held: bool = False


def summary(flags: Iterable[Flag]) -> str:
    """flags as text, sorted: tech:region@period, space-separated; - for none."""
    return " ".join(f"{t}:{g}@{p}" for t, g, p in sorted(flags)) or "-"


def check_flags(
    inst: NetworkInstance,
    flags: frozenset[Flag],
    budget: UncertaintyBudget | None = None,
) -> None:
    """Reject flags naming unknown entities or exceeding the budget; the
    error names the first offender in sorted order."""
    regions = set(inst.region_ids())
    periods = {p.id for p in inst.timegrid.periods}
    flags = sorted(flags)
    for tech, region, period in flags:
        if tech not in TECH_CLASSES:
            raise ValueError(f"unknown technology class {tech!r}")
        if region not in regions:
            raise ValueError(f"unknown region {region!r}")
        if period not in periods:
            raise ValueError(f"unknown period {period!r}")
    if budget is not None:
        for (tech, period), group in flag_groups(flags).items():
            if len(group) > budget.limit(tech):
                raise ValueError(
                    f"budget violation: {len(group)} regions flagged for {tech} in "
                    f"period {period}, budget allows {budget.limit(tech)}"
                )


def realize(
    inst: NetworkInstance,
    flags: frozenset[Flag],
    budget: UncertaintyBudget | None = None,
) -> dict[str, tuple[float, ...]]:
    """Per-unit capacity-factor series under the member flags.

    On flagged (tech, region, period) triples the unit's series drops by
    its deviation for every step of that period; everywhere else it stays
    at the reference. Values are floored at 0 against roundoff.
    """
    check_flags(inst, flags, budget)
    return {
        unit.id: tuple([
            max(0.0, ref - dev if flag in flags else ref)
            for ref, dev, flag in zip(unit.cf.reference, unit.cf.deviation, unit_flags)
        ])
        for unit, unit_flags in zip(inst.renewables, step_flags(inst))
    }


def step_flags(inst: NetworkInstance) -> list[list[Flag | None]]:
    """The flag that lowers each renewable unit at each step, one list per
    unit: (its technology class, its region, the step's period), or None
    at a step outside every period."""
    period_ids = inst.timegrid.period_ids()
    return [
        [None if pid is None else (tech_class(unit.technology), unit.region, pid)
         for pid in period_ids]
        for unit in inst.renewables
    ]


def flag_groups(flags: Iterable[Flag]) -> dict[tuple[str, str], list[Flag]]:
    """flags by (tech, period) group: groups in the order of their first
    flag, and flags in the order given."""
    groups: dict[tuple[str, str], list[Flag]] = {}
    for flag in flags:
        groups.setdefault((flag[0], flag[2]), []).append(flag)
    return groups


def instance_flags(inst: NetworkInstance) -> list[Flag]:
    """Every flag of the instance: period by period, pv before wind,
    regions in declaration order."""
    return [
        (tech, region, period.id)
        for period in inst.timegrid.periods
        for tech in TECH_CLASSES
        for region in inst.region_ids()
    ]


def _sizes(tech: str, group: list[Flag], budget: UncertaintyBudget, maximal: bool) -> range:
    """The flag counts a member may take from a group."""
    top = min(budget.limit(tech), len(group))
    return range(top, top + 1) if maximal else range(top + 1)


def member_count(
    flags: Iterable[Flag], budget: UncertaintyBudget, maximal: bool = True
) -> int:
    """Closed-form count of members(flags, budget, maximal=maximal)."""
    return math.prod(
        sum(math.comb(len(group), k) for k in _sizes(tech, group, budget, maximal))
        for (tech, _), group in flag_groups(flags).items()
    )


def members(
    flags: Iterable[Flag],
    budget: UncertaintyBudget,
    cap: int = DEFAULT_ENUMERATION_CAP,
    maximal: bool = True,
) -> list[frozenset[Flag]]:
    """The members of the budget's set over flags.

    Each (tech, period) group of flags (flag_groups) may flag up to
    min(gamma, group size) of its flags, exactly that many where maximal,
    and a member takes one choice from every group. Members come in
    product order: the first group's choice varies slowest, and a group's
    choices run from fewer flags to more, each count's combinations in the
    order of the flags. Raises EnumerationCapError when member_count exceeds
    cap, so callers never start a hopeless enumeration.
    """
    flags = list(flags)
    total = member_count(flags, budget, maximal)
    if total > cap:
        what = "maximal realizations" if maximal else "realizations"
        raise EnumerationCapError(f"{total} {what} exceed the enumeration cap of {cap}")
    choices = [
        [c for k in _sizes(tech, group, budget, maximal) for c in itertools.combinations(group, k)]
        for (tech, _), group in flag_groups(flags).items()
    ]
    return [frozenset(itertools.chain(*combo)) for combo in itertools.product(*choices)]


def count_realizations(inst: NetworkInstance, budget: UncertaintyBudget) -> int:
    """Closed-form cardinality of the realization set."""
    return member_count(instance_flags(inst), budget, maximal=False)


def enumerate_set(
    inst: NetworkInstance,
    budget: UncertaintyBudget,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[frozenset[Flag]]:
    """Every realization the budget admits, duplicate-free.

    Raises EnumerationCapError when the closed-form count exceeds cap.
    """
    return members(instance_flags(inst), budget, cap, maximal=False)


def maximal_sets(
    inst: NetworkInstance,
    budget: UncertaintyBudget,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[frozenset[Flag]]:
    """The members no other member contains, generated directly.

    Each flags exactly min(gamma, regions) regions in every (technology,
    period) group, so there are C(G, gamma_pv)^P * C(G, gamma_wind)^P of
    them for G regions and P periods. Every member of the budget's set is
    a subset of one of them. Raises EnumerationCapError when that count
    exceeds cap.
    """
    return members(instance_flags(inst), budget, cap)


def _live_groups(inst: NetworkInstance) -> dict[tuple[str, str], list[Flag]]:
    """The flags that lower some unit's availability at some step of their
    period, by flag_groups, in the order of instance_flags."""
    live = {
        flag
        for unit, flags in zip(inst.renewables, step_flags(inst))
        for flag, dev in zip(flags, unit.cf.deviation)
        if flag is not None and dev > 0.0
    }
    return flag_groups(flag for flag in instance_flags(inst) if flag in live)


def complete(
    inst: NetworkInstance, flags: frozenset[Flag], budget: UncertaintyBudget
) -> frozenset[Flag]:
    """flags plus live flags up to the budget in every (tech, period) group.

    A group holding fewer than budget.limit(tech) flags gains further flags
    in region declaration order, each live: the region has a unit of that
    technology whose deviation is positive at some step of the period. As
    a flag never lowers the dispatch cost (module docstring), at any
    capacities the result costs at least what flags cost; a worst case
    stays a worst case.
    """
    given = flag_groups(flags)
    out = set(flags)
    for (tech, period), group in _live_groups(inst).items():
        room = budget.limit(tech) - len(given.get((tech, period), ()))
        out.update([flag for flag in group if flag not in out][:max(room, 0)])
    return frozenset(out)


def cover(
    inst: NetworkInstance, budget: UncertaintyBudget
) -> list[frozenset[Flag]]:
    """A few maximal members that together flag every live flag.

    In each (tech, period) group with live regions L, in declaration order,
    and k = min(budget.limit(tech), |L|), member j flags L[(j*k + i) mod |L|]
    for i < k: the groups are walked round-robin, k regions at a time. There
    are max over groups of ceil(|L| / k) members, duplicates dropped, so never
    more than the instance has regions. Member 0 is complete(inst, {},
    budget). With no group to flag (a zero budget, or no deviation) the cover
    is the reference alone.
    """
    groups = [
        (group, k)
        for (tech, _), group in _live_groups(inst).items()
        if (k := min(budget.limit(tech), len(group))) > 0
    ]
    if not groups:
        return [frozenset()]
    count = max(math.ceil(len(group) / k) for group, k in groups)
    picked = {
        frozenset(group[(j * k + i) % len(group)] for group, k in groups for i in range(k)): None
        for j in range(count)
    }
    return list(picked)


def is_dunkelflaute(flags: frozenset[Flag], region: str, period_id: str) -> bool:
    """True when both technology classes are down in the region and period."""
    return {(PV, region, period_id), (WIND, region, period_id)} <= flags
