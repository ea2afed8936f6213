"""Domain model for the planning engine.

Immutable descriptions of the network (nodes, lines), the technology fleet
(renewables, conventionals, hydro, batteries, hydrogen chains), demand,
weather regions, the load shedding policy, and the time grid. Everything a
builder or solver needs is carried here; construction-time series are stored
as tuples of floats so instances compare field-by-field and cannot be
mutated behind a solver's back.

Conventions
-----------
- Capacities are MW, storage energy capacities MWh, costs EUR per MW (or MWh)
  and year for investments, EUR per MWh for variable and shedding costs.
- Demand is energy per step (MWh). Power ratings are multiplied by the step
  length in hours wherever they bound an energy-per-step variable.
- Time steps are indexed 0..T-1 internally; period bounds in input files are
  1-based and inclusive.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

__all__ = [
    "Node",
    "Line",
    "CapacityFactorBundle",
    "RenewableUnit",
    "ConventionalUnit",
    "HydroUnit",
    "BatteryUnit",
    "HydrogenUnit",
    "DemandSeries",
    "LoadSheddingPolicy",
    "WeatherRegion",
    "Period",
    "TimeGrid",
    "NetworkInstance",
    "Violation",
    "validate",
    "require_valid",
    "describe_violations",
    "annualize_cost",
    "PV",
    "WIND",
    "tech_class",
]

# Uncertainty technology classes: solar is one class, onshore and offshore
# wind share the second so a single wind budget covers both.
PV = "pv"
WIND = "wind"

_RENEWABLE_TECHNOLOGIES = ("solar_pv", "wind_onshore", "wind_offshore")
_HYDRO_KINDS = ("ror", "rsv", "psp")
_LINE_KINDS = ("ac", "dc")


def tech_class(technology: str) -> str:
    """Map a renewable technology name to its uncertainty class (pv/wind)."""
    if technology == "solar_pv":
        return PV
    if technology in ("wind_onshore", "wind_offshore"):
        return WIND
    raise ValueError(f"unknown renewable technology: {technology!r}")


@dataclass(frozen=True)
class Node:
    """Bus of the network; region names the weather region covering it."""

    id: str
    name: str = ""
    region: str = ""
    is_reference: bool = False


@dataclass(frozen=True)
class Line:
    """Transmission corridor between two nodes.

    AC lines obey the linearized power flow coupling (flow proportional to
    the angle difference via the susceptance); DC lines are free transport
    within their rating. Expansion adds to existing_cap at expansion_cost
    and is limited by expansion_limit.
    """

    id: str
    kind: str
    from_node: str
    to_node: str
    susceptance: float
    existing_cap: float
    expansion_cost: float
    expansion_limit: float


@dataclass(frozen=True)
class CapacityFactorBundle:
    """Per-step availability data of one renewable unit.

    reference is the expected series, deviation the per-step drop applied
    when the unit's region is hit in the step's period (reference minus
    deviation is the historical lower bound).
    """

    reference: tuple[float, ...]
    deviation: tuple[float, ...]


@dataclass(frozen=True)
class RenewableUnit:
    id: str
    node: str
    technology: str
    region: str
    annualized_cost: float
    cf: CapacityFactorBundle
    expansion_limit: float | None = None


@dataclass(frozen=True)
class ConventionalUnit:
    id: str
    node: str
    existing_cap: float
    variable_cost: float


@dataclass(frozen=True)
class HydroUnit:
    """Existing hydro plant: run-of-river, reservoir, or pumped storage.

    availability applies to reservoirs only; storage_scale (hours of energy
    storage per MW) and efficiency apply to pumped storage only. Pumped
    storage starts half full.
    """

    id: str
    node: str
    kind: str
    existing_cap: float
    availability: tuple[float, ...] | None = None
    storage_scale: float | None = None
    efficiency: float | None = None


@dataclass(frozen=True)
class BatteryUnit:
    id: str
    node: str
    inverter_cost: float
    storage_cost: float
    efficiency: float
    inverter_limit: float | None = None
    storage_limit: float | None = None


@dataclass(frozen=True)
class HydrogenUnit:
    """Hydrogen chain: electrolyzer charges a tank, an OCGT discharges it.

    Charging multiplies by eta_el; discharging draws level divided by
    eta_ocgt per unit of electricity produced.
    """

    id: str
    node: str
    ocgt_cost: float
    electrolyzer_cost: float
    storage_cost: float
    eta_el: float
    eta_ocgt: float
    ocgt_limit: float | None = None
    el_limit: float | None = None
    storage_limit: float | None = None


@dataclass(frozen=True)
class DemandSeries:
    """Nodal demand, MWh per step. Nodes missing from by_node consume zero."""

    by_node: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def at(self, node_id: str, t: int) -> float:
        series = self.by_node.get(node_id)
        return series[t] if series is not None else 0.0

    def total(self) -> float:
        return float(sum(sum(s) for s in self.by_node.values()))


@dataclass(frozen=True)
class LoadSheddingPolicy:
    """Three-tier stepwise shedding curve.

    Tier k may curtail up to fractions[k] of nodal demand per step at
    costs[k] EUR/MWh. Costs may be overridden per node; fractions are
    uniform. validate requires the fractions to sum to at least 1, so every
    dispatch is feasible: shedding alone can cover all demand.
    """

    fractions: tuple[float, float, float]
    costs: tuple[float, float, float]
    node_costs: dict[str, tuple[float, float, float]] = field(default_factory=dict)

    def costs_at(self, node_id: str) -> tuple[float, float, float]:
        return self.node_costs.get(node_id, self.costs)


@dataclass(frozen=True)
class WeatherRegion:
    id: str
    nodes: tuple[str, ...] = ()
    name: str = ""


@dataclass(frozen=True)
class Period:
    """Contiguous run of steps that may carry a low-availability event.

    start/end are 0-based inclusive step indices.
    """

    id: str
    start: int
    end: int

    def steps(self) -> range:
        return range(self.start, self.end + 1)

    def __contains__(self, t: int) -> bool:
        return self.start <= t <= self.end


@dataclass(frozen=True)
class TimeGrid:
    step_count: int
    step_hours: float
    periods: tuple[Period, ...] = ()

    def period_of(self, t: int) -> Period | None:
        for p in self.periods:
            if t in p:
                return p
        return None


@dataclass(frozen=True)
class NetworkInstance:
    nodes: tuple[Node, ...]
    lines: tuple[Line, ...]
    renewables: tuple[RenewableUnit, ...]
    conventionals: tuple[ConventionalUnit, ...]
    hydros: tuple[HydroUnit, ...]
    batteries: tuple[BatteryUnit, ...]
    hydrogens: tuple[HydrogenUnit, ...]
    demand: DemandSeries
    regions: tuple[WeatherRegion, ...]
    shedding: LoadSheddingPolicy
    timegrid: TimeGrid

    def node_ids(self) -> list[str]:
        return [n.id for n in self.nodes]

    def units(self) -> tuple:
        """Every unit of the five families, family by family in declaration order."""
        return (
            *self.renewables, *self.conventionals, *self.hydros, *self.batteries, *self.hydrogens
        )

    def region_ids(self) -> list[str]:
        return [g.id for g in self.regions]

    def reference_node(self) -> Node:
        refs = [n for n in self.nodes if n.is_reference]
        if len(refs) != 1:
            raise ValueError(f"expected exactly one reference node, found {len(refs)}")
        return refs[0]

    def region_of_node(self, node_id: str) -> str | None:
        for g in self.regions:
            if node_id in g.nodes:
                return g.id
        return None

    def replace(self, **changes) -> "NetworkInstance":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class Violation:
    """One failed invariant: the entity it concerns, the rule, and detail."""

    entity: str
    rule: str
    detail: str = ""

    def __str__(self) -> str:
        text = f"{self.entity}: {self.rule}"
        return f"{text} ({self.detail})" if self.detail else text


def _check_series(
    out: list[Violation],
    entity: str,
    slug: str,
    series: tuple[float, ...],
    length: int,
    lo: float | None = None,
    hi: float | None = None,
) -> None:
    if len(series) != length:
        out.append(
            Violation(entity, f"{slug}_length", f"{len(series)} != {length}")
        )
        return
    for t, v in enumerate(series):
        if not math.isfinite(v):
            out.append(Violation(entity, f"{slug}_finite", f"step {t}"))
            return
        if lo is not None and v < lo:
            rule = f"{slug}_negative" if lo == 0.0 else f"{slug}_range"
            out.append(Violation(entity, rule, f"step {t}: {v} below {lo}"))
            return
        if hi is not None and v > hi:
            out.append(Violation(entity, f"{slug}_range", f"step {t}: {v} above {hi}"))
            return


# The rules a line or unit field answers to by its name; the first match wins.
_NAMED_RULES = (
    (lambda name: name in ("node", "from_node", "to_node"), "unknown_node"),
    (lambda name: name == "existing_cap", "negative_capacity"),
    (lambda name: name.endswith("_limit"), "negative_limit"),
    (lambda name: name.endswith("_cost"), "negative_cost"),
    (lambda name: name == "efficiency" or name.startswith("eta_"), "efficiency"),
)


@functools.cache
def _field_rules(cls) -> tuple[tuple[str, str | None], ...]:
    return tuple(
        (f.name, next((rule for test, rule in _NAMED_RULES if test(f.name)), None))
        for f in dataclasses.fields(cls)
    )


def _check_fields(out: list[Violation], entity, node_ids: set[str]) -> None:
    """Apply the named rules and finiteness to a line's or unit's fields; None is unset."""
    for name, rule in _field_rules(type(entity)):
        value = getattr(entity, name)
        if rule == "unknown_node":
            if value not in node_ids:
                out.append(Violation(entity.id, rule, value))
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if not (math.isfinite(value) or (rule == "negative_limit" and value == math.inf)):
            out.append(Violation(entity.id, f"{name}_finite", str(value)))
        # an efficiency lies in (0, 1]; every other named number is nonnegative
        elif (not 0 < value <= 1) if rule == "efficiency" else (rule and value < 0):
            out.append(Violation(entity.id, rule, f"{name} = {value}"))


def validate(inst: NetworkInstance) -> list[Violation]:
    """Check every structural invariant; return all violations found.

    An empty list means the instance is internally consistent: identifiers
    unique and resolvable, exactly one reference node, regions partitioning
    the node set, series lengths matching the time grid, capacity-factor
    bundles consistent, and period layout sane. Line and unit fields are
    checked by name: every number finite (a *_limit may be +inf); node,
    from_node and to_node name a node (unknown_node); existing_cap
    (negative_capacity), every set *_limit (negative_limit) and every *_cost
    (negative_cost) nonnegative; every set efficiency and eta_* in (0, 1]
    (efficiency). Shedding tiers are finite and increasing, and their
    fractions sum to at least 1 so shedding can cover all demand.
    Violations are data, not exceptions.
    """
    out: list[Violation] = []
    T = inst.timegrid.step_count

    node_ids = set(inst.node_ids())
    # One id space for all units: every family keys its dispatch columns ("gen", id, t).
    for kind, entities in (
        ("node", inst.nodes), ("line", inst.lines), ("unit", inst.units()),
        ("region", inst.regions), ("period", inst.timegrid.periods),
    ):
        seen: set[str] = set()
        for e in entities:
            if e.id in seen:
                out.append(Violation(e.id, "duplicate_id", f"{kind} id used twice"))
            seen.add(e.id)
    for e in (*inst.lines, *inst.units()):
        _check_fields(out, e, node_ids)
    refs = [n for n in inst.nodes if n.is_reference]
    if len(refs) != 1:
        out.append(
            Violation("nodes", "reference_node", f"need exactly one, found {len(refs)}")
        )

    region_ids = set(inst.region_ids())
    assigned: dict[str, str] = {}
    for g in inst.regions:
        for nid in g.nodes:
            if nid not in node_ids:
                out.append(Violation(g.id, "unknown_node", nid))
            elif nid in assigned:
                out.append(
                    Violation(nid, "region_overlap", f"in {assigned[nid]} and {g.id}")
                )
            else:
                assigned[nid] = g.id
    for n in inst.nodes:
        if n.id not in assigned:
            out.append(Violation(n.id, "region_cover", "node in no region"))
        elif n.region and n.region != assigned[n.id]:
            out.append(
                Violation(n.id, "region_mismatch", f"{n.region} vs {assigned[n.id]}")
            )

    for line in inst.lines:
        if line.kind not in _LINE_KINDS:
            out.append(Violation(line.id, "line_kind", line.kind))
        if line.kind == "ac" and line.susceptance <= 0:
            out.append(
                Violation(line.id, "susceptance", "ac line needs susceptance > 0")
            )

    for r in inst.renewables:
        if r.technology not in _RENEWABLE_TECHNOLOGIES:
            out.append(Violation(r.id, "technology", r.technology))
        if r.region not in region_ids:
            out.append(Violation(r.id, "unknown_region", r.region))
        _check_series(out, r.id, "cf", r.cf.reference, T, 0.0, 1.0)
        _check_series(out, r.id, "deviation", r.cf.deviation, T, 0.0, None)
        if len(r.cf.reference) == len(r.cf.deviation) == T:
            for t in range(T):
                if r.cf.deviation[t] > r.cf.reference[t] + 1e-12:
                    out.append(
                        Violation(
                            r.id,
                            "deviation_exceeds_reference",
                            f"step {t}: {r.cf.deviation[t]} > {r.cf.reference[t]}",
                        )
                    )
                    break

    for h in inst.hydros:
        if h.kind not in _HYDRO_KINDS:
            out.append(Violation(h.id, "hydro_kind", h.kind))
        if h.kind in ("rsv", "ror"):
            if h.availability is None:
                out.append(Violation(h.id, "availability", "series required"))
            else:
                _check_series(out, h.id, "availability", h.availability, T, 0.0, 1.0)
        elif h.availability is not None:
            out.append(
                Violation(h.id, "availability", "only run-of-river and reservoirs")
            )
        if h.kind == "psp":
            if h.storage_scale is None or h.storage_scale <= 0:
                out.append(Violation(h.id, "storage_scale", "need a positive value"))
            if h.efficiency is None:
                out.append(Violation(h.id, "efficiency", "need a value in (0, 1]"))
        elif h.storage_scale is not None or h.efficiency is not None:
            out.append(Violation(h.id, "psp_fields", "only pumped storage takes these"))

    for nid, series in inst.demand.by_node.items():
        if nid not in node_ids:
            out.append(Violation(nid, "unknown_node", "demand series"))
        _check_series(out, nid, "demand", series, T, 0.0, None)

    f1, f2, f3 = inst.shedding.fractions
    if not (0 <= f1 < f2 < f3 < math.inf and f1 + f2 + f3 >= 1 - 1e-12):
        detail = f"{f1}, {f2}, {f3}: need 0 <= f1 < f2 < f3 summing to at least 1"
        out.append(Violation("shedding", "shedding_fractions", detail))
    for where, (s1, s2, s3) in [("shedding", inst.shedding.costs)] + [
        (f"shedding[{nid}]", cs) for nid, cs in sorted(inst.shedding.node_costs.items())
    ]:
        if not 0 <= s1 < s2 < s3 < math.inf:
            out.append(Violation(where, "shedding_costs", f"{s1}, {s2}, {s3}"))
    for nid in inst.shedding.node_costs:
        if nid not in node_ids:
            out.append(Violation(nid, "unknown_node", "shedding override"))

    if T < 1:
        out.append(Violation("timegrid", "step_count", str(T)))
    if not 0 < inst.timegrid.step_hours < math.inf:
        out.append(Violation("timegrid", "step_hours", str(inst.timegrid.step_hours)))
    covered: set[int] = set()
    for p in inst.timegrid.periods:
        if p.start > p.end or p.start < 0 or p.end >= T:
            out.append(Violation(p.id, "period_bounds", f"[{p.start}, {p.end}]"))
            continue
        steps = set(p.steps())
        if steps & covered:
            out.append(Violation(p.id, "period_overlap"))
        covered |= steps

    return out


def describe_violations(violations: list[Violation]) -> str:
    """The one-line message that names every violation of an instance."""
    listed = "; ".join(map(str, violations))
    return f"instance violates {len(violations)} invariant(s): {listed}"


def require_valid(inst: NetworkInstance) -> None:
    """Raise ValueError listing every violation validate finds, if any."""
    violations = validate(inst)
    if violations:
        raise ValueError(describe_violations(violations))


def annualize_cost(
    overnight: float, lifetime: float, rate: float, fixed_om: float = 0.0
) -> float:
    """Annualized investment cost from overnight cost and financing terms.

    Returns overnight * CRF(rate, lifetime) + fixed_om, with the capital
    recovery factor CRF = rate * (1 + rate)^L / ((1 + rate)^L - 1) and its
    zero-rate limit 1 / L. Units follow the inputs (EUR/kW in gives
    EUR/kW/yr out).
    """
    if lifetime < 1:
        raise ValueError(f"lifetime must be at least 1 year, got {lifetime}")
    if rate < 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    if rate == 0:
        crf = 1.0 / lifetime
    else:
        growth = (1.0 + rate) ** lifetime
        crf = rate * growth / (growth - 1.0)
    return overnight * crf + fixed_om
