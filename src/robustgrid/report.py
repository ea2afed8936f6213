"""Result artifacts: solution documents, traces, realization matrices, metrics.

Everything here reads immutable solved objects and renders them into the
files a run leaves behind: `solution.json`, `trace.csv`, `realizations.txt`,
`metrics.json`, and the ladder `summary.csv`. Numeric CSV cells use a fixed
6-significant-digit policy so re-parsing a file reproduces the written
values exactly as formatted. `metrics.json` prices nothing itself: it reads
investment costs from the master's capacity table, and fuel and shedding
costs from the dispatch template's cost columns applied to the master's
dispatch of its binding block, the one the recourse duals name.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .ccg import CcgTrace, LadderEntry
from .master import MasterSolution, capacity_table, dispatch_template
from .model import PV, WIND, NetworkInstance
from .uncertainty import Flag, UncertaintyBudget, is_dunkelflaute, summary

__all__ = [
    "fmt",
    "solution_document",
    "write_solution",
    "write_trace_csv",
    "realization_matrix",
    "write_realizations",
    "report_metrics",
    "write_metrics",
    "ladder_summary_rows",
    "write_ladder_summary",
]

NET_EXPORT_TOL = 1e-6
SHED_FAMILIES = ("ls1", "ls2", "ls3")


def fmt(value: float) -> str:
    """Fixed CSV number policy: 6 significant digits."""
    return format(float(value), ".6g")


def _write_csv(path: str | Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# --- solution and trace -------------------------------------------------------

def solution_document(
    inst: NetworkInstance,
    budget: UncertaintyBudget,
    solution: MasterSolution,
    trace: CcgTrace,
) -> dict:
    """JSON-able summary of one finished run."""
    capacities = [
        {"kind": kind, "id": entity, "value": value}
        for (kind, entity), value in sorted(solution.capacities.items())
    ]
    return {
        "schema": "robustgrid-solution-1",
        "objective": solution.objective,
        "investment_cost": solution.investment_cost,
        "recourse_bound": solution.recourse_bound,
        "budget": {"gamma_pv": budget.gamma_pv, "gamma_wind": budget.gamma_wind},
        "converged": trace.converged,
        "stalled": trace.stalled,
        "iterations": len(trace.iterations),
        "seeds": len(trace.seeds),
        # inf when no search was exact (an iteration limit hit on an early
        # stop), written as null: JSON has no Infinity
        "final_gap": trace.final_gap if math.isfinite(trace.final_gap) else None,
        "message": trace.message,
        "capacities": capacities,
    }


def write_solution(
    path: str | Path,
    inst: NetworkInstance,
    budget: UncertaintyBudget,
    solution: MasterSolution,
    trace: CcgTrace,
) -> None:
    with open(path, "w") as fh:
        json.dump(solution_document(inst, budget, solution, trace), fh, indent=2)
        fh.write("\n")


def write_trace_csv(path: str | Path, trace: CcgTrace) -> None:
    """Bound progression per iteration, with the identified realization and
    whether its search was exact (1) or stopped at its target (0).
    upper_bound and gap read inf until the first exact search. seconds is
    the iteration's wall time; master_s and worst_s are the parts of it
    spent solving the master and taking the worst case (near 0 where the
    master held it, see ccg), and master_iterations the master's simplex
    iterations, blank where the backend counts none. milp_nodes is that
    search's branch-and-bound node count, blank where the iteration solved
    no MILP, and milps the MILPs it solved: 0 where the master held the
    budget's one maximal member or it was priced, or where every period
    window's few were priced, 1 for the whole horizon, and one per period
    window not priced where the search split by period."""
    rows = [
        [
            str(it.index),
            fmt(it.lower_bound),
            fmt(it.upper_bound),
            fmt(it.gap),
            summary(it.realization.flags),
            fmt(it.seconds),
            str(int(it.realization.exact)),
            fmt(it.master_s),
            "" if it.master_iterations is None else str(it.master_iterations),
            fmt(it.worst_s),
            "" if it.realization.milp_nodes is None else str(it.realization.milp_nodes),
            str(it.realization.milps),
        ]
        for it in trace.iterations
    ]
    _write_csv(
        path,
        [
            "iteration", "lower_bound", "upper_bound", "gap", "realization", "seconds",
            "exact", "master_s", "master_iterations", "worst_s", "milp_nodes", "milps",
        ],
        rows,
    )


# --- realization matrix -------------------------------------------------------

def _matrix_cell(flags: frozenset[Flag], region: str, period_id: str) -> str:
    if is_dunkelflaute(flags, region, period_id):
        return "D"
    if (PV, region, period_id) in flags:
        return "S"
    return "W" if (WIND, region, period_id) in flags else "-"


def realization_matrix(inst: NetworkInstance, trace: CcgTrace) -> str:
    """Text matrix of the seeds and of the identified adverse events.

    One row per (seed, period) for every seed that flags at least one
    region, labelled with its master block tag s<k>, then one row per
    (iteration, period) for every iteration whose identified realization
    does; one column per region. Cells: `-` untouched, `S` solar hit, `W`
    wind hit, `D` both (a Dunkelflaute). A run that neither seeds nor
    identifies an adverse event yields just the header.
    """
    regions = inst.region_ids()
    header = ["iteration", "period"] + regions
    labelled = [(f"s{k}", seed) for k, seed in enumerate(trace.seeds)] + [
        (str(it.index), it.realization.flags) for it in trace.iterations
    ]
    rows: list[list[str]] = []
    for label, flags in labelled:
        if not flags:
            continue
        for period in inst.timegrid.periods:
            cells = [_matrix_cell(flags, g, period.id) for g in regions]
            rows.append([label, period.id] + cells)
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
        for c in range(len(header))
    ]
    lines = [
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in [header] + rows
    ]
    return "\n".join(lines) + "\n"


def write_realizations(path: str | Path, inst: NetworkInstance, trace: CcgTrace) -> None:
    Path(path).write_text(realization_matrix(inst, trace))


# --- metrics ------------------------------------------------------------------

def report_metrics(inst: NetworkInstance, solution: MasterSolution) -> dict:
    """System and per-region result metrics.

    Costs and energies are taken from the master's dispatch of its binding
    block, solution.binding: the block with the largest recourse dual,
    which prices at the recourse bound and whose dispatch is cost-minimal
    at the plan (MasterSolution). So the regional picture describes the
    event the plan is built to survive. Its tag, binding_realization, is
    s<k>: for k below the run's seed count that is seed k, row s<k> of
    realizations.txt; otherwise it is the completion of the worst case
    found in iteration k minus the seed count. Prices are the master's
    own: investment from its capacity table, fuel and shedding from the
    dispatch template's cost columns. Line investment is split
    half and half between the endpoint regions. The demand total of the
    modeled horizon stands in for annual demand.
    """
    tpl = dispatch_template(inst)
    x = solution.dispatch[solution.binding].tolist()
    grid = inst.timegrid
    T, dt = grid.step_count, grid.step_hours
    caps = solution.capacities
    region = {n.id: inst.region_of_node(n.id) for n in inst.nodes}
    # unit and node ids are separate id spaces: a column's family says which it names
    unit_region = {u.id: region[u.node] for u in inst.units()}
    line_ends = {l.id: (l.from_node, l.to_node) for l in inst.lines}
    regions = inst.region_ids()

    def cap(kind: str, entity: str) -> float:
        return caps.get((kind, entity), 0.0)

    def by_region(cols, costs, region_of: dict[str, str]) -> dict[str, float]:
        out = {g: 0.0 for g in regions}
        for j, cost in zip(cols.tolist(), costs.tolist()):
            out[region_of[tpl.col_keys[j][1]]] += cost * x[j]
        return out

    # per-region cost split; sums reproduce the system totals
    inv = {g: 0.0 for g in regions}
    for (kind, entity), cost, _ in capacity_table(inst):
        if kind == "line":
            half = 0.5 * cost * cap(kind, entity)
            for node in line_ends[entity]:
                inv[region[node]] += half
        else:
            inv[unit_region[entity]] += cost * cap(kind, entity)
    fuel = by_region(tpl.fuel_cols, tpl.fuel_costs, unit_region)
    shed = by_region(tpl.shed_cols, tpl.shed_costs, region)

    system_cost = sum(inv.values()) + sum(fuel.values()) + sum(shed.values())
    share_base = system_cost if system_cost > 0 else 1.0
    region_costs = {
        g: {
            "investment": inv[g],
            "fuel": fuel[g],
            "shedding": shed[g],
            "total": inv[g] + fuel[g] + shed[g],
        }
        for g in regions
    }

    # installed capacity mix over nameplate MW, existing units included
    mw: dict[str, float] = {}
    for u in inst.renewables:
        mw[u.technology] = mw.get(u.technology, 0.0) + cap("ren", u.id)
    mw["battery_inverter"] = sum((cap("bat_inv", b.id) for b in inst.batteries), 0.0)
    mw["h2_ocgt"] = sum((cap("h2_ocgt", h.id) for h in inst.hydrogens), 0.0)
    mw["h2_electrolyzer"] = sum((cap("h2_el", h.id) for h in inst.hydrogens), 0.0)
    mw["conventional"] = sum((c.existing_cap for c in inst.conventionals), 0.0)
    mw["hydro"] = sum((h.existing_cap for h in inst.hydros), 0.0)
    total_mw = sum(mw.values())
    mix_pct = {
        k: (100.0 * v / total_mw if total_mw > 0 else 0.0) for k, v in mw.items()
    }

    # per-region energy balance in the binding block
    generation = {g: 0.0 for g in regions}
    charging = {g: 0.0 for g in regions}
    shed_mwh = {g: 0.0 for g in regions}
    for (family, entity, _), value in zip(tpl.col_keys, x):
        if family == "gen":
            generation[unit_region[entity]] += value
        elif family == "ch":
            charging[unit_region[entity]] += value
        elif family in SHED_FAMILIES:
            shed_mwh[region[entity]] += value
    demand_mwh = {g: 0.0 for g in regions}
    for n in inst.nodes:
        demand_mwh[region[n.id]] += sum(inst.demand.at(n.id, t) for t in range(T))
    region_energy = {}
    for g in regions:
        served = demand_mwh[g] - shed_mwh[g]
        net_export = generation[g] - charging[g] - served
        region_energy[g] = {
            "generation_mwh": generation[g],
            "demand_mwh": demand_mwh[g],
            "shed_mwh": shed_mwh[g],
            "charging_mwh": charging[g],
            "net_export_mwh": net_export,
            "net_exporter": bool(net_export > NET_EXPORT_TOL),
        }

    # flexibility proxies
    demand_total = inst.demand.total()
    storage_mwh = sum(cap("bat_stor", b.id) for b in inst.batteries) + sum(
        cap("h2_stor", h.id) for h in inst.hydrogens
    )
    storage_demand_ratio = storage_mwh / demand_total if demand_total > 0 else 0.0

    horizon_days = T * dt / 24.0
    h2_duration_days = {}
    for g in regions:
        deliverable = sum(
            cap("h2_stor", h.id) * h.eta_ocgt
            for h in inst.hydrogens
            if region[h.node] == g
        )
        daily = demand_mwh[g] / horizon_days if horizon_days > 0 else 0.0
        h2_duration_days[g] = deliverable / daily if daily > 0 else 0.0

    initial_mw = sum((l.existing_cap for l in inst.lines), 0.0)
    expansion_mw = sum((cap("line", l.id) for l in inst.lines), 0.0)
    transmission = {
        "initial_mw": initial_mw,
        "expansion_mw": expansion_mw,
        "expansion_pct": (
            100.0 * expansion_mw / initial_mw if initial_mw > 0 else None
        ),
    }

    return {
        "objective": solution.objective,
        "recourse_bound": solution.recourse_bound,
        "binding_realization": f"s{solution.binding}",
        "system_cost": system_cost,
        "cost_shares": {
            "investment": sum(inv.values()) / share_base,
            "fuel": sum(fuel.values()) / share_base,
            "shedding": sum(shed.values()) / share_base,
        },
        "region_costs": region_costs,
        "capacity_mw": mw,
        "capacity_mix_pct": mix_pct,
        "region_energy": region_energy,
        "storage_demand_ratio": storage_demand_ratio,
        "h2_discharge_duration_days": h2_duration_days,
        "transmission": transmission,
        "demand_mwh_total": demand_total,
    }


def write_metrics(path: str | Path, metrics: dict) -> None:
    with open(path, "w") as fh:
        json.dump(metrics, fh, indent=2)
        fh.write("\n")


# --- ladder summary -----------------------------------------------------------

def ladder_summary_rows(inst: NetworkInstance, entries: list[LadderEntry]) -> list[dict]:
    """Per-rung summary: objective, % increase over the first rung (the
    deterministic base when the ladder starts at 0), average cost per MWh
    of demand, and the rung's CCG iterations and their wall seconds, read
    from its trace. Rungs that failed to solve are skipped.
    """
    demand_total = inst.demand.total()
    rows = []
    base = None
    for entry in entries:
        if entry.solution is None:
            continue
        objective = entry.solution.objective
        if base is None:
            base = objective
        increase = 100.0 * (objective - base) / base if base > 0 else 0.0
        rows.append(
            {
                "gamma": entry.gamma,
                "objective": objective,
                "increase_pct_vs_gamma0": increase,
                "avg_cost_per_mwh": objective / demand_total if demand_total > 0 else 0.0,
                "iterations": len(entry.trace.iterations),
                "seconds": sum(it.seconds for it in entry.trace.iterations),
            }
        )
    return rows


def write_ladder_summary(path: str | Path, rows: list[dict]) -> None:
    header = [
        "gamma", "objective", "increase_pct_vs_gamma0", "avg_cost_per_mwh",
        "iterations", "seconds",
    ]
    _write_csv(
        path,
        header,
        [
            [str(r[k]) if k in ("gamma", "iterations") else fmt(r[k]) for k in header]
            for r in rows
        ],
    )
