"""Worst-case identification: the dualized dispatch under budgeted drops.

For fixed capacities the dispatch LP is dualized mechanically, row by row:
every equality row contributes a free multiplier, every <= row a nonnegative
one, and the dual objective weighs them with the numeric right-hand sides
the capacities produced. Availability is the only place a realization can
touch the primal, so in the dual it surfaces as a bilinear product of the
availability multiplier and the region flag binary; each such product is
replaced by an auxiliary variable phi capped by two rows, phi <= M z and
phi <= mu. phi is nonnegative and positively priced in a maximization, so
the optimum lifts it to min(mu, M z), which is mu * z whenever mu <= M.
The exact big-M product's other rows cannot bind: phi >= -M z and
phi >= mu - M (1 - z) are lower bounds, and phi <= mu + M (1 - z) is weaker
than phi <= mu. So M bounds only phi, never an unflagged multiplier.
Maximizing over the multipliers and the flags, subject to the per-period
budgets, prices the worst realization the budget allows.

The mechanical route means there is no hand-maintained dual formulation
that could drift from the primal: adding a row to the dispatch builder
automatically carries it here. Strong duality at fixed flags is the
arbiter that the construction is right, and verify_strong_duality checks
it on demand.

Template and stamps: the block emitter in master.py defines the dispatch
block once per instance, and the dispatch template keeps it as a
CSRMatrix. The dual constraints are that matrix transposed, with the
entries of inequality rows negated, so the dual still follows from the
emitted rows alone. Capacities only move right-hand sides, never the
matrix, so the transposed block is computed once per instance; a build
stamps the parts that depend on the capacities (dual objective, flag
binaries, budget rows, linearization rows) as arrays around it.

Split by period: dispatch steps interact only through storage levels,
each level following lvl[t] = lvl[t-1] + charge - discharge. Where every
level cap has a right-hand side of 0 (no pumped hydro, and no battery or
hydrogen energy built), each level is pinned at 0, so no step carries
energy to the next and the dispatch cost is a sum over steps. The budgets
are per period, so a realization is a free choice of flags in each period.
The worst case is then the sum of one worst case per period window
(period_windows): steps outside every period join a window but carry no
flag. Those searches are much smaller than the whole-horizon MILP, which
branches over the product of every period's choices, and CCG stays exact
with any exact worst-case search (Zeng & Zhao 2013). Where a plan stores
energy the whole-horizon MILP runs as built.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .backend import EQ, LE, BackendError, CSRMatrix, LinearModel
from .master import (
    CapKey,
    DispatchBuild,
    build_dispatch_lp,
    dispatch_cost,
    dispatch_template,
)
from .model import (
    PV,
    WIND,
    CapacityFactorBundle,
    DemandSeries,
    NetworkInstance,
    Period,
    TimeGrid,
)
from .uncertainty import Flag, UncertaintyBudget, WorstCaseRealization, check_flags, realize

__all__ = [
    "SubproblemBuild",
    "default_big_m",
    "build_subproblem",
    "live_flags",
    "period_windows",
    "search_templates",
    "solve_subproblem",
    "verify_strong_duality",
]

log = logging.getLogger(__name__)

# Balance multipliers are bounded by the top shedding cost, and the
# availability multipliers by the balance ones, so one order of magnitude
# of headroom over the steepest tier is a safe linearization constant.
DEFAULT_BIGM_FACTOR = 10.0

# A multiplier this close to the linearization constant means the constant
# may be clipping the dual; treated as an error unless strong duality shows
# the objective is unharmed (degenerate rays can park on the bound).
SATURATION_RTOL = 1e-6


def default_big_m(inst: NetworkInstance) -> float:
    top = max(inst.shedding.costs_at(n.id)[2] for n in inst.nodes)
    return DEFAULT_BIGM_FACTOR * top


@dataclass
class SubproblemBuild:
    instance: NetworkInstance
    capacities: dict[CapKey, float]  # lines as expansion, as the master returns them
    budget: UncertaintyBudget
    big_m: float
    model: LinearModel  # column i is the multiplier of dispatch row i
    z: dict[Flag, int]
    phi: dict[int, int]  # primal row index -> auxiliary variable
    dispatch: DispatchBuild
    # one build per period window where the search splits by period, else none
    windows: list[SubproblemBuild] = field(default_factory=list)


def _csr_rows(parts, n_cols: int) -> CSRMatrix:
    """Stack row blocks, each given as (indptr, indices, data), into one CSRMatrix."""
    indptr, offset = [np.zeros(1, dtype=np.int64)], 0
    for ptr, _, _ in parts:
        indptr.append(np.asarray(ptr[1:], dtype=np.int64) + offset)
        offset += int(ptr[-1])
    indptr = np.concatenate(indptr)
    return CSRMatrix(
        indptr,
        np.concatenate([np.asarray(i, dtype=np.int64) for _, i, _ in parts]),
        np.concatenate([np.asarray(d, dtype=float) for _, _, d in parts]),
        (len(indptr) - 1, n_cols),
    )


def period_windows(inst: NetworkInstance) -> list[NetworkInstance]:
    """The horizon cut into contiguous windows, one per period, in time order.

    A window runs from its period's first step to the step before the next
    period's; steps before the first period join the first window, and the
    steps after the last period the last. Each window is the instance with
    every per-step series sliced to its steps (renewable reference and
    deviation, hydro availability, demand) and its one period moved with
    them. The windows are kept on the instance, as its dispatch template is.
    """
    windows = inst.__dict__.get("_period_windows")
    if windows is None:
        periods = sorted(inst.timegrid.periods, key=lambda p: p.start)
        bounds = [0] + [p.start for p in periods[1:]] + [inst.timegrid.step_count]
        windows = [
            _window(inst, period, start, stop)
            for period, start, stop in zip(periods, bounds, bounds[1:])
        ]
        object.__setattr__(inst, "_period_windows", windows)
    return windows


def _window(inst: NetworkInstance, period: Period, start: int, stop: int) -> NetworkInstance:
    """The instance on steps start..stop-1, with period as its only period."""
    cut = slice(start, stop)
    return inst.replace(
        renewables=tuple(
            dataclasses.replace(
                r, cf=CapacityFactorBundle(r.cf.reference[cut], r.cf.deviation[cut])
            )
            for r in inst.renewables
        ),
        hydros=tuple(
            h if h.availability is None
            else dataclasses.replace(h, availability=h.availability[cut])
            for h in inst.hydros
        ),
        demand=DemandSeries({node: series[cut] for node, series in inst.demand.by_node.items()}),
        timegrid=TimeGrid(
            step_count=stop - start,
            step_hours=inst.timegrid.step_hours,
            periods=(Period(period.id, period.start - start, period.end - start),),
        ),
    )


def _split_windows(inst: NetworkInstance) -> list[NetworkInstance]:
    """The windows a search on inst may split into: none below two periods."""
    return period_windows(inst) if len(inst.timegrid.periods) > 1 else []


def search_templates(inst: NetworkInstance) -> None:
    """Emit every dispatch template a worst-case search on inst may read:
    the instance's own and, with two periods or more, each window's.

    Call it before forking workers or starting threads that search, so the
    templates are emitted once rather than in each of them.
    """
    for each in (inst, *_split_windows(inst)):
        dispatch_template(each)


def build_subproblem(
    inst: NetworkInstance,
    capacities: dict[CapKey, float],
    budget: UncertaintyBudget,
    big_m: float | None = None,
) -> SubproblemBuild:
    """Dualize the fixed-capacity dispatch LP and couple it to the flags.

    capacities is the master's capacity map as solve_master returns it:
    lines as expansion beyond the existing capacity, every value finite and
    nonnegative (build_dispatch_lp rejects anything else). The dispatch
    right-hand sides the dual objective weighs are exactly those of
    build_dispatch_lp at these capacities and the reference capacity
    factors.

    Where the instance has two periods or more and every storage level cap
    has a right-hand side of 0 at these capacities, the build also holds
    one subproblem per period window (period_windows), which
    solve_subproblem searches in its place (module docstring).
    """
    if big_m is None:
        big_m = default_big_m(inst)
    if not big_m > 0:
        raise ValueError(f"big_m must be positive, got {big_m}")
    M = float(big_m)
    reference = {r.id: r.cf.reference for r in inst.renewables}
    disp = build_dispatch_lp(inst, capacities, reference)
    pm = disp.model
    tpl = dispatch_template(inst)
    n_dual = pm.n_rows
    eq = tpl.row_sense == EQ

    # flag binaries, only where flipping one changes the dispatch at all
    # (live_flags); indices below run over the template's ren_cap entries
    ren_cap = disp.cap_values[tpl.cap_keys[tpl.ren]]
    hit = np.flatnonzero(tpl.live(disp.cap_values))
    z_ranks, first = np.unique(tpl.ren_flags[hit], return_index=True)  # sorted flags
    n_z = len(z_ranks)
    z_flags = [tpl.flags[r] for r in z_ranks.tolist()]
    z_col = np.empty(len(tpl.flags), dtype=np.intp)
    z_col[z_ranks] = n_dual + np.arange(n_z)
    # one phi term per hit row, grouped by flag: flags in the order they
    # first appear, rows ascending within a flag
    group = np.empty(len(tpl.flags), dtype=np.intp)
    group[z_ranks[np.argsort(first)]] = np.arange(n_z)
    terms = hit[np.argsort(group[tpl.ren_flags[hit]], kind="stable")]
    phi_rows = tpl.cap_rows[tpl.ren][terms]
    phi_obj = (ren_cap * tpl.ren_dev)[terms]
    phi_z = z_col[tpl.ren_flags[terms]]
    n_phi = len(terms)
    phi_col = n_dual + n_z + np.arange(n_phi)

    # per-period budget on the number of flagged regions per technology
    budget_rows, budget_names, budget_rhs = [], [], []
    periods = sorted({flag[2] for flag in z_flags})
    for tech in (PV, WIND):
        for pid in periods:
            members = [
                n_dual + k for k, f in enumerate(z_flags) if f[0] == tech and f[2] == pid
            ]
            if members:
                budget_rows.append(members)
                budget_names.append(f"budget[{tech},{pid}]")
                budget_rhs.append(float(budget.limit(tech)))
    budget_part = (
        np.cumsum([0] + [len(r) for r in budget_rows]),
        [j for r in budget_rows for j in r],
        np.ones(sum(len(r) for r in budget_rows)),
    )

    # bilinear term per affected availability row: phi stands for mu * z,
    # capped by two rows (lin1, lin2), in that order per term:
    #   phi - M z <= 0,  phi - mu <= 0
    # the other rows of the exact product cannot bind (module docstring)
    lin_part = (
        np.arange(0, 4 * n_phi + 1, 2),
        np.column_stack([phi_z, phi_col, phi_rows, phi_col]).ravel(),
        np.tile([-M, 1.0, -1.0, 1.0], n_phi),
    )

    # one multiplier per primal row, weighted by that row's numeric rhs; the
    # dual constraints are the transposed block, one per primal column
    dual = tpl.dual_rows
    matrix = _csr_rows(
        [(dual.indptr, dual.indices, dual.data), budget_part, lin_part],
        n_dual + n_z + n_phi,
    )
    primal_free = tpl.var_lb == -math.inf

    def var_names():
        names = [
            f"lam[{name}]" if is_eq else f"mu[{name}]"
            for name, is_eq in zip(pm.row_names, eq.tolist())
        ]
        names += [f"z[{f[0]},{f[1]},{f[2]}]" for f in z_flags]
        return names + [f"phi[{pm.row_names[i]}]" for i in phi_rows.tolist()]

    def row_names():
        names = [f"dc[{name}]" for name in pm.var_names] + budget_names
        for i in phi_rows.tolist():
            name = pm.row_names[i]
            names += [f"lin1[{name}]", f"lin2[{name}]"]
        return names

    model = LinearModel(
        matrix,
        row_sense=np.concatenate([
            np.where(primal_free, EQ, LE).astype(object),
            np.full(len(budget_rows) + 2 * n_phi, LE, dtype=object),
        ]),
        row_rhs=np.concatenate([pm.var_obj, budget_rhs, np.zeros(2 * n_phi)]),
        var_lb=np.concatenate([np.where(eq, -math.inf, 0.0), np.zeros(n_z + n_phi)]),
        var_ub=np.concatenate([
            np.full(n_dual, math.inf), np.ones(n_z), np.full(n_phi, math.inf),
        ]),
        var_obj=np.concatenate([np.where(eq, pm.row_rhs, -pm.row_rhs), np.zeros(n_z), phi_obj]),
        var_binary=np.concatenate([
            np.zeros(n_dual, dtype=bool), np.ones(n_z, dtype=bool), np.zeros(n_phi, dtype=bool),
        ]),
        var_names=var_names,
        row_names=row_names,
        name="worst_case",
        sense="max",
    )
    windows = []
    if not pm.row_rhs[tpl.level_caps].any():
        windows = [
            build_subproblem(window, capacities, budget, big_m)
            for window in _split_windows(inst)
        ]
    return SubproblemBuild(
        instance=inst,
        capacities=capacities,
        budget=budget,
        big_m=big_m,
        model=model,
        z=dict(zip(z_flags, z_col[z_ranks].tolist())),
        phi=dict(zip(phi_rows.tolist(), phi_col.tolist())),
        dispatch=disp,
        windows=windows,
    )


def live_flags(inst: NetworkInstance, capacities: dict[CapKey, float]) -> list[Flag]:
    """The flags build_subproblem gives a binary at these capacities, sorted:
    those that lower the availability of some unit with capacity."""
    tpl = dispatch_template(inst)
    # a mask rather than np.unique, which without return_index loads numpy.ma
    live = np.zeros(len(tpl.flags), dtype=bool)
    live[tpl.ren_flags[tpl.live(tpl.cap_array(capacities))]] = True
    return [tpl.flags[r] for r in np.flatnonzero(live).tolist()]


def _duality_gap(
    build: SubproblemBuild, realization: WorstCaseRealization, objective: float, backend
) -> float:
    """Relative gap between a dual objective and the primal dispatch cost
    at the build's capacities under the realization's flags."""
    realized = realize(build.instance, realization)
    primal = dispatch_cost(build.instance, build.capacities, [realized], backend)[0]
    return abs(objective - primal) / max(1.0, abs(primal))


def _check_saturation(
    build: SubproblemBuild, x, flags: frozenset[Flag], objective: float, backend
) -> None:
    """Error out if the linearization constant clipped a binding multiplier.

    A multiplier parked at the constant is harmless when it sits on a
    payoff-neutral ray (full deviation makes the availability multiplier's
    net objective coefficient vanish), so before failing the solve is
    cross-checked against the primal dispatch at the chosen flags; only a
    real duality gap raises. M caps only phi, so a multiplier above M on an
    unflagged row does not distort the value; the check still flags it,
    and the cross-check clears it.
    """
    threshold = build.big_m * (1.0 - SATURATION_RTOL)
    hot = [
        build.dispatch.model.row_names[i]
        for i, pj in build.phi.items()
        if x[pj] >= threshold or x[i] >= threshold
    ]
    if not hot:
        return
    gap = _duality_gap(build, WorstCaseRealization(flags=flags), objective, backend)
    if gap > 1e-6:
        raise BackendError(
            f"big-M saturation on {len(hot)} multiplier(s) (first: {hot[0]}) "
            f"with a duality gap of {gap:.2e}; increase big_m beyond "
            f"{build.big_m:g}"
        )
    log.debug(
        "big-M saturation on %d multiplier(s) is payoff-neutral "
        "(duality gap %.2e); solution accepted", len(hot), gap
    )


def solve_subproblem(
    build: SubproblemBuild, backend, gap_tol: float = 1e-9, target: float | None = None
) -> WorstCaseRealization:
    """Maximize the dual over multipliers and flags; return the worst case.

    The returned realization carries its flags, checked against the
    budget, and, as dual_objective, the optimal dual value: the worst-case
    dispatch cost at the build's capacities; as milp_nodes, the backend's
    branch-and-bound node count.

    Given a target, the search may stop at the first realization whose dual
    value reaches it; the result is then marked exact=False, and its
    dual_objective is only a lower bound on the dispatch cost at its flags
    (phi <= mu * z for binary z, then weak duality), whatever M is. That
    holds without the saturation check, which is skipped: clipping by M can
    only lower a dual value, and a lower bound stays one.

    A build split by period (build.windows) is searched one window at a
    time, in time order: every window but the last to its optimum, and the
    last toward what the others leave of the target. The result has the
    union of their flags, the sum of their values and of their node
    counts, and is exact only where every window's search was; milps
    counts the MILPs solved, one per window.
    """
    if not build.windows:
        return _search(build, backend, gap_tol, target)
    *first, last = build.windows
    parts = [_search(window, backend, gap_tol) for window in first]
    value = sum(part.dual_objective for part in parts)
    parts.append(
        _search(last, backend, gap_tol, None if target is None else target - value)
    )
    flags = frozenset().union(*(part.flags for part in parts))
    check_flags(build.instance, flags, build.budget)
    nodes = [part.milp_nodes for part in parts]
    return WorstCaseRealization(
        flags=flags,
        dual_objective=value + parts[-1].dual_objective,
        exact=all(part.exact for part in parts),
        milp_nodes=None if None in nodes else sum(nodes),
        milps=len(parts),
    )


def _search(
    build: SubproblemBuild, backend, gap_tol: float, target: float | None = None
) -> WorstCaseRealization:
    """One worst-case MILP, over the whole of build.model."""
    res = backend.solve_milp(build.model, gap_tol=gap_tol, target=target)
    if res.status not in ("optimal", "target"):
        raise BackendError(f"worst-case solve ended {res.status}")
    objective = float(res.objective)
    flags = frozenset(flag for flag, j in build.z.items() if res.x[j] > 0.5)
    exact = res.status == "optimal"
    if exact:
        _check_saturation(build, res.x, flags, objective, backend)
    check_flags(build.instance, flags, build.budget)
    return WorstCaseRealization(
        flags=flags, dual_objective=objective, exact=exact,
        milp_nodes=res.stats.get("nodes"), milps=1,
    )


def verify_strong_duality(
    inst: NetworkInstance,
    capacities: dict[CapKey, float],
    realization: WorstCaseRealization,
    backend,
) -> float:
    """Relative gap between the dual at fixed flags and the primal dispatch.

    capacities is a master capacity map, lines as expansion, as for
    build_subproblem; both sides are priced at exactly these values.
    Flags that cannot affect the dispatch (no capacity, no deviation, or
    outside every period) carry no binary and are skipped; they change
    neither side of the comparison.
    """
    permissive = UncertaintyBudget(
        gamma_pv=len(inst.regions), gamma_wind=len(inst.regions)
    )
    build = build_subproblem(inst, capacities, permissive)
    for flag, j in build.z.items():
        value = 1.0 if flag in realization.flags else 0.0
        build.model.var_lb[j] = value
        build.model.var_ub[j] = value
    res = backend.solve_milp(build.model, gap_tol=1e-12)
    if res.status != "optimal":
        raise BackendError(f"fixed-flag dual solve ended {res.status}")
    return _duality_gap(build, realization, float(res.objective), backend)
