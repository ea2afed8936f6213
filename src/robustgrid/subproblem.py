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
matrix, so the transposed block is computed once per instance; an assembly
stamps the parts that depend on the capacities (dual objective, flag
binaries, budget rows, linearization rows) as arrays around it, and reads
the dispatch rhs, costs and names from the template too, stamping no
dispatch LP on the way.

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

Where the budget leaves the adversary no choice there is no MILP. That
holds at a budget of 0, at full budget, and wherever every (technology,
period) group holds no more live flags at these capacities than its
budget allows: the one maximal member over the live flags
(uncertainty.members) then flags every live flag of the groups with a
positive budget. As a flag never lowers the dispatch cost (see
uncertainty), that member is the worst case, so one dispatch LP prices it
exactly, with no MILP and no big-M, and the horizon is not split.
Given the master solved at these capacities, as CCG gives it, the search
does not even price the member where a block of that master has the
member's live flags: the master holds its value (solve_subproblem, the
held case). The certification's worst-case search (oracle.certify_run)
gives no master, so it prices the member and referees the shortcut.

A window often leaves the adversary few choices too: its maximal members
number the product over pv and wind of C(live, min(gamma, live)), six to
twenty where one technology is built in six regions. Where they number
at most WINDOW_ENUMERATION_LIMIT, one dispatch_cost batch prices them all
on the window, and the costliest is the window's exact worst case: no
MILP, no big-M, no saturation check. Only the other windows run their
MILP.

solve_subproblem alone chooses among these routes, and build_subproblem
assembles no MILP: the dual model is assembled on first use, by the
search that solves it, so a priced build or window never pays for one.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .backend import EQ, LE, BackendError, CSRMatrix, LinearModel
from .master import CapKey, MasterSolution, dispatch_cost, dispatch_template
from .model import (
    CapacityFactorBundle,
    DemandSeries,
    NetworkInstance,
    Period,
    TimeGrid,
)
from .uncertainty import (
    Flag,
    UncertaintyBudget,
    WorstCaseRealization,
    check_flags,
    flag_groups,
    member_count,
    members,
    realize,  # no caller here: the benchmark's tracer rebinds this name
)

__all__ = [
    "SubproblemBuild",
    "default_big_m",
    "build_subproblem",
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

# A period window whose maximal members over its live flags number at most
# this many is priced, one dispatch_cost batch, instead of searched by its
# MILP. Break-even on the benchmark's seed-3 instances (2-vCPU host, scipy's
# HiGHS, medians of repeated solves): a window MILP took 7 ms on the
# 3-region 4-step windows and 22-32 ms on the 6-region 7-step ones; a batch
# took 1.6 ms + 0.06 ms per member on the former and 5.5 ms + 0.23 ms per
# member on the latter. Pricing wins up to about 89 and 69-115 members, so
# 32 keeps a margin of two or more.
WINDOW_ENUMERATION_LIMIT = 32


def default_big_m(inst: NetworkInstance) -> float:
    top = max(inst.shedding.costs_at(n.id)[2] for n in inst.nodes)
    return DEFAULT_BIGM_FACTOR * top


@dataclass
class SubproblemBuild:
    """A worst-case search at fixed capacities. Its MILP (model and phi) is
    assembled on first use, by _assemble."""

    instance: NetworkInstance
    capacities: dict[CapKey, float]  # lines as expansion, as the master returns them
    budget: UncertaintyBudget
    big_m: float
    # the live flags, sorted, each with the model column of its binary
    z: dict[Flag, int]
    # one build per period window where the search splits by period, else none
    windows: list[SubproblemBuild] = field(default_factory=list)

    @cached_property
    def _milp(self) -> tuple[LinearModel, dict[int, int]]:
        return _assemble(self)

    @property
    def model(self) -> LinearModel:
        """The dual MILP: column i is the multiplier of dispatch row i."""
        return self._milp[0]

    @property
    def phi(self) -> dict[int, int]:
        """Primal row index -> its auxiliary variable's column."""
        return self._milp[1]


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
    """A worst-case search at fixed capacities, ready for solve_subproblem.

    capacities is the master's capacity map as solve_master returns it:
    lines as expansion beyond the existing capacity, every value finite and
    nonnegative (anything else is a ValueError). The build holds the live
    flags, those that lower the availability of some unit with capacity,
    each with the column of its binary; the MILP is assembled only where a
    search solves it.

    Where the live flags leave more than one maximal member, the instance
    has two periods or more and every storage level cap has a right-hand
    side of 0 at these capacities, the build also holds one subproblem per
    period window (period_windows), which solve_subproblem searches in its
    place (module docstring).
    """
    if big_m is None:
        big_m = default_big_m(inst)
    if not big_m > 0:
        raise ValueError(f"big_m must be positive, got {big_m}")
    tpl = dispatch_template(inst)
    caps = tpl.cap_array(capacities)
    z_ranks, _, _ = tpl.live(caps)
    # the dual model's columns: one multiplier per dispatch row, then the binaries
    z = {tpl.flags[r]: tpl.n_rows + k for k, r in enumerate(z_ranks.tolist())}
    windows = []
    if member_count(z, budget) > 1 and not tpl.stores_energy(caps):
        windows = [
            build_subproblem(window, capacities, budget, big_m)
            for window in _split_windows(inst)
        ]
    return SubproblemBuild(
        instance=inst,
        capacities=capacities,
        budget=budget,
        big_m=big_m,
        z=z,
        windows=windows,
    )


def _assemble(build: SubproblemBuild) -> tuple[LinearModel, dict[int, int]]:
    """Dualize the fixed-capacity dispatch LP and couple it to the flags;
    returns the MILP and its phi map. The dual objective weighs exactly the
    rhs of build_dispatch_lp at the build's capacities and the reference
    capacity factors, and names each row as that LP does."""
    inst, budget, M = build.instance, build.budget, float(build.big_m)
    tpl = dispatch_template(inst)
    caps = tpl.cap_array(build.capacities)
    rhs = tpl.rhs(caps, tpl.ren_ref * tpl.cap_coefs[tpl.ren])
    n_dual = tpl.n_rows
    eq = tpl.row_sense == EQ

    # flag binaries, only where flipping one changes the dispatch at all
    # (build.z); indices below run over the template's ren_cap entries
    ren_cap = caps[tpl.cap_keys[tpl.ren]]
    z_ranks, hit, first = tpl.live(caps)
    n_z = len(z_ranks)
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
    groups = sorted(flag_groups(build.z).items())
    budget_rows = [[build.z[flag] for flag in flags] for _, flags in groups]
    budget_names = [f"budget[{tech},{pid}]" for (tech, pid), _ in groups]
    budget_rhs = [float(budget.limit(tech)) for (tech, _), _ in groups]
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
            f"lam[d:{name}]" if is_eq else f"mu[d:{name}]"
            for name, is_eq in zip(tpl.row_names, eq.tolist())
        ]
        names += [f"z[{f[0]},{f[1]},{f[2]}]" for f in build.z]
        return names + [f"phi[d:{tpl.row_names[i]}]" for i in phi_rows.tolist()]

    def row_names():
        names = [f"dc[d:{name}]" for name in tpl.var_names] + budget_names
        for i in phi_rows.tolist():
            name = tpl.row_names[i]
            names += [f"lin1[d:{name}]", f"lin2[d:{name}]"]
        return names

    model = LinearModel(
        matrix,
        row_sense=np.concatenate([
            np.where(primal_free, EQ, LE).astype(object),
            np.full(len(budget_rows) + 2 * n_phi, LE, dtype=object),
        ]),
        row_rhs=np.concatenate([tpl.var_obj, budget_rhs, np.zeros(2 * n_phi)]),
        var_lb=np.concatenate([np.where(eq, -math.inf, 0.0), np.zeros(n_z + n_phi)]),
        var_ub=np.concatenate([
            np.full(n_dual, math.inf), np.ones(n_z), np.full(n_phi, math.inf),
        ]),
        var_obj=np.concatenate([np.where(eq, rhs, -rhs), np.zeros(n_z), phi_obj]),
        var_binary=np.concatenate([
            np.zeros(n_dual, dtype=bool), np.ones(n_z, dtype=bool), np.zeros(n_phi, dtype=bool),
        ]),
        var_names=var_names,
        row_names=row_names,
        name="worst_case",
        sense="max",
    )
    return model, dict(zip(phi_rows.tolist(), phi_col.tolist()))


def _duality_gap(
    build: SubproblemBuild, flags: frozenset[Flag], objective: float, backend
) -> float:
    """Relative gap between a dual objective and the primal dispatch cost
    at the build's capacities under flags."""
    primal = dispatch_cost(build.instance, build.capacities, [flags], backend)[0]
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
    row_names = dispatch_template(build.instance).row_names
    hot = [
        f"d:{row_names[i]}"
        for i, pj in build.phi.items()
        if x[pj] >= threshold or x[i] >= threshold
    ]
    if not hot:
        return
    gap = _duality_gap(build, flags, objective, backend)
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
    build: SubproblemBuild,
    backend,
    gap_tol: float = 1e-9,
    target: float | None = None,
    master: MasterSolution | None = None,
) -> WorstCaseRealization:
    """The worst case at the build's capacities, by the cheapest exact route.

    The returned realization carries its flags, checked against the
    budget, and, as dual_objective, the worst-case dispatch cost at the
    build's capacities; milps counts the MILPs solved, and milp_nodes sums
    their branch-and-bound nodes, None where none ran. master, where
    given, is a master solved at the build's capacities (anything else is
    a ValueError). The route:

    1. Where the live flags (build.z) leave one maximal member, that
       member is the worst case (module docstring). Where some block of
       master has live flags equal to the member's, the master holds it:
       its value is the recourse bound eta, exact, read with no solve,
       and the result is marked held. At an optimal master eta is the
       largest over the blocks of each block's least dispatch cost at
       the plan; the member is the worst case over the whole set, so it
       costs at least eta; and a block with the member's live flags has
       the member's dispatch rhs, so it costs at most eta. A block whose
       live flags are a proper subset of the member's costs no more than
       it, and proves nothing. Otherwise one dispatch LP prices the
       member. CCG gives its master; certify_run does not, and prices it.
    2. Otherwise, a build split by period (build.windows) is searched one
       window at a time, in time order. A window with at most
       WINDOW_ENUMERATION_LIMIT maximal members is priced by one
       dispatch_cost batch: the costliest member, ties to the first in
       sorted flags, is its exact worst case. Every other window runs its
       MILP, to its optimum except in the last window, which searches
       toward what the others leave of the target. The result has the
       union of the windows' flags and the sum of their values, and is
       exact only where every window's was.
    3. Otherwise, the whole-horizon MILP.

    A held or priced worst case is exact, whatever the target. Given a
    target, a MILP may stop at the first realization whose dual value
    reaches it; the result is then marked exact=False, and its
    dual_objective is only a lower bound on the dispatch cost at its flags
    (phi <= mu * z for binary z, then weak duality), whatever M is. That
    holds without the saturation check, which is skipped: clipping by M can
    only lower a dual value, and a lower bound stays one.
    """
    if master is not None and master.capacities != build.capacities:
        raise ValueError("master was solved at other capacities than the build's")
    if not build.windows:  # build_subproblem splits no build of one member
        if master is not None and member_count(build.z, build.budget) == 1:
            [member] = members(build.z, build.budget)
            live = frozenset(build.z)
            if any(block & live == member for block in master.realizations):
                return WorstCaseRealization(member, master.recourse_bound, held=True)
        return _price_or_search(build, 1, backend, gap_tol, target)
    *first, last = build.windows
    parts = [
        _price_or_search(window, WINDOW_ENUMERATION_LIMIT, backend, gap_tol)
        for window in first
    ]
    value = sum(part.dual_objective for part in parts)
    parts.append(
        _price_or_search(
            last, WINDOW_ENUMERATION_LIMIT, backend, gap_tol,
            None if target is None else target - value,
        )
    )
    flags = frozenset().union(*(part.flags for part in parts))
    check_flags(build.instance, flags, build.budget)
    nodes = [part.milp_nodes for part in parts if part.milps]
    return WorstCaseRealization(
        flags=flags,
        dual_objective=value + parts[-1].dual_objective,
        exact=all(part.exact for part in parts),
        milp_nodes=sum(nodes) if nodes else None,
        milps=sum(part.milps for part in parts),
    )


def _price_or_search(
    build: SubproblemBuild, limit: int, backend, gap_tol: float,
    target: float | None = None,
) -> WorstCaseRealization:
    """The build's worst case over the whole of it: priced where its
    maximal members number at most limit, else its MILP."""
    if member_count(build.z, build.budget) > limit:
        return _search(build, backend, gap_tol, target)
    candidates = members(build.z, build.budget)
    costs = dispatch_cost(build.instance, build.capacities, candidates, backend)
    best = min(range(len(candidates)), key=lambda k: (-costs[k], sorted(candidates[k])))
    return WorstCaseRealization(candidates[best], costs[best])


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
    flags: frozenset[Flag],
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
        value = 1.0 if flag in flags else 0.0
        build.model.var_lb[j] = value
        build.model.var_ub[j] = value
    res = backend.solve_milp(build.model, gap_tol=1e-12)
    if res.status != "optimal":
        raise BackendError(f"fixed-flag dual solve ended {res.status}")
    return _duality_gap(build, flags, float(res.objective), backend)
