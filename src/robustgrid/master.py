"""Investment master problem and per-realization dispatch blocks.

The master LP carries one set of first-stage capacity variables, one full
dispatch block per adverse realization seen so far, and a recourse variable
bounded below by every block's operating cost. The fixed-capacity dispatch
LP (capacities folded into right-hand sides) is one such block on its own,
and it is what the worst-case subproblem dualizes.

Template and stamps: the block emitter defines a dispatch block once per
instance, as a DispatchTemplate of numpy arrays around a CSRMatrix: the
block's own rows and columns, each row's sense and base rhs, and beside
them how each row depends on the capacities (the template's cap_rows,
cap_keys and cap_coefs, scaled by the realized capacity factor on the
availability rows), plus realized_coefs and rhs, which turn realizations
and capacities into coefficients and right-hand sides. The builders read a
block from the template alone and stamp copies with array operations: the
master stacks one copy per realization block-diagonally and writes the
capacity columns; the dispatch LP keeps the matrix and moves the capacity
terms into the rhs. A stamped model is the very model that emitting each
block row by row would produce, down to the order and value of every
matrix entry.

Conventions: dispatch quantities are energies per step (MWh). A power
rating K limits energy as K * step_hours; storage energy caps carry no
step factor. Flows are positive from a line's from-node to its to-node.
Voltage angles exist only when the instance has AC lines; the reference
node's angle is pinned by an equality row so every restriction lives in a
row (variables are only "free" or ">= 0"), which keeps the dual mechanical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .backend import (
    EQ,
    LE,
    PRIMAL_FEASIBILITY_TOLERANCE,
    BackendError,
    CSRMatrix,
    LinearModel,
    ModelBuilder,
    SolveResult,
)
from .model import ConventionalUnit, NetworkInstance, tech_class

__all__ = [
    "CapKey",
    "MasterBuild",
    "MasterSolution",
    "DispatchTemplate",
    "dispatch_template",
    "build_master",
    "solve_master",
    "build_dispatch_lp",
    "dispatch_cost",
    "capacity_table",
    "capacity_keys",
    "investment_cost",
    "check_block_physics",
]

CapKey = tuple[str, str]  # (kind, entity id)
_Limit = tuple[float, tuple[CapKey, float] | None]  # (base rhs, capacity term)

ANGLE_BOUND = math.pi

# solve_master returns every capacity at or below this as exactly 0.0 (MW
# or MWh). HiGHS holds bounds and rows only to its primal feasibility
# tolerance, so a capacity far below it is noise: HiGHS left a hydrogen
# tank of 4.7e-13 MWh on the benchmark ladder. Kept, such noise becomes
# model structure: a flag binary wherever capacity times deviation is
# positive (DispatchTemplate.live), or a storage level that may carry
# energy from one period to the next, which keeps the worst-case search
# whole (subproblem). The threshold is a hundredth of the tolerance: three
# orders of magnitude above the noise seen, and far below what a plan
# builds on purpose, so snapping never undoes a decision the solver could
# tell from zero.
CAPACITY_SNAP = 1e-2 * PRIMAL_FEASIBILITY_TOLERANCE


def _limit(value: float | None) -> float:
    return math.inf if value is None else value


def capacity_table(inst: NetworkInstance) -> list[tuple[CapKey, float, float]]:
    """Every first-stage capacity decision in build order: (key, cost, limit)."""
    table = [
        (("ren", r.id), r.annualized_cost, _limit(r.expansion_limit))
        for r in inst.renewables
    ]
    for b in inst.batteries:
        table += [
            (("bat_inv", b.id), b.inverter_cost, _limit(b.inverter_limit)),
            (("bat_stor", b.id), b.storage_cost, _limit(b.storage_limit)),
        ]
    for h in inst.hydrogens:
        table += [
            (("h2_ocgt", h.id), h.ocgt_cost, _limit(h.ocgt_limit)),
            (("h2_el", h.id), h.electrolyzer_cost, _limit(h.el_limit)),
            (("h2_stor", h.id), h.storage_cost, _limit(h.storage_limit)),
        ]
    table += [(("line", l.id), l.expansion_cost, l.expansion_limit) for l in inst.lines]
    return table


def capacity_keys(inst: NetworkInstance) -> list[CapKey]:
    """Every first-stage capacity decision of the instance, in build order."""
    return [key for key, _, _ in capacity_table(inst)]


def investment_cost(inst: NetworkInstance, capacities: dict[CapKey, float]) -> float:
    return float(sum(
        cost * capacities.get(key, 0.0) for key, cost, _ in capacity_table(inst)
    ))


@dataclass
class MasterBuild:
    """The master LP, laid out by the instance's dispatch template: one
    capacity column per template key, in key order, then the recourse
    column, then the blocks. Block k (tag s<k>) stamps realizations[k]."""

    instance: NetworkInstance
    model: LinearModel
    realizations: list[dict[str, tuple[float, ...]]]


@dataclass
class MasterSolution:
    """A solved master. Block k (tag s<k>) stamps realizations[k], and
    dispatch[k] is its dispatch: one row per block, one column per template
    column (DispatchTemplate.col_keys names them).

    binding is the block whose recourse row carries the largest multiplier,
    the first on ties. A positive multiplier holds that row tight in every
    optimal solution (complementary slackness), so the binding block's
    dispatch costs exactly the recourse bound and is cost-minimal for its
    realization at the plan. Where every multiplier is 0 the bound is 0,
    every block costs 0, and block 0 binds as well as any.

    basis is the backend's optimal basis of the master LP (SolveResult.basis;
    None on a backend that keeps none), a start for another LP of the same
    shape. It cannot be pickled, so a pickled solution leaves it behind and
    comes back with basis None.
    """

    capacities: dict[CapKey, float]
    investment_cost: float
    recourse_bound: float
    objective: float
    realizations: list[dict[str, tuple[float, ...]]]
    dispatch: np.ndarray
    binding: int
    basis: object | None = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "basis": None}


class _BlockEmitter:
    """Defines one dispatch block: its columns, rows and cost terms.

    emit() declares every column through var() and every row through row(),
    directly or through rating() (one column under a limit) and store() (one
    step of a storage unit, the one recipe pumped hydro, batteries and
    hydrogen share); this is the only place the dispatch physics is written
    down. Rows hold the block's own columns only. A row that depends on a
    first-stage capacity names it as cap=(key, coefficient), recorded in
    coupling as (row, key, coefficient). On ren_cap rows that coefficient is
    further scaled by the realized capacity factor of (unit, step), and
    ren=(unit, step, deviation, flag) is recorded in ren, led by the entry's
    position in coupling. The builders below turn the coupling into capacity
    columns (the master) or into right-hand sides (the fixed-capacity
    dispatch LP).
    """

    def __init__(self, builder: ModelBuilder, inst: NetworkInstance):
        self.builder = builder
        self.inst = inst
        self.cols: dict[tuple, int] = {}
        self.fuel_terms: list[tuple[int, float]] = []
        self.shed_terms: list[tuple[int, float]] = []
        self.coupling: list[tuple[int, CapKey, float]] = []
        self.ren: list[tuple[int, int, int, float, tuple[str, str, str] | None]] = []
        self.level_caps: list[int] = []

    # -- low-level helpers -------------------------------------------------

    def var(self, family: str, entity: str, t: int, free: bool = False) -> int:
        j = self.builder.add_var(
            f"{family}[{entity},{t}]",
            lb=-math.inf if free else 0.0,
        )
        self.cols[(family, entity, t)] = j
        return j

    def col(self, family: str, entity: str, t: int) -> int:
        return self.cols[(family, entity, t)]

    def row(
        self,
        name: str,
        coeffs: list[tuple[int, float]],
        sense: str,
        base_rhs: float,
        cap: tuple[CapKey, float] | None = None,
        ren: tuple[int, int, float, tuple[str, str, str] | None] | None = None,
    ) -> int:
        idx = self.builder.add_row(coeffs, sense, base_rhs, name=name)
        if cap is not None:
            if ren is not None:
                self.ren.append((len(self.coupling), *ren))
            self.coupling.append((idx, *cap))
        return idx

    def rating(
        self,
        row: str,
        family: str,
        entity: str,
        t: int,
        rhs: float,
        cap: tuple[CapKey, float] | None = None,
    ) -> int:
        """One column held to rhs at step t, plus cap's capacity term if given."""
        return self.row(
            f"{row}[{entity},{t}]", [(self.col(family, entity, t), 1.0)], LE, rhs, cap=cap
        )

    def store(
        self,
        prefix: str,
        uid: str,
        t: int,
        gen: _Limit, ch: _Limit, lvl: _Limit,
        gain: float,
        draw: float,
        start: float = 0.0,
    ) -> None:
        """Step t of a store: its three limits, each (rhs, cap), and its level.

        The level follows lvl[t] = lvl[t-1] + gain * ch[t] - draw * gen[t],
        with lvl[-1] = start.
        """
        self.rating(f"{prefix}_gen_cap", "gen", uid, t, *gen)
        self.rating(f"{prefix}_ch_cap", "ch", uid, t, *ch)
        self.level_caps.append(self.rating(f"{prefix}_lvl_cap", "lvl", uid, t, *lvl))
        coeffs = [
            (self.col("lvl", uid, t), 1.0),
            (self.col("ch", uid, t), -gain),
            (self.col("gen", uid, t), draw),
        ]
        if t > 0:
            coeffs.append((self.col("lvl", uid, t - 1), -1.0))
        self.row(f"{prefix}_lvl[{uid},{t}]", coeffs, EQ, start if t == 0 else 0.0)

    # -- the block itself ----------------------------------------------------

    def emit(self) -> None:
        inst = self.inst
        grid = inst.timegrid
        T, dt = grid.step_count, grid.step_hours
        has_ac = any(l.kind == "ac" for l in inst.lines)

        # variables; a storage unit also charges from the grid and holds a level
        stores = {h.id for h in inst.hydros if h.kind == "psp"}
        stores |= {u.id for u in (*inst.batteries, *inst.hydrogens)}
        for u in inst.units():
            for t in range(T):
                j = self.var("gen", u.id, t)
                if isinstance(u, ConventionalUnit):
                    self.fuel_terms.append((j, u.variable_cost))
                if u.id in stores:
                    self.var("ch", u.id, t)
                    self.var("lvl", u.id, t)
        for l in inst.lines:
            for t in range(T):
                self.var("pf", l.id, t, free=True)
        if has_ac:
            for n in inst.nodes:
                for t in range(T):
                    self.var("theta", n.id, t, free=True)
        for n in inst.nodes:
            costs = inst.shedding.costs_at(n.id)
            for t in range(T):
                if inst.demand.at(n.id, t) <= 0.0:
                    continue
                for k, family in enumerate(("ls1", "ls2", "ls3")):
                    j = self.var(family, n.id, t)
                    self.shed_terms.append((j, costs[k]))

        # energy balance at every node and step
        units_at: dict[str, list[str]] = {n.id: [] for n in inst.nodes}
        for u in inst.units():
            units_at[u.node].append(u.id)
        for n in inst.nodes:
            for t in range(T):
                coeffs: list[tuple[int, float]] = []
                for uid in units_at[n.id]:
                    coeffs.append((self.col("gen", uid, t), 1.0))
                    if ("ch", uid, t) in self.cols:
                        coeffs.append((self.col("ch", uid, t), -1.0))
                for l in inst.lines:
                    if l.to_node == n.id:
                        coeffs.append((self.col("pf", l.id, t), 1.0))
                    if l.from_node == n.id:
                        coeffs.append((self.col("pf", l.id, t), -1.0))
                dem = inst.demand.at(n.id, t)
                if dem > 0.0:
                    for family in ("ls1", "ls2", "ls3"):
                        coeffs.append((self.col(family, n.id, t), 1.0))
                self.row(f"balance[{n.id},{t}]", coeffs, EQ, dem)

        # renewable availability limits (the uncertainty-sensitive rows)
        period_ids = grid.period_ids()
        for u, r in enumerate(inst.renewables):
            key = ("ren", r.id)
            tech = tech_class(r.technology)
            for t, pid in enumerate(period_ids):
                flag = (tech, r.region, pid) if pid is not None else None
                self.row(
                    f"ren_cap[{r.id},{t}]",
                    [(self.col("gen", r.id, t), 1.0)],
                    LE,
                    0.0,
                    cap=(key, dt),
                    ren=(u, t, r.cf.deviation[t] * dt, flag),
                )

        # conventional and hydro power limits; pumped storage starts half full
        for c in inst.conventionals:
            for t in range(T):
                self.rating("conv_cap", "gen", c.id, t, c.existing_cap * dt)
        for h in inst.hydros:
            if h.kind in ("ror", "rsv"):
                for t in range(T):
                    self.rating(
                        "hydro_cap", "gen", h.id, t, h.availability[t] * h.existing_cap * dt
                    )
            else:
                power = (h.existing_cap * dt, None)
                energy = h.existing_cap * h.storage_scale
                for t in range(T):
                    self.store(
                        "psp", h.id, t, power, power, (energy, None),
                        gain=h.efficiency, draw=1.0, start=energy / 2.0,
                    )

        # batteries: power through the inverter, energy in the store, empty start
        for b in inst.batteries:
            inverter = (0.0, (("bat_inv", b.id), dt))
            for t in range(T):
                self.store(
                    "bat", b.id, t, inverter, inverter, (0.0, (("bat_stor", b.id), 1.0)),
                    gain=b.efficiency, draw=1.0,
                )

        # hydrogen chain: electrolyzer in, tank, turbine out at its heat rate
        for h in inst.hydrogens:
            for t in range(T):
                self.store(
                    "h2", h.id, t,
                    (0.0, (("h2_ocgt", h.id), dt)),
                    (0.0, (("h2_el", h.id), dt)),
                    (0.0, (("h2_stor", h.id), 1.0)),
                    gain=h.eta_el, draw=1.0 / h.eta_ocgt,
                )

        # network: flow definition on AC lines, capacity both ways, angles
        for l in inst.lines:
            key = ("line", l.id)
            for t in range(T):
                if l.kind == "ac":
                    self.row(
                        f"flow_def[{l.id},{t}]",
                        [
                            (self.col("pf", l.id, t), 1.0),
                            (self.col("theta", l.from_node, t), -l.susceptance * dt),
                            (self.col("theta", l.to_node, t), l.susceptance * dt),
                        ],
                        EQ, 0.0,
                    )
                self.row(
                    f"flow_hi[{l.id},{t}]",
                    [(self.col("pf", l.id, t), 1.0)],
                    LE, l.existing_cap * dt,
                    cap=(key, dt),
                )
                self.row(
                    f"flow_lo[{l.id},{t}]",
                    [(self.col("pf", l.id, t), -1.0)],
                    LE, l.existing_cap * dt,
                    cap=(key, dt),
                )
        if has_ac:
            ref = inst.reference_node().id
            for t in range(T):
                self.row(
                    f"slack[{t}]",
                    [(self.col("theta", ref, t), 1.0)],
                    EQ, 0.0,
                )
            for n in inst.nodes:
                for t in range(T):
                    self.row(
                        f"ang_hi[{n.id},{t}]",
                        [(self.col("theta", n.id, t), 1.0)],
                        LE, ANGLE_BOUND,
                    )
                    self.row(
                        f"ang_lo[{n.id},{t}]",
                        [(self.col("theta", n.id, t), -1.0)],
                        LE, ANGLE_BOUND,
                    )

        # shedding tier caps
        fractions = inst.shedding.fractions
        for n in inst.nodes:
            for t in range(T):
                dem = inst.demand.at(n.id, t)
                if dem <= 0.0:
                    continue
                for k, family in enumerate(("ls1", "ls2", "ls3")):
                    self.rating(f"{family}_cap", family, n.id, t, fractions[k] * dem)


class DispatchTemplate:
    """One dispatch block in array form, emitted once per instance.

    matrix is the block's local CSRMatrix exactly as the emitter wrote it (rows
    sorted and merged, explicit zeros kept). Beside it: row senses and base
    right-hand sides, column lower bounds (0 or -inf), the operating cost of
    every column, and the capacity coupling as one entry per coupled row:
    cap_rows, cap_keys (positions in `keys`) and cap_coefs. For the entries
    listed in `ren` (the ren_cap rows) the coefficient is per unit of
    capacity factor, taken at unit ren_units and step ren_steps of the
    realization (ren_ids and step_count give a realization's shape).
    level_caps lists the rows that cap a storage level, as store() writes
    them; where each of their right-hand sides is 0, no level can carry
    energy from one step to the next. Names are local; builders prefix a
    tag only when a model's names are read.
    """

    def __init__(self, inst: NetworkInstance):
        emitter = _BlockEmitter(ModelBuilder(name="dispatch_template"), inst)
        emitter.emit()
        local = emitter.builder.build()
        self.keys = capacity_keys(inst)
        self.ren_ids = [r.id for r in inst.renewables]
        self.step_count = inst.timegrid.step_count
        self.matrix = local.matrix()
        self.n_rows, self.n_vars = self.matrix.shape
        self.row_sense = local.row_sense
        self.base_rhs = local.row_rhs
        self.var_lb = local.var_lb
        self.var_names = local.var_names
        self.row_names = local.row_names
        self.col_keys = list(emitter.cols)

        self.fuel_cols = np.array([j for j, _ in emitter.fuel_terms], dtype=np.intp)
        self.fuel_costs = np.array([float(c) for _, c in emitter.fuel_terms])
        self.shed_cols = np.array([j for j, _ in emitter.shed_terms], dtype=np.intp)
        self.shed_costs = np.array([float(c) for _, c in emitter.shed_terms])
        self.var_obj = np.zeros(self.n_vars)
        self.var_obj[self.fuel_cols] += self.fuel_costs
        self.var_obj[self.shed_cols] += self.shed_costs

        key_index = {key: k for k, key in enumerate(self.keys)}
        coupling, ren = emitter.coupling, emitter.ren
        self.cap_rows = np.array([i for i, _, _ in coupling], dtype=np.intp)
        self.cap_keys = np.array([key_index[key] for _, key, _ in coupling], dtype=np.intp)
        self.cap_coefs = np.array([float(c) for _, _, c in coupling])

        self.ren = np.array([k for k, *_ in ren], dtype=np.intp)
        self.ren_units = np.array([u for _, u, _, _, _ in ren], dtype=np.intp)
        self.ren_steps = np.array([t for _, _, t, _, _ in ren], dtype=np.intp)
        self.ren_dev = np.array([d for _, _, _, d, _ in ren], dtype=float)
        # distinct (tech, region, period) flags, sorted; per ren row its rank or -1
        self.flags = sorted({f for *_, f in ren if f is not None})
        rank = {flag: i for i, flag in enumerate(self.flags)}
        self.ren_flags = np.array([rank.get(f, -1) for *_, f in ren], dtype=np.intp)
        self.level_caps = np.array(emitter.level_caps, dtype=np.intp)

    @cached_property
    def master_block(self) -> tuple[np.ndarray, ...]:
        """One master block plus its recourse row, as CSR in master columns.

        Columns are laid out as in the master: capacities, then the recourse
        variable, then this block. Returns (indptr, indices, data,
        in_block, ren_pos): in_block marks entries in block columns, which
        shift by the block width from copy to copy, and ren_pos gives the
        data positions of the capacity-factor coefficients, aligned with
        `ren`. Those carry a placeholder until a realization is stamped.
        """
        n_cap, mb, A = len(self.keys), self.n_rows, self.matrix
        cost_cols = np.concatenate([self.fuel_cols, self.shed_cols])
        cost_vals = np.concatenate([self.fuel_costs, self.shed_costs])
        rows = np.concatenate([
            A.row_ids(),
            self.cap_rows,
            np.full(1 + len(cost_cols), mb),
        ])
        cols = np.concatenate([
            n_cap + 1 + A.indices, self.cap_keys, [n_cap], n_cap + 1 + cost_cols,
        ])
        # 0.0 + v is what ModelBuilder.add_row stores for a coefficient v
        vals = np.concatenate([A.data, 0.0 + -self.cap_coefs, [-1.0], 0.0 + cost_vals])
        order = np.lexsort((cols, rows))
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=mb + 1))])
        cols = cols[order]
        return indptr, cols, vals[order], cols > n_cap, position[len(A.data) + self.ren]

    @cached_property
    def dual_rows(self) -> CSRMatrix:
        """The transposed block, one row per column: the dual constraints.

        A column's entry from row i is negated when row i is an inequality,
        since <= rows get nonnegative multipliers entering with a minus.
        """
        start, rows, values = self.matrix.colwise()  # rows ascend within each column
        sign = np.where(self.row_sense == EQ, 1.0, -1.0)
        return CSRMatrix(
            start, rows, 0.0 + values * sign[rows], (self.n_vars, self.n_rows)
        )

    def cap_array(self, capacities: dict[CapKey, float]) -> np.ndarray:
        """A capacity map as one value per key, 0 where the map has none.
        Every value in the map must be finite and nonnegative."""
        for key, v in capacities.items():
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"capacity {key}: bad value {v}")
        return np.array([capacities.get(key, 0.0) for key in self.keys], dtype=float)

    def live(self, caps: np.ndarray) -> np.ndarray:
        """Mask of the ren_cap entries a flag moves at capacities caps (one
        value per key): those of a flag, with capacity and deviation both
        positive. Only their flags can change the dispatch."""
        return (self.ren_flags >= 0) & (caps[self.cap_keys[self.ren]] * self.ren_dev > 0.0)

    def stores_energy(self, caps: np.ndarray) -> bool:
        """Whether some level cap has a nonzero right-hand side at
        capacities caps (one value per key), so that a level may carry
        energy from one step to the next."""
        return bool(self.rhs(caps, self.cap_coefs[self.ren])[self.level_caps].any())

    def realized_coefs(self, realizations: list[dict[str, tuple[float, ...]]]) -> np.ndarray:
        """Capacity-factor coefficients of the ren_cap rows, one row per
        realization. Each realization maps every renewable unit to its
        series of step_count capacity factors; anything else is a ValueError.
        """
        cf = np.empty((len(realizations), len(self.ren_ids), self.step_count))
        for k, realized in enumerate(realizations):
            for u, uid in enumerate(self.ren_ids):
                if uid not in realized:
                    raise ValueError(f"realization {k} misses unit {uid!r}")
                if len(realized[uid]) != self.step_count:
                    raise ValueError(
                        f"realization {k}, unit {uid!r}: series length "
                        f"{len(realized[uid])} != {self.step_count}"
                    )
                cf[k, u] = realized[uid]
        return cf[:, self.ren_units, self.ren_steps] * self.cap_coefs[self.ren]

    def rhs(self, caps: np.ndarray, ren_coefs: np.ndarray) -> np.ndarray:
        """The dispatch LP's rhs at capacities caps (one value per key):
        base + coefficient * capacity on the coupled rows, with ren_coefs
        (one realization's realized_coefs) as the coefficients of the
        ren_cap rows."""
        coefs = self.cap_coefs.copy()
        coefs[self.ren] = ren_coefs
        rhs = self.base_rhs.copy()
        rhs[self.cap_rows] += coefs * caps[self.cap_keys]
        return rhs


def dispatch_template(inst: NetworkInstance) -> DispatchTemplate:
    """The instance's dispatch template, emitted on first use.

    It is kept on the instance object itself: instances are immutable, and
    hashing one to key a cache would walk every series it holds.
    """
    template = inst.__dict__.get("_dispatch_template")
    if template is None:
        template = DispatchTemplate(inst)
        object.__setattr__(inst, "_dispatch_template", template)
    return template


def _tagged(tag: str, names: list[str]) -> list[str]:
    return [f"{tag}:{name}" for name in names]


def build_master(
    inst: NetworkInstance,
    realizations: list[dict[str, tuple[float, ...]]],
) -> MasterBuild:
    """Master LP: investment variables, one block per realization, epigraph.

    The blocks are copies of the instance's dispatch template, stacked
    block-diagonally; each copy gets its own recourse row and, on its
    ren_cap rows, the capacity coefficient -cf * step_hours of its
    realization. Block k's names carry the tag s<k>.
    """
    if not realizations:
        raise ValueError("need at least one realization; the reference is one")
    tags = [f"s{k}" for k in range(len(realizations))]
    tpl = dispatch_template(inst)
    K, nb, mb, n_cap = len(realizations), tpl.n_vars, tpl.n_rows, len(tpl.keys)
    table = capacity_table(inst)
    cap_ub = np.array([limit for _, _, limit in table], dtype=float)
    for key, ub in zip(tpl.keys, cap_ub):
        if ub < 0.0:
            raise ValueError(f"variable cap[{key[0]},{key[1]}]: lb 0.0 > ub {ub}")
    ren_coefs = tpl.realized_coefs(realizations)

    indptr, indices, data, in_block, ren_pos = tpl.master_block
    nnz = len(data)
    data = np.tile(data, (K, 1))
    data[:, ren_pos] = 0.0 + -ren_coefs
    indices = np.tile(indices, (K, 1))
    indices[:, in_block] += (nb * np.arange(K))[:, None]
    indptr = np.append((indptr[:-1] + nnz * np.arange(K)[:, None]).ravel(), K * nnz)
    matrix = CSRMatrix(
        indptr, indices.ravel(), data.ravel(), (K * (mb + 1), n_cap + 1 + K * nb)
    )

    def var_names():
        names = [f"cap[{kind},{entity}]" for kind, entity in tpl.keys] + ["recourse"]
        for tag in tags:
            names += _tagged(tag, tpl.var_names)
        return names

    def row_names():
        names = []
        for tag in tags:
            names += _tagged(tag, tpl.row_names) + [f"{tag}:recourse_bound"]
        return names

    model = LinearModel(
        matrix,
        row_sense=np.tile(np.append(tpl.row_sense, LE), K),
        row_rhs=np.tile(np.append(tpl.base_rhs, 0.0), K),
        var_lb=np.concatenate([np.zeros(n_cap + 1), np.tile(tpl.var_lb, K)]),
        var_ub=np.concatenate([cap_ub, np.full(1 + K * nb, math.inf)]),
        var_obj=np.concatenate(
            [[float(cost) for _, cost, _ in table], [1.0], np.zeros(K * nb)]
        ),
        var_names=var_names,
        row_names=row_names,
        name="master",
    )
    return MasterBuild(instance=inst, model=model, realizations=realizations)


def solve_master(build: MasterBuild, backend, start=None) -> MasterSolution:
    """Solve the master and read the plan, the recourse bound, every
    block's dispatch and the binding block (see MasterSolution). The
    binding block is read from the recourse rows' duals, the last row of
    each block; an LP result without duals is a BackendError. start is a
    basis to begin the LP from (backend.solve_lp), and the solution keeps
    the LP's own basis."""
    res: SolveResult = backend.solve_lp(build.model, start=start)
    if res.status != "optimal":
        raise BackendError(
            f"master solve ended {res.status}; with shedding tiers covering "
            "demand this indicates corrupt input data"
        )
    if res.duals is None:
        raise BackendError("master solve returned no duals to name the binding block")
    tpl = dispatch_template(build.instance)
    eta, K = len(tpl.keys), len(build.realizations)  # the layout of MasterBuild
    capacities = {
        key: float(x) if x > CAPACITY_SNAP else 0.0 for key, x in zip(tpl.keys, res.x)
    }
    # a <= row's dual is the objective's slope in its rhs, so -dual >= 0
    recourse_rows = (tpl.n_rows + 1) * np.arange(K) + tpl.n_rows
    return MasterSolution(
        capacities=capacities,
        investment_cost=investment_cost(build.instance, capacities),
        recourse_bound=float(res.x[eta]),
        objective=float(res.objective),
        realizations=list(build.realizations),  # CCG appends to its own list
        dispatch=res.x[eta + 1 :].reshape(K, tpl.n_vars),
        binding=int(np.argmax(-res.duals[recourse_rows])),
        basis=res.basis,
    )


def _dispatch_lp(tpl: DispatchTemplate, rhs: np.ndarray) -> LinearModel:
    """The template's block as an LP with right-hand sides rhs; names carry
    the tag d."""
    return LinearModel(
        tpl.matrix,
        row_sense=tpl.row_sense.copy(),
        row_rhs=rhs,
        var_lb=tpl.var_lb.copy(),
        var_ub=np.full(tpl.n_vars, math.inf),
        var_obj=tpl.var_obj.copy(),
        var_names=lambda: _tagged("d", tpl.var_names),
        row_names=lambda: _tagged("d", tpl.row_names),
        name="dispatch:d",
    )


def build_dispatch_lp(
    inst: NetworkInstance,
    capacities: dict[CapKey, float],
    cf: dict[str, tuple[float, ...]],
) -> LinearModel:
    """Single-block dispatch LP with capacities fixed into the rhs.

    The template's matrix is used as is; only the right-hand sides of the
    capacity-coupled rows change (DispatchTemplate.rhs): base + coefficient
    * capacity, with the ren_cap coefficients taken from the realized
    capacity factors. Names carry the tag d.
    """
    tpl = dispatch_template(inst)
    caps = tpl.cap_array(capacities)
    return _dispatch_lp(tpl, tpl.rhs(caps, tpl.realized_coefs([cf])[0]))


def dispatch_cost(
    inst: NetworkInstance,
    capacities: dict[CapKey, float],
    realized: list[dict[str, tuple[float, ...]]],
    backend,
) -> list[float]:
    """Optimal operating cost at fixed capacities under each realization.

    The realizations differ only in the rhs of the ren_cap rows, so one
    dispatch LP, stamped at realized[0], is solved under each realization's
    rhs (solve_lps): the very rhs build_dispatch_lp gives it, bit for bit.
    """
    if not realized:
        return []
    tpl = dispatch_template(inst)
    caps = tpl.cap_array(capacities)
    ren_coefs = tpl.realized_coefs(realized)
    model = _dispatch_lp(tpl, tpl.rhs(caps, ren_coefs[0]))
    rhs = (tpl.rhs(caps, coefs) for coefs in ren_coefs)
    costs = []
    for k, res in enumerate(backend.solve_lps(model, rhs)):
        if res.status != "optimal":
            raise BackendError(f"dispatch solve ended {res.status} under realization {k}")
        costs.append(float(res.objective))
    return costs


def check_block_physics(
    inst: NetworkInstance,
    capacities: dict[CapKey, float],
    cf: dict[str, tuple[float, ...]],
    x: np.ndarray,
    tol: float = 1e-6,
) -> list[str]:
    """Physical-consistency audit of one dispatch x under realization cf,
    one value per template column; returns violations. Only the columns'
    names come from the template: every rule is written out again here."""
    grid = inst.timegrid
    T, dt = grid.step_count, grid.step_hours
    out: list[str] = []
    val = dict(zip(dispatch_template(inst).col_keys, x.tolist()))

    def v(family, entity, t):
        return val.get((family, entity, t), 0.0)

    unit_node = {u.id: u.node for u in inst.units()}

    for n in inst.nodes:
        for t in range(T):
            total = 0.0
            for uid, node in unit_node.items():
                if node == n.id:
                    total += v("gen", uid, t) - v("ch", uid, t)
            for l in inst.lines:
                if l.to_node == n.id:
                    total += v("pf", l.id, t)
                if l.from_node == n.id:
                    total -= v("pf", l.id, t)
            dem = inst.demand.at(n.id, t)
            total += v("ls1", n.id, t) + v("ls2", n.id, t) + v("ls3", n.id, t)
            if abs(total - dem) > tol * max(1.0, dem):
                out.append(f"balance[{n.id},{t}]: residual {total - dem:.3e}")

    def rating(row, family, entity, limits):
        for t, limit in enumerate(limits):
            if v(family, entity, t) > limit + tol * max(1.0, limit):
                out.append(f"{row}[{entity},{t}]: above its rating")

    def capacity(kind, entity):
        return capacities.get((kind, entity), 0.0)

    def store(prefix, uid, gen_cap, ch_cap, energy_cap, gain, draw, start=0.0):
        """Power ratings, then lvl[t] = lvl[t-1] + gain * ch[t] - draw * gen[t]."""
        rating(f"{prefix}_gen_cap", "gen", uid, [gen_cap * dt] * T)
        rating(f"{prefix}_ch_cap", "ch", uid, [ch_cap * dt] * T)
        prev = start
        for t in range(T):
            lvl = v("lvl", uid, t)
            expect = prev + gain * v("ch", uid, t) - draw * v("gen", uid, t)
            if abs(lvl - expect) > tol * max(1.0, energy_cap):
                out.append(f"{prefix}_lvl[{uid},{t}]: recursion residual")
            if lvl < -tol or lvl > energy_cap + tol * max(1.0, energy_cap):
                out.append(f"{prefix}_lvl[{uid},{t}]: level outside [0, cap]")
            prev = lvl

    for r in inst.renewables:
        built = capacity("ren", r.id)
        rating("ren_cap", "gen", r.id, [built * f * dt for f in cf[r.id]])
    for c in inst.conventionals:
        rating("conv_cap", "gen", c.id, [c.existing_cap * dt] * T)
    for h in inst.hydros:
        if h.kind == "psp":  # starts half full
            energy_cap = h.existing_cap * h.storage_scale
            store("psp", h.id, h.existing_cap, h.existing_cap, energy_cap,
                  h.efficiency, 1.0, start=energy_cap / 2.0)
        else:
            rating("hydro_cap", "gen", h.id, [a * h.existing_cap * dt for a in h.availability])
    for b in inst.batteries:
        inverter = capacity("bat_inv", b.id)
        store("bat", b.id, inverter, inverter, capacity("bat_stor", b.id), b.efficiency, 1.0)
    for h in inst.hydrogens:
        turbine, electrolyzer = capacity("h2_ocgt", h.id), capacity("h2_el", h.id)
        store("h2", h.id, turbine, electrolyzer, capacity("h2_stor", h.id),
              h.eta_el, 1.0 / h.eta_ocgt)

    fractions = inst.shedding.fractions
    for n in inst.nodes:
        for t in range(T):
            dem = inst.demand.at(n.id, t)
            for k, family in enumerate(("ls1", "ls2", "ls3")):
                if v(family, n.id, t) > fractions[k] * dem + tol * max(1.0, dem):
                    out.append(f"{family}[{n.id},{t}]: above tier cap")

    for l in inst.lines:
        cap = l.existing_cap + capacity("line", l.id)
        for t in range(T):
            pf = v("pf", l.id, t)
            if abs(pf) > cap * dt + tol * max(1.0, cap * dt):
                out.append(f"pf[{l.id},{t}]: above line capacity")
            if l.kind == "ac":
                target = l.susceptance * dt * (
                    v("theta", l.from_node, t) - v("theta", l.to_node, t)
                )
                if abs(pf - target) > tol * max(1.0, abs(target)):
                    out.append(f"flow_def[{l.id},{t}]: residual")
    if any(l.kind == "ac" for l in inst.lines):
        for n in inst.nodes:
            for t in range(T):
                if abs(v("theta", n.id, t)) > ANGLE_BOUND + tol:
                    out.append(f"theta[{n.id},{t}]: outside +-pi")

    return out
