"""Solver backends behind a single small contract.

Model logic elsewhere in the package builds a LinearModel (variables with
bounds, sparse rows, one objective) and hands it to a backend. Two backends
ship:

- ScipyBackend: scipy.optimize.linprog (HiGHS) for LPs with row duals, and
  scipy.optimize.milp for mixed binary programs. Default.
- InTreeBackend: a dense two-phase simplex with Bland's rule plus best-first
  branch-and-bound over binary variables, pure numpy. Self-contained and
  deterministic; meant for desk-scale models and for cross-checking.

Dual convention: duals[i] is the derivative of the stated objective (min or
max, as declared on the model) with respect to the rhs of row i. For
"min x s.t. x >= 3" the dual on the row is +1.
"""

from __future__ import annotations

import heapq
import logging
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

__all__ = [
    "LE",
    "GE",
    "EQ",
    "BackendError",
    "LinearModel",
    "SolveResult",
    "ScipyBackend",
    "InTreeBackend",
    "get_backend",
    "write_lp_file",
    "read_lp_file",
]

log = logging.getLogger(__name__)

INF = math.inf
LE = "<="
GE = ">="
EQ = "="

_SENSES = (LE, GE, EQ)


class BackendError(Exception):
    """Solver-level failure (bad status, numerical breakdown)."""


@dataclass
class SolveResult:
    """Outcome of one solve. x and duals are present iff status is optimal.

    reduced holds per-variable reduced costs in the model's stated sense,
    computed as var_obj - A^T duals; LP solves only (None for MILPs).
    """

    status: str
    objective: float | None = None
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    reduced: np.ndarray | None = None
    stats: dict = field(default_factory=dict)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class LinearModel:
    """Sparse container for an LP or mixed-binary program.

    Two storage forms share one public surface. The list form, made by the
    constructor and grown with add_var/add_row, stores rows as sorted
    (index, coefficient) lists. The array form, made by from_arrays, holds
    numpy arrays and a ready CSR matrix that matrix() returns as is; its
    rows and names are materialised only when first read, and adding a
    variable or row turns it back into the list form. Senses are "<=",
    ">=", or "=". Binary variables get bounds [0, 1]; fixing one is done by
    tightening lb/ub, which works in place in either form.
    """

    def __init__(self, name: str = "model", sense: str = "min"):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be min or max, got {sense!r}")
        self.name = name
        self.sense = sense
        self.obj_offset = 0.0
        self._var_names: list[str] | Callable[[], list[str]] = []
        self.var_lb: list[float] = []
        self.var_ub: list[float] = []
        self.var_obj: list[float] = []
        self.var_binary: list[bool] = []
        self._row_names: list[str] | Callable[[], list[str]] = []
        self.row_sense: list[str] = []
        self.row_rhs: list[float] = []
        self._rows: list[list[tuple[int, float]]] | None = []
        self._csr: sparse.csr_matrix | None = None

    @classmethod
    def from_arrays(
        cls,
        matrix: sparse.csr_matrix,
        row_sense: np.ndarray,
        row_rhs: np.ndarray,
        var_lb: np.ndarray,
        var_ub: np.ndarray,
        var_obj: np.ndarray,
        var_names,
        row_names,
        var_binary: np.ndarray | None = None,
        name: str = "model",
        sense: str = "min",
    ) -> "LinearModel":
        """Array-backed model around a canonical CSR matrix.

        var_names and row_names are lists or zero-argument callables that
        return them; a callable runs on first access only.
        """
        model = cls(name=name, sense=sense)
        n_rows, n_vars = matrix.shape
        if len(row_sense) != n_rows or len(row_rhs) != n_rows:
            raise ValueError("row arrays do not match the matrix height")
        if not len(var_lb) == len(var_ub) == len(var_obj) == n_vars:
            raise ValueError("variable arrays do not match the matrix width")
        model._csr = matrix
        model._rows = None
        model.row_sense = row_sense
        model.row_rhs = row_rhs
        model.var_lb = var_lb
        model.var_ub = var_ub
        model.var_obj = var_obj
        model.var_binary = (
            np.zeros(n_vars, dtype=bool) if var_binary is None else var_binary
        )
        model._var_names = var_names
        model._row_names = row_names
        return model

    @property
    def var_names(self) -> list[str]:
        if callable(self._var_names):
            self._var_names = self._var_names()
        return self._var_names

    @property
    def row_names(self) -> list[str]:
        if callable(self._row_names):
            self._row_names = self._row_names()
        return self._row_names

    @property
    def rows(self) -> list[list[tuple[int, float]]]:
        if self._rows is None:
            A = self._csr
            cols, vals = A.indices.tolist(), A.data.tolist()
            ptr = A.indptr.tolist()
            self._rows = [
                list(zip(cols[ptr[i]:ptr[i + 1]], vals[ptr[i]:ptr[i + 1]]))
                for i in range(A.shape[0])
            ]
        return self._rows

    @property
    def n_vars(self) -> int:
        return len(self.var_lb)

    @property
    def n_rows(self) -> int:
        return len(self.row_rhs)

    @property
    def is_mip(self) -> bool:
        return bool(np.any(self.var_binary))

    def _to_lists(self) -> None:
        """Leave the array form before a structural change."""
        if self._csr is None:
            return
        self.rows  # materialise before the matrix goes
        self._var_names = list(self.var_names)
        self._row_names = list(self.row_names)
        for attr in ("var_lb", "var_ub", "var_obj", "var_binary", "row_sense", "row_rhs"):
            setattr(self, attr, np.asarray(getattr(self, attr)).tolist())
        self._csr = None

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = INF,
        obj: float = 0.0,
        binary: bool = False,
    ) -> int:
        if binary:
            lb = max(lb, 0.0)
            ub = min(ub, 1.0)
        if lb > ub:
            raise ValueError(f"variable {name}: lb {lb} > ub {ub}")
        self._to_lists()
        self.var_names.append(name)
        self.var_lb.append(float(lb))
        self.var_ub.append(float(ub))
        self.var_obj.append(float(obj))
        self.var_binary.append(binary)
        return len(self.var_names) - 1

    def add_obj(self, j: int, coef: float) -> None:
        self.var_obj[j] += float(coef)

    def add_row(self, coeffs, sense: str, rhs: float, name: str = "") -> int:
        if sense not in _SENSES:
            raise ValueError(f"unknown row sense {sense!r}")
        self._to_lists()
        if isinstance(coeffs, dict):
            coeffs = coeffs.items()
        terms: dict[int, float] = {}
        for j, coef in coeffs:
            if not 0 <= j < self.n_vars:
                raise ValueError(f"row {name!r} references undeclared variable {j}")
            if not math.isfinite(coef):
                raise ValueError(f"row {name!r}: non-finite coefficient on {self.var_names[j]}")
            terms[j] = terms.get(j, 0.0) + float(coef)
        if not math.isfinite(rhs):
            raise ValueError(f"row {name!r}: non-finite rhs")
        self.rows.append(sorted(terms.items()))
        self.row_sense.append(sense)
        self.row_rhs.append(float(rhs))
        self.row_names.append(name or f"c{len(self.rows) - 1}")
        return len(self.rows) - 1

    def objective_value(self, x) -> float:
        return float(np.dot(self.var_obj, x) + self.obj_offset)

    def row_activity(self, i: int, x) -> float:
        return float(sum(coef * x[j] for j, coef in self.rows[i]))

    def matrix(self) -> sparse.csr_matrix:
        if self._csr is not None:
            return self._csr
        data, ri, ci = [], [], []
        for i, row in enumerate(self.rows):
            for j, coef in row:
                ri.append(i)
                ci.append(j)
                data.append(coef)
        return sparse.csr_matrix(
            (data, (ri, ci)), shape=(self.n_rows, self.n_vars), dtype=float
        )


def _check_no_binaries(model: LinearModel) -> None:
    if model.is_mip:
        raise BackendError(
            f"model {model.name!r} has binary variables; use solve_milp"
        )


def _reduced_costs(
    model: LinearModel, A: sparse.csr_matrix, duals: np.ndarray
) -> np.ndarray:
    """Reduced costs in the model's stated sense: var_obj - A^T duals."""
    reduced = np.asarray(model.var_obj, dtype=float).copy()
    if model.n_rows:
        reduced -= A.T @ duals
    return reduced


class ScipyBackend:
    """LP via linprog/HiGHS (with duals), MILP via scipy's branch-and-cut."""

    name = "scipy"

    def solve_lp(self, model: LinearModel) -> SolveResult:
        _check_no_binaries(model)
        sign = 1.0 if model.sense == "min" else -1.0
        c = sign * np.asarray(model.var_obj)
        A = model.matrix().tocsr()
        senses = np.asarray(model.row_sense, dtype=object)
        rhs = np.asarray(model.row_rhs)

        eq_idx = np.flatnonzero(senses == EQ)
        le_idx = np.flatnonzero(senses == LE)
        ge_idx = np.flatnonzero(senses == GE)
        # >=-rows enter linprog negated; their reported dual flips back below.
        A_ub = sparse.vstack([A[le_idx], -A[ge_idx]]) if len(le_idx) + len(ge_idx) else None
        b_ub = np.concatenate([rhs[le_idx], -rhs[ge_idx]]) if A_ub is not None else None
        A_eq = A[eq_idx] if len(eq_idx) else None
        b_eq = rhs[eq_idx] if A_eq is not None else None
        bounds = np.column_stack(
            [np.asarray(model.var_lb, dtype=float), np.asarray(model.var_ub, dtype=float)]
        )
        res = linprog(
            c,
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
        )
        status = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded"}.get(
            res.status, "limit"
        )
        if status != "optimal":
            return SolveResult(status=status, stats={"message": res.message})
        duals = np.zeros(model.n_rows)
        if len(eq_idx):
            duals[eq_idx] = res.eqlin.marginals
        if len(le_idx):
            duals[le_idx] = res.ineqlin.marginals[: len(le_idx)]
        if len(ge_idx):
            duals[ge_idx] = -res.ineqlin.marginals[len(le_idx) :]
        duals *= sign
        return SolveResult(
            status="optimal",
            objective=sign * float(res.fun) + model.obj_offset,
            x=np.asarray(res.x),
            duals=duals,
            reduced=_reduced_costs(model, A, duals),
            stats={"iterations": int(getattr(res, "nit", 0))},
        )

    def solve_milp(self, model: LinearModel, gap_tol: float = 1e-9) -> SolveResult:
        if gap_tol < 0:
            raise ValueError("gap_tol must be nonnegative")
        sign = 1.0 if model.sense == "min" else -1.0
        c = sign * np.asarray(model.var_obj)
        constraints = []
        if model.n_rows:
            A = model.matrix()
            senses = np.asarray(model.row_sense, dtype=object)
            rhs = np.asarray(model.row_rhs, dtype=float)
            hi = np.where(senses == GE, INF, rhs)
            lo = np.where(senses == LE, -INF, rhs)
            constraints.append(LinearConstraint(A, lo, hi))
        res = milp(
            c=c,
            constraints=constraints,
            integrality=np.asarray(model.var_binary, dtype=int),
            bounds=Bounds(np.asarray(model.var_lb), np.asarray(model.var_ub)),
            options={"mip_rel_gap": gap_tol},
        )
        status = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded"}.get(
            res.status, "limit"
        )
        if status != "optimal" or res.x is None:
            return SolveResult(status=status, stats={"message": res.message})
        return SolveResult(
            status="optimal",
            objective=sign * float(res.fun) + model.obj_offset,
            x=np.asarray(res.x),
            stats={"mip_gap": float(res.mip_gap) if res.mip_gap is not None else 0.0},
        )


# ---------------------------------------------------------------------------
# In-tree backend: dense two-phase simplex + best-first branch-and-bound.
# ---------------------------------------------------------------------------

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7


class _StandardForm:
    """min c'y, A y = b, y >= 0 translation of a LinearModel.

    Shifts finite lower bounds, mirrors upper-bounded-only variables,
    splits free variables, turns remaining finite upper bounds into extra
    <= rows, then adds slack/surplus columns. Keeps enough bookkeeping to
    map solutions and duals back to the original model.
    """

    def __init__(self, model: LinearModel, lb=None, ub=None):
        n = model.n_vars
        lb = np.asarray(model.var_lb if lb is None else lb, dtype=float)
        ub = np.asarray(model.var_ub if ub is None else ub, dtype=float)
        sign = 1.0 if model.sense == "min" else -1.0
        c_orig = sign * np.asarray(model.var_obj)

        self.model = model
        self.sign = sign
        self.offset = 0.0
        # Per original variable: (kind, data) to reconstruct its value.
        self.recipe: list[tuple[str, object]] = []
        cols: list[dict[int, float]] = [dict() for _ in range(model.n_rows)]
        extra_rows: list[tuple[dict[int, float], float]] = []  # ub rows: y_k <= bound
        c_std: list[float] = []

        def new_col(coef: float) -> int:
            c_std.append(coef)
            return len(c_std) - 1

        for j in range(n):
            if lb[j] > ub[j] + 1e-12:
                self.infeasible_by_bounds = True
                break
            if abs(ub[j] - lb[j]) <= 1e-12 and math.isfinite(lb[j]):
                self.recipe.append(("fixed", lb[j]))
                self.offset += c_orig[j] * lb[j]
                continue
            if lb[j] > -INF:
                k = new_col(c_orig[j])
                self.offset += c_orig[j] * lb[j]
                self.recipe.append(("shift", (k, lb[j])))
                if ub[j] < INF:
                    extra_rows.append(({k: 1.0}, ub[j] - lb[j]))
            elif ub[j] < INF:
                # x = ub - y, y >= 0
                k = new_col(-c_orig[j])
                self.offset += c_orig[j] * ub[j]
                self.recipe.append(("mirror", (k, ub[j])))
            else:
                kp = new_col(c_orig[j])
                km = new_col(-c_orig[j])
                self.recipe.append(("split", (kp, km)))
        else:
            self.infeasible_by_bounds = False

        if self.infeasible_by_bounds:
            return

        # materialize structural rows
        def place(j: int, coef: float, row: dict[int, float]) -> None:
            kind, data = self.recipe[j]
            if kind == "fixed":
                return
            if kind == "shift":
                k, _ = data
                row[k] = row.get(k, 0.0) + coef
            elif kind == "mirror":
                k, _ = data
                row[k] = row.get(k, 0.0) - coef
            else:  # split
                kp, km = data
                row[kp] = row.get(kp, 0.0) + coef
                row[km] = row.get(km, 0.0) - coef

        rhs_adj = np.zeros(model.n_rows)
        for i, row in enumerate(model.rows):
            for j, coef in row:
                kind, data = self.recipe[j]
                if kind == "fixed":
                    rhs_adj[i] += coef * data
                elif kind == "shift":
                    rhs_adj[i] += coef * data[1]
                elif kind == "mirror":
                    rhs_adj[i] += coef * data[1]
                place(j, coef, cols[i])

        n_struct = model.n_rows
        n_extra = len(extra_rows)
        m = n_struct + n_extra
        senses = list(model.row_sense) + [LE] * n_extra
        rhs = np.concatenate(
            [np.asarray(model.row_rhs) - rhs_adj, np.asarray([b for _, b in extra_rows])]
            if n_extra
            else [np.asarray(model.row_rhs) - rhs_adj]
        )
        all_rows = cols + [r for r, _ in extra_rows]

        # slack/surplus columns
        for i, sense in enumerate(senses):
            if sense == LE:
                all_rows[i][new_col(0.0)] = 1.0
            elif sense == GE:
                all_rows[i][new_col(0.0)] = -1.0

        A = np.zeros((m, len(c_std)))
        for i, row in enumerate(all_rows):
            for k, coef in row.items():
                A[i, k] = coef
        # normalize to b >= 0, remembering the flip for dual recovery
        self.row_flip = np.ones(m)
        neg = rhs < 0
        A[neg] *= -1.0
        rhs = np.abs(rhs)
        self.row_flip[neg] = -1.0

        self.A = A
        self.b = rhs
        self.c = np.asarray(c_std)
        self.n_struct = n_struct

    def restore_x(self, y: np.ndarray) -> np.ndarray:
        x = np.zeros(self.model.n_vars)
        for j, (kind, data) in enumerate(self.recipe):
            if kind == "fixed":
                x[j] = data
            elif kind == "shift":
                k, lo = data
                x[j] = lo + y[k]
            elif kind == "mirror":
                k, hi = data
                x[j] = hi - y[k]
            else:
                kp, km = data
                x[j] = y[kp] - y[km]
        return x


def _simplex(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Two-phase dense simplex with Bland's rule.

    Returns (status, y, basis) with status in {optimal, infeasible,
    unbounded}. A is m x n with b >= 0.
    """
    m, n = A.shape
    # Phase 1: artificial basis.
    T = np.hstack([A, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(n, n + m))
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])

    def run(T, basis, cost, ncols):
        while True:
            z = cost[basis] @ T[:, :ncols] - cost[:ncols]
            enter = -1
            for j in range(ncols):
                if j in basis:
                    continue
                if z[j] > _PIVOT_TOL:
                    enter = j
                    break  # Bland: first improving index
            if enter < 0:
                return "optimal", T, basis
            col = T[:, enter]
            best_i, best_ratio = -1, INF
            for i in range(m):
                if col[i] > _PIVOT_TOL:
                    ratio = T[i, -1] / col[i]
                    if ratio < best_ratio - 1e-12 or (
                        abs(ratio - best_ratio) <= 1e-12
                        and (best_i < 0 or basis[i] < basis[best_i])
                    ):
                        best_i, best_ratio = i, ratio
            if best_i < 0:
                return "unbounded", T, basis
            piv = T[best_i, enter]
            T[best_i] /= piv
            for i in range(m):
                if i != best_i and abs(T[i, enter]) > 0:
                    T[i] -= T[i, enter] * T[best_i]
            basis[best_i] = enter

    status, T, basis = run(T, basis, cost1, n + m)
    if status != "optimal":
        return "infeasible", None, None
    phase1_obj = float(cost1[basis] @ T[:, -1])
    if phase1_obj > _FEAS_TOL:
        return "infeasible", None, None
    # Drive artificials out of the basis where possible; drop redundant rows.
    keep_rows = list(range(m))
    for i in range(m):
        if basis[i] >= n:
            pivot_j = -1
            for j in range(n):
                if abs(T[i, j]) > _PIVOT_TOL:
                    pivot_j = j
                    break
            if pivot_j < 0:
                keep_rows.remove(i)
                continue
            piv = T[i, pivot_j]
            T[i] /= piv
            for k in range(m):
                if k != i and abs(T[k, pivot_j]) > 0:
                    T[k] -= T[k, pivot_j] * T[i]
            basis[i] = pivot_j
    if len(keep_rows) != m:
        T = T[keep_rows]
        basis = [basis[i] for i in keep_rows]
        m = len(keep_rows)
    # Phase 2 on structural columns only.
    T2 = np.hstack([T[:, :n], T[:, -1].reshape(-1, 1)])
    cost2 = np.asarray(c, dtype=float)
    status, T2, basis = run(T2, basis, cost2, n)
    if status != "optimal":
        return "unbounded", None, None
    y = np.zeros(n)
    for i, j in enumerate(basis):
        y[j] = T2[i, -1]
    return "optimal", y, (basis, keep_rows)


class InTreeBackend:
    """Self-contained numpy simplex + branch-and-bound backend."""

    name = "intree"

    def solve_lp(self, model: LinearModel, lb=None, ub=None) -> SolveResult:
        if lb is None and ub is None:
            _check_no_binaries(model)
        std = _StandardForm(model, lb=lb, ub=ub)
        if std.infeasible_by_bounds:
            return SolveResult(status="infeasible")
        status, y, info = _simplex(std.A.copy(), std.b.copy(), std.c)
        if status != "optimal":
            # unbounded in min space maps back to the declared sense
            return SolveResult(status=status)
        basis, keep_rows = info
        x = std.restore_x(y)
        obj_min = float(std.c @ y) + std.offset
        objective = std.sign * obj_min + model.obj_offset
        # duals of the surviving rows: solve B^T yd = c_B, map back by flips
        B = std.A[keep_rows][:, basis]
        try:
            yd = np.linalg.solve(B.T, std.c[basis])
        except np.linalg.LinAlgError:
            yd, *_ = np.linalg.lstsq(B.T, std.c[basis], rcond=None)
        full = np.zeros(std.A.shape[0])
        full[keep_rows] = yd
        full *= std.row_flip
        duals = std.sign * full[: std.n_struct]
        return SolveResult(
            status="optimal",
            objective=objective,
            x=x,
            duals=duals,
            reduced=_reduced_costs(model, model.matrix(), duals),
            stats={"basis_size": len(basis)},
        )

    def solve_milp(self, model: LinearModel, gap_tol: float = 1e-9) -> SolveResult:
        if gap_tol < 0:
            raise ValueError("gap_tol must be nonnegative")
        if not model.is_mip:
            return self.solve_lp(model)
        bins = [j for j, b in enumerate(model.var_binary) if b]
        sign = 1.0 if model.sense == "min" else -1.0

        def relax(fix: dict[int, float]) -> SolveResult:
            lb = list(model.var_lb)
            ub = list(model.var_ub)
            for j, v in fix.items():
                lb[j] = ub[j] = v
            return self.solve_lp(model, lb=lb, ub=ub)

        root = relax({})
        if root.status != "optimal":
            return SolveResult(status=root.status)
        incumbent: SolveResult | None = None
        best_obj = INF  # min space
        counter = 0
        heap = [(sign * root.objective, counter, {}, root)]
        nodes = 0

        def cutoff() -> float:
            if not math.isfinite(best_obj):
                return INF
            return best_obj - gap_tol * max(1.0, abs(best_obj))

        while heap:
            bound, _, fix, res = heapq.heappop(heap)
            if bound >= cutoff() - 1e-12:
                continue
            nodes += 1
            frac_j, frac_dist = -1, -1.0
            for j in bins:
                v = res.x[j]
                dist = min(v, 1.0 - v)
                if dist > 1e-9 and dist > frac_dist:
                    frac_j, frac_dist = j, dist
            if frac_j < 0:
                obj_min = sign * res.objective
                if obj_min < best_obj:
                    best_obj = obj_min
                    incumbent = res
                continue
            for v in (0.0, 1.0):
                child_fix = dict(fix)
                child_fix[frac_j] = v
                child = relax(child_fix)
                if child.status != "optimal":
                    continue
                child_bound = sign * child.objective
                if child_bound < cutoff():
                    counter += 1
                    heapq.heappush(heap, (child_bound, counter, child_fix, child))
        if incumbent is None:
            return SolveResult(status="infeasible", stats={"nodes": nodes})
        incumbent.stats["nodes"] = nodes
        incumbent.duals = None  # relaxation duals are not the MILP's
        return incumbent


_BACKENDS = {"scipy": ScipyBackend, "intree": InTreeBackend}


def get_backend(name: str = "scipy"):
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {sorted(_BACKENDS)}"
        ) from None


# ---------------------------------------------------------------------------
# Text export in LP format (and a reader for the same dialect).
# ---------------------------------------------------------------------------


def _lp_safe_names(names: list[str]) -> list[str]:
    out, seen = [], set()
    for k, name in enumerate(names):
        safe = re.sub(r"[^A-Za-z0-9_.]", "_", name) or f"v{k}"
        if safe[0].isdigit() or safe[0] == ".":
            safe = "v_" + safe
        base = safe
        i = 1
        while safe in seen:
            safe = f"{base}_{i}"
            i += 1
        seen.add(safe)
        out.append(safe)
    return out


def _lp_terms(terms, names) -> str:
    parts = []
    for j, coef in terms:
        if coef == 0:
            continue
        op = "-" if coef < 0 else "+"
        parts.append(f"{op} {abs(coef):.17g} {names[j]}")
    if not parts:
        return "0 " + (names[0] if names else "x0")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def write_lp_file(model: LinearModel, path) -> None:
    """Write the model in LP text format for external inspection."""
    names = _lp_safe_names(model.var_names)
    lines = [f"\\ {model.name}"]
    lines.append("Minimize" if model.sense == "min" else "Maximize")
    obj = _lp_terms(list(enumerate(model.var_obj)), names)
    if model.obj_offset:
        op = "+" if model.obj_offset > 0 else "-"
        obj += f" {op} {abs(model.obj_offset):.17g}"
    lines.append(f" obj: {obj}")
    lines.append("Subject To")
    for i, row in enumerate(model.rows):
        sense = {LE: "<=", GE: ">=", EQ: "="}[model.row_sense[i]]
        lines.append(
            f" c{i}: {_lp_terms(row, names)} {sense} {model.row_rhs[i]:.17g}"
        )
    lines.append("Bounds")
    for j in range(model.n_vars):
        lb, ub = model.var_lb[j], model.var_ub[j]
        if lb == 0.0 and ub == INF:
            continue
        if lb == -INF and ub == INF:
            lines.append(f" {names[j]} free")
        elif ub == INF:
            lines.append(f" {names[j]} >= {lb:.17g}")
        elif lb == -INF:
            lines.append(f" {names[j]} <= {ub:.17g}")
        else:
            lines.append(f" {lb:.17g} <= {names[j]} <= {ub:.17g}")
    binaries = [names[j] for j in range(model.n_vars) if model.var_binary[j]]
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(binaries))
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_NUM = r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?"
_IDENT = r"[A-Za-z_][A-Za-z0-9_.]*"


def _parse_expr(text: str, var_ids: dict[str, int], model: LinearModel):
    """Parse 'a x + b y - 3' into (terms, constant), registering variables."""
    terms: list[tuple[int, float]] = []
    const = 0.0
    pos = 0
    token = re.compile(
        rf"\s*(?P<sign>[+-])?\s*(?:(?P<num>{_NUM})\s*)?(?P<var>{_IDENT})?"
    )
    while pos < len(text):
        m = token.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse LP expression at: {text[pos:]!r}")
        sign = -1.0 if m.group("sign") == "-" else 1.0
        num = float(m.group("num")) if m.group("num") else 1.0
        var = m.group("var")
        if var is None:
            if m.group("num") is None:
                raise ValueError(f"dangling sign in LP expression: {text!r}")
            const += sign * num
        else:
            if var not in var_ids:
                var_ids[var] = model.add_var(var)
            terms.append((var_ids[var], sign * num))
        pos = m.end()
    return terms, const


def read_lp_file(path) -> LinearModel:
    """Parse the LP dialect written by write_lp_file back into a model."""
    raw = [
        ln.rstrip()
        for ln in Path(path).read_text().splitlines()
        if ln.strip() and not ln.lstrip().startswith("\\")
    ]
    model = LinearModel(name=str(path))
    var_ids: dict[str, int] = {}
    section = None
    sense_words = {
        "minimize": "min",
        "maximize": "max",
        "subject": "rows",
        "bounds": "bounds",
        "binaries": "binaries",
        "end": "end",
    }
    rows_pending: list[tuple[str, str]] = []
    bounds_pending: list[str] = []
    binaries_pending: list[str] = []
    obj_text = []
    for ln in raw:
        word = ln.strip().split()[0].lower()
        if word in sense_words and len(ln.strip().split()) <= 2:
            kind = sense_words[word]
            if kind in ("min", "max"):
                model.sense = kind
                section = "obj"
            elif kind == "end":
                break
            else:
                section = kind
            continue
        if section == "obj":
            obj_text.append(ln.strip())
        elif section == "rows":
            name, _, body = ln.strip().partition(":")
            rows_pending.append((name.strip(), body.strip()))
        elif section == "bounds":
            bounds_pending.append(ln.strip())
        elif section == "binaries":
            binaries_pending.extend(ln.split())

    obj_body = " ".join(obj_text)
    if ":" in obj_body:
        obj_body = obj_body.split(":", 1)[1]
    terms, const = _parse_expr(obj_body.strip(), var_ids, model)
    for j, coef in terms:
        model.add_obj(j, coef)
    model.obj_offset = const

    for name, body in rows_pending:
        m = re.match(r"(.*?)(<=|>=|=)(.*)", body)
        if not m:
            raise ValueError(f"row {name!r}: no sense found in {body!r}")
        lhs, sense, rhs_text = m.group(1), m.group(2), m.group(3)
        terms, const = _parse_expr(lhs.strip(), var_ids, model)
        rhs = float(rhs_text) - const
        model.add_row(terms, sense if sense != "=" else EQ, rhs, name=name)

    for ln in bounds_pending:
        if ln.lower().endswith(" free"):
            name = ln[: -len(" free")].strip()
            j = var_ids.setdefault(name, model.add_var(name))
            model.var_lb[j], model.var_ub[j] = -INF, INF
            continue
        two = re.match(rf"({_NUM}|-{_NUM})\s*<=\s*({_IDENT})\s*<=\s*({_NUM}|-{_NUM})", ln)
        if two:
            j = var_ids.setdefault(two.group(2), model.add_var(two.group(2)))
            model.var_lb[j] = float(two.group(1))
            model.var_ub[j] = float(two.group(3))
            continue
        one = re.match(rf"({_IDENT})\s*(<=|>=)\s*(-?{_NUM})", ln)
        if one:
            j = var_ids.setdefault(one.group(1), model.add_var(one.group(1)))
            if one.group(2) == "<=":
                model.var_lb[j] = -INF
                model.var_ub[j] = float(one.group(3))
            else:
                model.var_lb[j] = float(one.group(3))
                model.var_ub[j] = INF
            continue
        raise ValueError(f"cannot parse bound line: {ln!r}")

    for name in binaries_pending:
        j = var_ids.setdefault(name, model.add_var(name))
        model.var_binary[j] = True
        model.var_lb[j] = max(model.var_lb[j], 0.0)
        model.var_ub[j] = min(model.var_ub[j], 1.0)
    return model
