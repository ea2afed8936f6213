"""Solver backends behind a single small contract.

Model logic elsewhere in the package builds a LinearModel (variables with
bounds, a constraint matrix, one objective) and hands it to a backend. A
LinearModel has one storage form, numpy arrays around one CSRMatrix: the
builders in master.py and subproblem.py stamp those arrays directly, and
ModelBuilder makes them from a model written one row at a time. Two
backends ship:

- ScipyBackend: the HiGHS solver bundled with scipy, called directly, for
  LPs with row duals and for mixed binary programs. Default. Mixed-binary
  programs run with HiGHS's RINS and RENS sub-MIP heuristics off, where the
  bundled HiGHS has the switches, since they only hunt incumbents. Given an
  objective target, a mixed-binary solve stops at the first incumbent that
  reaches it. An option HiGHS rejects is a BackendError.
- InTreeBackend: a dense two-phase simplex with Bland's rule plus best-first
  branch-and-bound over binary variables, pure numpy. Self-contained and
  deterministic; meant for desk-scale models and for cross-checking.

Both have solve_lp, solve_milp and solve_lps. solve_lp and solve_milp load
the model into a fresh solver and run it once. solve_lps(model, rhs) solves
one LP under a sequence of right-hand-side vectors, each in place of
model.row_rhs, and returns one result per vector: ScipyBackend loads the
LP once and re-solves it warm from the basis HiGHS holds, moving just the
rows whose rhs changed (after a result that is not optimal, the next
vector loads cold); InTreeBackend solves each vector from scratch. No
backend keeps a model between calls.

solve_lp(model, start=None) also hands a basis from one call to the next.
ScipyBackend keeps HiGHS's optimal basis on an optimal result, as
SolveResult.basis, and a later solve_lp given it as start skips presolve
and begins its simplex there. The basis is an opaque HiGHS object: pass it
on as it is (reading its statuses from Python can cost more than the
pivots it saves), and do not pickle it, since it cannot be. A start only
moves where the pivots begin: HiGHS refuses a basis whose sizes do not fit
the model and then solves cold, and from any basis it accepts it still
solves the model to optimality. InTreeBackend accepts start, ignores it
and keeps no basis.

ScipyBackend loads every model, LP or mixed-binary, with one passModel
call on arrays: column-wise matrix, costs, column and row bounds and an
integrality marker per column.

Only HiGHS is taken from scipy. Its extension module is loaded on its own,
under the name scipy gives it, so importing this package does not run
scipy.optimize's __init__ (or load scipy.sparse and scipy.linalg with it);
a later import of scipy.optimize finds and uses that same module.

Dual convention: duals[i] is the derivative of the stated objective (min or
max, as declared on the model) with respect to the rhs of row i. For
"min x s.t. x >= 3" the dual on the row is +1.
"""

from __future__ import annotations

import copy
import functools
import heapq
import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy


def _load_highs():
    """scipy's bundled HiGHS extension, without scipy.optimize's __init__.

    A private scipy module, hence the scipy>=1.15 floor in pyproject.toml:
    the HiGHS object that scipy's own linprog and milp wrap. If scipy.optimize
    already loaded it, that module is reused; otherwise it is loaded from
    scipy/optimize/_highspy and registered under its own name, so that a
    later import of scipy.optimize does not load a second copy.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    where = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(name, [where])
    if spec is None:
        raise ImportError(
            f"no HiGHS extension {name} in {where}; robustgrid needs scipy>=1.15, "
            f"found scipy {scipy.__version__}"
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


highs = _load_highs()

__all__ = [
    "LE",
    "GE",
    "EQ",
    "BackendError",
    "CSRMatrix",
    "LinearModel",
    "ModelBuilder",
    "SolveResult",
    "ScipyBackend",
    "InTreeBackend",
    "get_backend",
    "PRIMAL_FEASIBILITY_TOLERANCE",
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
    """Outcome of one solve. x is present iff status is optimal or target
    (a mixed-binary solve stopped at an incumbent that reached its
    objective target); duals only for optimal LPs (a mixed-binary solve has
    none), and basis only for optimal LPs that ScipyBackend.solve_lp solved.
    """

    status: str
    objective: float | None = None
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    stats: dict = field(default_factory=dict)
    # HiGHS's optimal basis of an LP, opaque (see the module docstring)
    basis: object | None = field(default=None, repr=False)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class CSRMatrix:
    """A sparse matrix in compressed sparse row form.

    Row i holds the columns indices[indptr[i]:indptr[i + 1]] and the values
    in the same slice of data; shape is (rows, columns). Entries are kept as
    given: not sorted, merged or pruned, explicit zeros and their signs
    included. The index arrays are int32, HiGHS's index width. The
    constructor checks the structure and raises ValueError on a malformed
    one. colwise() gives the column-wise arrays HiGHS loads; there is no
    algebra, since the solvers do it.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr, indices, data, shape: tuple[int, int]):
        n_rows, n_cols = (int(n) for n in shape)
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        data = np.asarray(data, dtype=float)
        if not (
            np.issubdtype(indptr.dtype, np.integer) and np.issubdtype(indices.dtype, np.integer)
        ):
            raise ValueError("indptr and indices must be integer arrays")
        if indptr.ndim != 1 or indices.ndim != 1 or data.ndim != 1:
            raise ValueError("indptr, indices and data must be one-dimensional")
        if min(n_rows, n_cols) < 0 or len(indptr) != n_rows + 1:
            raise ValueError(f"indptr has length {len(indptr)} for shape {(n_rows, n_cols)}")
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must start at 0 and never decrease")
        if not indptr[-1] == len(indices) == len(data):
            raise ValueError(
                f"indptr ends at {indptr[-1]}, but there are {len(indices)} indices "
                f"and {len(data)} values"
            )
        if len(indices) and (indices.min() < 0 or indices.max() >= n_cols):
            raise ValueError(f"a column index is outside 0..{n_cols - 1}")
        if max(n_cols, len(data)) > np.iinfo(np.int32).max:
            raise ValueError("matrix too large for 32-bit indices")
        self.indptr = indptr.astype(np.int32, copy=False)
        self.indices = indices.astype(np.int32, copy=False)
        self.data = data
        self.shape = (n_rows, n_cols)

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int32), np.diff(self.indptr))

    def colwise(self):
        """(start, index, value): the matrix column by column, as HiGHS loads it.

        Within a column the entries ascend by row, and entries that share a
        row keep their stored order; values, zeros and signs are copied as
        stored. That is scipy's tocsc(), entry for entry.
        """
        n_cols = self.shape[1]
        perm = np.argsort(self.indices, kind="stable")
        start = np.zeros(n_cols + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.indices, minlength=n_cols), out=start[1:])
        return start, self.row_ids()[perm], self.data[perm]


class LinearModel:
    """Sparse LP or mixed-binary program, held as arrays around one CSRMatrix.

    matrix is the constraint matrix in canonical form (sorted column
    indices, merged duplicates, explicit zeros kept) and matrix() returns it
    as is. Beside it: row senses ("<=", ">=", "=") and right-hand sides;
    variable bounds, objective and binary markers. var_lb and var_ub are
    writable arrays, so fixing a binary is done by tightening them in place.
    var_names and row_names are lists or zero-argument callables that
    return them; a callable runs on first access only. Row-by-row
    construction goes through ModelBuilder.
    """

    def __init__(
        self,
        matrix: CSRMatrix,
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
    ):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be min or max, got {sense!r}")
        n_rows, n_vars = matrix.shape
        if len(row_sense) != n_rows or len(row_rhs) != n_rows:
            raise ValueError("row arrays do not match the matrix height")
        if not len(var_lb) == len(var_ub) == len(var_obj) == n_vars:
            raise ValueError("variable arrays do not match the matrix width")
        if var_binary is not None and len(var_binary) != n_vars:
            raise ValueError("var_binary does not match the matrix width")
        self.name = name
        self.sense = sense
        self._csr = matrix
        self.row_sense = row_sense
        self.row_rhs = row_rhs
        self.var_lb = var_lb
        self.var_ub = var_ub
        self.var_obj = var_obj
        self.var_binary = (
            np.zeros(n_vars, dtype=bool) if var_binary is None else var_binary
        )
        self._var_names = var_names
        self._row_names = row_names

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
        """The matrix as (column, coefficient) lists, one per row; a copy."""
        A = self._csr
        cols, vals, ptr = A.indices.tolist(), A.data.tolist(), A.indptr.tolist()
        return [
            list(zip(cols[ptr[i]:ptr[i + 1]], vals[ptr[i]:ptr[i + 1]]))
            for i in range(A.shape[0])
        ]

    @property
    def n_vars(self) -> int:
        return len(self.var_lb)

    @property
    def n_rows(self) -> int:
        return len(self.row_rhs)

    @property
    def is_mip(self) -> bool:
        return bool(np.any(self.var_binary))

    def matrix(self) -> CSRMatrix:
        return self._csr


class ModelBuilder:
    """Builds a LinearModel one variable and one row at a time.

    A row's terms are merged per column and sorted by column; a zero
    coefficient stays as an explicit entry, and every coefficient is stored
    as 0.0 + v, so -0.0 becomes 0.0. Binary variables get bounds [0, 1].
    """

    def __init__(self, name: str = "model", sense: str = "min"):
        self.name = name
        self.sense = sense
        self.var_names: list[str] = []
        self.var_lb: list[float] = []
        self.var_ub: list[float] = []
        self.var_obj: list[float] = []
        self.var_binary: list[bool] = []
        self.row_names: list[str] = []
        self.row_sense: list[str] = []
        self.row_rhs: list[float] = []
        self.rows: list[list[tuple[int, float]]] = []

    @property
    def n_vars(self) -> int:
        return len(self.var_lb)

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
        self.var_names.append(name)
        self.var_lb.append(float(lb))
        self.var_ub.append(float(ub))
        self.var_obj.append(float(obj))
        self.var_binary.append(binary)
        return len(self.var_names) - 1

    def add_row(self, coeffs, sense: str, rhs: float, name: str = "") -> int:
        if sense not in _SENSES:
            raise ValueError(f"unknown row sense {sense!r}")
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

    def build(self) -> LinearModel:
        matrix = CSRMatrix(
            np.cumsum([0] + [len(row) for row in self.rows]),
            np.array([j for row in self.rows for j, _ in row], dtype=np.int32),
            np.array([coef for row in self.rows for _, coef in row], dtype=float),
            (len(self.rows), self.n_vars),
        )
        return LinearModel(
            matrix,
            row_sense=np.array(self.row_sense, dtype=object),
            row_rhs=np.array(self.row_rhs, dtype=float),
            var_lb=np.array(self.var_lb, dtype=float),
            var_ub=np.array(self.var_ub, dtype=float),
            var_obj=np.array(self.var_obj, dtype=float),
            var_names=list(self.var_names),
            row_names=list(self.row_names),
            var_binary=np.array(self.var_binary, dtype=bool),
            name=self.name,
            sense=self.sense,
        )


def _check_no_binaries(model: LinearModel) -> None:
    if model.is_mip:
        raise BackendError(
            f"model {model.name!r} has binary variables; use solve_milp"
        )


# Statuses that come with a solution: a proven optimum, or an incumbent
# that reached the objective target of a mixed-binary solve.
_SOLVED = {
    highs.HighsModelStatus.kOptimal: "optimal",
    highs.HighsModelStatus.kObjectiveTarget: "target",
}

_STATUS = {
    highs.HighsModelStatus.kInfeasible: "infeasible",
    highs.HighsModelStatus.kUnbounded: "unbounded",
    highs.HighsModelStatus.kModelError: "infeasible",
}

# Dual simplex, presolve on, no output: the options linprog's "highs"
# method used. HiGHS's pivots depend on these and on the row order, which
# is the model's own (see _Loaded).
_OPTIONS = {"output_flag": False, "presolve": "on", "simplex_strategy": 1}

# HiGHS's primal_feasibility_tolerance, left at its default by _OPTIONS: a
# solution's bounds and rows hold to within this, in absolute terms.
PRIMAL_FEASIBILITY_TOLERANCE = 1e-7

# RINS and RENS are sub-MIPs that only hunt incumbents (Danna, Rothberg &
# Le Pape 2005; Berthold 2014); CCG's exact solves need the proven optimum.
# The worst-case MILPs have 10-14 binaries and weak big-M bounds. With every
# MILP exact, over ladder-mid's 13 non-trivial MILPs (seed 3) the two
# switches took HiGHS from 8.6 s to 5.4 s (451 -> 521 nodes, objectives
# equal to 1.7e-9 relative); mip_heuristic_effort=0 alone does not stop the
# root sub-MIPs (6.5 s).
_MIP_SWITCHES = {"mip_heuristic_run_rins": False, "mip_heuristic_run_rens": False}

@functools.cache
def _milp_options() -> dict:
    """_OPTIONS plus those of _MIP_SWITCHES this HiGHS knows, asked once.

    An older HiGHS without a switch runs as it always did.
    """
    probe = highs._Highs()
    probe.setOptionValue("output_flag", False)
    known = {
        key: value
        for key, value in _MIP_SWITCHES.items()
        if probe.getOptionValue(key)[0] == highs.HighsStatus.kOk
    }
    return {**_OPTIONS, **known}


def _bounds(senses: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row bounds lower <= A x <= upper of rows with these senses and rhs."""
    return np.where(senses == LE, -INF, rhs), np.where(senses == GE, INF, rhs)


class _Loaded:
    """A HiGHS object with one model passed in: the load half of a solve.

    Rows go in as lower <= A x <= upper, with rhs in place of the model's
    row_rhs, and every model, LP or mixed-binary, keeps its own row order.
    HiGHS's pivots depend on the row order, and so does the CCG path.
    An inequality-first LP layout (the one linprog gave HiGHS) took the
    perfbench ladder-mid run at seed 3 through 8 CCG iterations, 9580 LP
    iterations and 8 worst-case MILPs, against 5, 4810 and 5 in model order
    (HiGHS as bundled with scipy 1.17.1).

    The model goes in by one passModel call on arrays, the column-wise
    matrix included, always as a minimization (max models negate their
    costs). Its integrality array marks binaries 1 (integer; the bounds
    make them binary) and the rest 0 (continuous). An LP passes zeros too:
    HiGHS refuses an empty one.
    """

    def __init__(self, model: LinearModel, rhs: np.ndarray, options: dict):
        self.sign = 1.0 if model.sense == "min" else -1.0
        self.senses, self.rhs = model.row_sense, rhs
        self.solver = highs._Highs()
        for key, value in options.items():
            if self.solver.setOptionValue(key, value) == highs.HighsStatus.kError:
                raise BackendError(f"HiGHS rejected option {key}={value!r}")
        start, index, value = model.matrix().colwise()
        row_lower, row_upper = _bounds(self.senses, rhs)
        status = self.solver.passModel(
            model.n_vars,
            model.n_rows,
            len(value),
            int(highs.MatrixFormat.kColwise),
            int(highs.ObjSense.kMinimize),
            0.0,
            self.sign * model.var_obj,
            model.var_lb,
            model.var_ub,
            row_lower,
            row_upper,
            start,
            index,
            value,
            np.asarray(model.var_binary, dtype=np.int32),
        )
        self.passed = status != highs.HighsStatus.kError

    def move_rhs(self, rhs: np.ndarray) -> None:
        """Give the loaded model these right-hand sides, moving into HiGHS
        only the rows whose rhs changed. Bounds HiGHS refuses leave the
        model unsolvable, as a refused passModel does, so solve reports a
        model error either way."""
        moved = np.flatnonzero(rhs != self.rhs)
        lower, upper = _bounds(self.senses[moved], rhs[moved])
        for row, lo, up in zip(moved.tolist(), lower.tolist(), upper.tolist()):
            if self.solver.changeRowBounds(row, lo, up) == highs.HighsStatus.kError:
                self.passed = False
                return
        self.rhs = rhs

    def solve(self) -> tuple[SolveResult, highs.HighsInfo]:
        """Run HiGHS from its current state and read the result: the read
        half; duals for LPs only."""
        if self.passed:
            self.solver.run()
            status = self.solver.getModelStatus()
        else:
            status = highs.HighsModelStatus.kModelError
        info = self.solver.getInfo()
        if status not in _SOLVED:
            message = self.solver.modelStatusToString(status)
            return SolveResult(_STATUS.get(status, "limit"), stats={"message": message}), info
        solution = self.solver.getSolution()
        duals = self.sign * np.asarray(solution.row_dual) if solution.dual_valid else None
        result = SolveResult(
            status=_SOLVED[status],
            objective=self.sign * info.objective_function_value,
            x=np.asarray(solution.col_value),
            duals=duals,
        )
        return result, info


def _rhs_vectors(model: LinearModel, rhs):
    """The vectors of rhs as float arrays of their own, each checked against
    model's rows. A copy, because a loaded model compares each vector with
    the one before it, and a caller may refill one buffer between vectors."""
    for b in rhs:
        b = np.array(b, dtype=float)
        if b.shape != (model.n_rows,):
            raise ValueError(f"rhs of shape {b.shape} for a model of {model.n_rows} rows")
        yield b


class ScipyBackend:
    """LPs and mixed-binary programs through the HiGHS object scipy bundles."""

    name = "scipy"

    def solve_lp(self, model: LinearModel, start=None) -> SolveResult:
        """Solve the LP model, from the basis start where HiGHS accepts it
        (see the module docstring). An optimal result keeps HiGHS's
        optimal basis, and records its simplex iterations in stats."""
        _check_no_binaries(model)
        loaded = _Loaded(model, model.row_rhs, _OPTIONS)
        if start is not None:
            loaded.solver.setBasis(start)  # refused where the sizes do not fit
        res, info = loaded.solve()
        if res.optimal:
            res.stats["iterations"] = info.simplex_iteration_count
            res.basis = loaded.solver.getBasis()
        return res

    def solve_lps(self, model: LinearModel, rhs) -> list[SolveResult]:
        """Solve the LP model under each right-hand-side vector of rhs.

        The first vector loads the model cold, exactly as solve_lp would
        with that rhs and no start. Each later one re-solves it warm: the
        rows whose rhs changed are moved, and HiGHS starts from the basis it
        holds. After a result that is not optimal, the next vector loads
        cold. No result keeps a basis.
        """
        _check_no_binaries(model)
        results, loaded = [], None
        for b in _rhs_vectors(model, rhs):
            if loaded is None:
                loaded = _Loaded(model, b, _OPTIONS)
            else:
                loaded.move_rhs(b)
            res, info = loaded.solve()
            if res.optimal:
                res.stats["iterations"] = info.simplex_iteration_count
            else:
                loaded = None
            results.append(res)
        return results

    def solve_milp(
        self, model: LinearModel, gap_tol: float = 1e-9, target: float | None = None
    ) -> SolveResult:
        """Solve to the relative gap gap_tol, or, given a target, stop at the
        first incumbent whose objective reaches it (status "target").

        HiGHS minimizes sign * objective (see _Loaded), so the target goes
        in with that sign: for a max model, a target of +t would already be
        met by any incumbent of value above -t.

        A result with a solution records HiGHS's branch-and-bound nodes and
        simplex iterations in stats, as "nodes" and "iterations".
        """
        if gap_tol < 0:
            raise ValueError("gap_tol must be nonnegative")
        options = {**_milp_options(), "mip_rel_gap": gap_tol}
        if target is not None:
            options["objective_target"] = target if model.sense == "min" else -target
        res, info = _Loaded(model, model.row_rhs, options).solve()
        if res.x is not None:
            res.stats["nodes"] = info.mip_node_count
            res.stats["iterations"] = info.simplex_iteration_count
        return res


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

    def __init__(self, model: LinearModel, lb: np.ndarray, ub: np.ndarray):
        n = model.n_vars
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
        A = model.matrix()
        for i, j, coef in zip(A.row_ids().tolist(), A.indices.tolist(), A.data.tolist()):
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

    def solve_lp(self, model: LinearModel, start=None) -> SolveResult:
        """Solve the LP model from scratch; start is accepted and ignored."""
        _check_no_binaries(model)
        return self._relaxation(model, model.var_lb, model.var_ub)

    def solve_lps(self, model: LinearModel, rhs) -> list[SolveResult]:
        """Solve the LP model under each right-hand-side vector of rhs, each
        from scratch."""
        results = []
        for b in _rhs_vectors(model, rhs):
            one = copy.copy(model)
            one.row_rhs = b
            results.append(self.solve_lp(one))
        return results

    def _relaxation(self, model: LinearModel, lb: np.ndarray, ub: np.ndarray) -> SolveResult:
        """Solve model as an LP over the bounds lb, ub, binaries relaxed."""
        std = _StandardForm(model, lb, ub)
        if std.infeasible_by_bounds:
            return SolveResult(status="infeasible")
        status, y, info = _simplex(std.A.copy(), std.b.copy(), std.c)
        if status != "optimal":
            # unbounded in min space maps back to the declared sense
            return SolveResult(status=status)
        basis, keep_rows = info
        x = std.restore_x(y)
        obj_min = float(std.c @ y) + std.offset
        objective = std.sign * obj_min
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
        )

    def solve_milp(
        self, model: LinearModel, gap_tol: float = 1e-9, target: float | None = None
    ) -> SolveResult:
        """Best-first branch-and-bound to the relative gap gap_tol. target is
        accepted and ignored: a proven optimum answers any target. The
        result records the nodes branched on or closed in stats["nodes"]."""
        if gap_tol < 0:
            raise ValueError("gap_tol must be nonnegative")
        if not model.is_mip:
            return self.solve_lp(model)
        bins = [j for j, b in enumerate(model.var_binary) if b]
        sign = 1.0 if model.sense == "min" else -1.0

        def relax(fix: dict[int, float]) -> SolveResult:
            lb = model.var_lb.copy()
            ub = model.var_ub.copy()
            for j, v in fix.items():
                lb[j] = ub[j] = v
            return self._relaxation(model, lb, ub)

        root = relax({})
        if root.status != "optimal":
            return SolveResult(status=root.status)
        incumbent: SolveResult | None = None
        best_obj = INF  # min space
        counter = nodes = 0
        heap = [(sign * root.objective, counter, {}, root)]

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
            return SolveResult(status="infeasible")
        incumbent.duals = None  # relaxation duals are not the MILP's
        incumbent.stats["nodes"] = nodes
        return incumbent


_BACKENDS = {"scipy": ScipyBackend, "intree": InTreeBackend}


def get_backend(name: str = "scipy"):
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {sorted(_BACKENDS)}"
        ) from None
