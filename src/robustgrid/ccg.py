"""Column-and-constraint generation loop tying master and worst case together.

Each iteration solves the investment master over every cut found so far
(the all-reference realization seeds the memory) and hands the capacities
to the worst-case search. The memory does not get the search's worst case
itself but its completion (uncertainty.complete): the same flags plus live
flags, in region declaration order, up to the budget in every (technology,
period) group. The search only has binaries where a unit already has
capacity, so its worst case leaves out the regions the master has not
built in yet; the completion puts them in, and at full budget the first
cut is the member that dominates all others. The cut is exact: at the
capacities the search saw, a flag never lowers the dispatch cost, so the
cut costs at least the worst-case value, and it is a member, so it costs
at most that. The trace keeps the search's own worst case. The master
objective is a lower bound that only rises as memory grows; investment plus
the worst-case value is an upper bound whose running minimum only falls.
The loop stops when the current iterate's own bound pair closes, which is
the same statement as the convergence certificate: the worst case found for
the final plan costs no more than the recourse the master already priced.

With exact arithmetic no cut can repeat while the gap is open: a cut in
memory already holds the recourse estimate at or above the worst-case
value. If floating point makes one repeat, the loop stops and reports a
numerical stall instead of spinning.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

from .backend import BackendError, get_backend
from .master import MasterSolution, build_master, solve_master
from .subproblem import build_subproblem, solve_subproblem
from .uncertainty import UncertaintyBudget, WorstCaseRealization, complete, realize
from .model import NetworkInstance

__all__ = [
    "CcgConfig",
    "CcgIteration",
    "CcgTrace",
    "LadderEntry",
    "run_ccg",
    "run_gamma_ladder",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CcgConfig:
    """Loop controls. The worst-case MILP runs to a relative gap of a
    tenth of the stopping tolerance, so its bound is crisper than the gap it
    feeds."""

    tolerance: float = 1e-8
    max_iterations: int = 50
    big_m: float | None = None

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be at least 1, got {self.max_iterations}"
            )
        if self.big_m is not None and not self.big_m > 0:
            raise ValueError(f"big_m must be positive, got {self.big_m}")


@dataclass
class CcgIteration:
    index: int
    lower_bound: float
    upper_bound: float  # running minimum of investment + worst-case value
    gap: float
    investment: float
    subproblem_objective: float
    realization: WorstCaseRealization  # the search's worst case, not the cut
    duplicate: bool  # the cut was already in memory
    seconds: float


@dataclass
class CcgTrace:
    iterations: list[CcgIteration] = field(default_factory=list)
    converged: bool = False
    stalled: bool = False
    message: str = ""

    @property
    def final_gap(self) -> float:
        return self.iterations[-1].gap


def run_ccg(
    inst: NetworkInstance,
    budget: UncertaintyBudget,
    config: CcgConfig | None = None,
    backend=None,
) -> tuple[MasterSolution, CcgTrace]:
    """Iterate master and worst-case search until the bound pair closes."""
    config = config or CcgConfig()
    backend = backend or get_backend("scipy")
    budget = budget.clamp(len(inst.regions))

    reference = WorstCaseRealization.reference()
    seen = {reference.key()}
    cf_memory = [realize(inst, reference)]
    trace = CcgTrace()
    running_ub = float("inf")
    solution: MasterSolution | None = None

    for k in range(config.max_iterations):
        started = time.perf_counter()
        try:
            build = build_master(inst, cf_memory)
            solution = solve_master(build, backend)
            sub = build_subproblem(inst, solution.capacities, budget, big_m=config.big_m)
            worst = solve_subproblem(sub, backend, gap_tol=config.tolerance / 10.0)
        except BackendError as err:
            raise BackendError(f"iteration {k}: {err}") from err
        cut = WorstCaseRealization(complete(inst, worst.flags, budget))

        lower = solution.objective
        fresh_ub = solution.investment_cost + worst.dual_objective
        running_ub = min(running_ub, fresh_ub)
        # Scaled as fresh_gap, so with nonnegative costs gap <= fresh_gap and
        # a converged run never reports a gap above its tolerance.
        gap = (running_ub - lower) / max(1.0, abs(running_ub))
        fresh_gap = (fresh_ub - lower) / max(1.0, abs(fresh_ub))
        duplicate = cut.key() in seen
        trace.iterations.append(
            CcgIteration(
                index=k,
                lower_bound=lower,
                upper_bound=running_ub,
                gap=gap,
                investment=solution.investment_cost,
                subproblem_objective=worst.dual_objective,
                realization=worst,
                duplicate=duplicate,
                seconds=time.perf_counter() - started,
            )
        )
        log.info(
            "iteration %d: LB %.6g, UB %.6g, gap %.3g, worst case %s",
            k, lower, running_ub, gap, worst.summary(),
        )

        if fresh_gap <= config.tolerance:
            trace.converged = True
            trace.message = f"converged in {k + 1} iteration(s)"
            break
        if duplicate:
            trace.stalled = True
            trace.message = (
                f"numerical stall at iteration {k}: cut {cut.summary()!r} "
                f"(worst case {worst.summary()!r}) re-identified with the gap still "
                f"{fresh_gap:.3e}; solver tolerances are too loose for the "
                "requested stopping tolerance"
            )
            log.warning(trace.message)
            break
        seen.add(cut.key())
        cf_memory.append(realize(inst, cut, budget))
    else:
        trace.message = (
            f"iteration limit {config.max_iterations} reached with gap "
            f"{trace.final_gap:.3e}"
        )
        log.warning(trace.message)

    return solution, trace


@dataclass
class LadderEntry:
    """One rung: the requested budget size, what ran, or why it did not."""

    gamma: int
    budget: UncertaintyBudget
    solution: MasterSolution | None = None
    trace: CcgTrace | None = None
    error: str | None = None


def run_gamma_ladder(
    inst: NetworkInstance,
    gammas: list[int],
    config: CcgConfig | None = None,
    backend=None,
) -> list[LadderEntry]:
    """Independent converged runs for budgets of increasing size.

    Each size applies to both technology classes. Runs share nothing, so
    results are order-invariant; a failing rung is recorded and the ladder
    moves on.
    """
    if sorted(gammas) != list(gammas):
        raise ValueError(f"gammas must be sorted ascending, got {gammas}")
    if gammas and gammas[0] < 0:
        raise ValueError(f"gammas must be nonnegative, got {gammas}")
    entries: list[LadderEntry] = []
    for gamma in gammas:
        budget = UncertaintyBudget(gamma_pv=gamma, gamma_wind=gamma)
        entry = LadderEntry(gamma=gamma, budget=budget.clamp(len(inst.regions)))
        try:
            entry.solution, entry.trace = run_ccg(inst, budget, config, backend)
        except BackendError as err:
            entry.error = str(err)
            log.error("ladder rung gamma=%d failed: %s", gamma, err)
        entries.append(entry)
    return entries
