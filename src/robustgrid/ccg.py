"""Column-and-constraint generation loop tying master and worst case together.

Each iteration solves the investment master over every realization in
memory and hands the capacities to the worst-case search. The memory
starts from the cover (uncertainty.cover): a few maximal members that
between them flag every live (technology, region, period) flag, so the
first master already hedges against a drought in every region, and at
full budget its one seed dominates the whole set. CCG stays exact from any
starting subset of the uncertainty set (Zeng & Zhao 2013): every seed is a
member, so the master is still a relaxation of the robust problem and its
objective a valid lower bound, and the loop still stops only on an exact
worst case below.

Each iteration then adds a cut. The memory does not get the search's worst
case itself but its completion (uncertainty.complete): the same flags plus
live flags, in region declaration order, up to the budget in every
(technology, period) group. The search only has binaries where a unit
already has capacity, so its worst case leaves out the regions the master
has not built in yet; the completion puts them in. The cut is exact: at
the capacities the search saw, a flag never lowers the dispatch cost (see
uncertainty), so the cut costs at least the worst-case value, and it is a
member, so it costs at most that. The trace keeps the seeds and the
search's own worst case, which alone records whether the search was exact
and the MILPs and nodes it took.

The loop calls build_subproblem and solve_subproblem once per iteration,
and solve_subproblem chooses the route (see subproblem): where the budget
leaves the adversary no choice it prices the one maximal member with one
dispatch LP; where the plan stores no energy and the horizon has two
periods or more it splits the search by period, pricing each window with
few maximal members and searching the others with their MILPs; otherwise
it runs the whole-horizon MILP. A priced worst case is exact, and the
iteration counts the MILPs solved, 0 where everything was priced.

Separation is inexact until the end (Tsang, Shehadeh & Curtis, inexact
column-and-constraint generation): the search gets a target, the master's
recourse bound eta plus a margin of 10 x tolerance x max(1, |master
objective|), and stops at the first realization whose value reaches it;
any such realization is a valid cut. A split search gives the target to
its last window only, less what the windows before it found, and pricing
ignores it. Only a search that never reaches the target runs to its
optimum, and only such an exact search, or a pricing, counts for the
bounds:

- The master objective is a lower bound that only rises as memory grows.
- Investment plus an exact worst-case value is an upper bound; the trace
  keeps its running minimum, which is inf (and so is the gap) until the
  first exact search. An early stop's value is only a lower bound on the
  worst case, and its saturation check has not run, so it never touches the
  upper bound.
- The loop stops only on an exact search, or an exact pricing, whose own
  bound pair closes, which is the same statement as the convergence
  certificate: the worst case found for the final plan costs no more than
  the recourse the master already priced.

The trace's gap is measured from the running upper bound; the stop tests
fresh_gap, from this iteration's upper bound alone. Both divide by
max(1, |upper bound|), and with nonnegative costs gap <= fresh_gap.
Neither is finer than HiGHS's tolerances (1.12.0, read with
getOptionValue): every LP holds its rows to primal_feasibility_tolerance
= 1e-7 absolute, and a worst-case MILP ends once its gap is within
mip_rel_gap = tolerance / 10 of its value or within mip_abs_gap = 1e-6,
so an exact search's value may fall short of the worst case by the larger
of the two. At a worst-case value of 0 no relative gap is defined, and
only mip_abs_gap ends it.

With exact arithmetic no cut can repeat while the gap is open. An exact
search's cut costs at least the worst-case value, and a cut in memory
already holds the recourse estimate at or above its own cost. An early
stop's cut is new for the same reason: its value is at most the cost of
its flags, hence of its completion, and at least the target, which lies
above eta, and eta is at least the cost of every member in memory. If
floating point makes a cut repeat, the loop stops and reports a numerical
stall instead of spinning.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass, field

from .backend import BackendError, get_backend
from .master import MasterSolution, build_master, solve_master
from .subproblem import build_subproblem, search_templates, solve_subproblem
from .uncertainty import (
    UncertaintyBudget,
    WorstCaseRealization,
    complete,
    cover,
    realize,  # no caller here: the benchmark's tracer rebinds this name
)
from .model import NetworkInstance, require_valid

__all__ = [
    "CcgConfig",
    "CcgIteration",
    "CcgTrace",
    "LadderEntry",
    "run_ccg",
    "check_gammas",
    "run_gamma_ladder",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CcgConfig:
    """Loop controls. A worst-case MILP runs to a relative gap of a tenth
    of the stopping tolerance, so its bound is crisper than the gap it
    feeds. big_m is its linearization constant; it does not apply where
    solve_subproblem prices the worst case instead (a build or period
    window with few maximal members), as no MILP is assembled there."""

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
    realization: WorstCaseRealization  # the search's worst case, not the cut
    seconds: float  # wall time of the whole iteration
    master_s: float  # of which solve_master
    master_iterations: int | None  # its simplex iterations (MasterSolution)
    worst_s: float  # of which solve_subproblem


@dataclass
class CcgTrace:
    """What a run did. The master's memory starts from seeds and gains one
    cut per iteration: block s<k> is seeds[k] for k < len(seeds), and after
    that the completion of iteration k - len(seeds)'s worst case.

    seed_basis is the first master's basis (MasterSolution.basis): that
    master holds the seeds' blocks alone, as the enumeration referee's
    first LP does. Like the solution's basis, it is left behind when the
    trace is pickled, and comes back None."""

    iterations: list[CcgIteration] = field(default_factory=list)
    seeds: list[WorstCaseRealization] = field(default_factory=list)
    converged: bool = False
    stalled: bool = False
    message: str = ""
    seed_basis: object | None = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "seed_basis": None}

    @property
    def final_gap(self) -> float:
        return self.iterations[-1].gap


def run_ccg(
    inst: NetworkInstance,
    budget: UncertaintyBudget,
    config: CcgConfig | None = None,
    backend=None,
) -> tuple[MasterSolution, CcgTrace]:
    """Iterate master and worst-case search until the bound pair closes.
    An instance that validate rejects is a ValueError."""
    require_valid(inst)
    config = config or CcgConfig()
    backend = backend or get_backend("scipy")
    budget = budget.clamp(len(inst.regions))
    rung = (budget.gamma_pv, budget.gamma_wind)  # names the run in log lines

    seeds = cover(inst, budget)
    memory = list(seeds)
    trace = CcgTrace(seeds=seeds)
    running_ub = float("inf")
    solution: MasterSolution | None = None

    for k in range(config.max_iterations):
        started = time.perf_counter()
        try:
            build = build_master(inst, memory)
            master_started = time.perf_counter()
            solution = solve_master(build, backend)
            master_s = time.perf_counter() - master_started
            if k == 0:
                trace.seed_basis = solution.basis
            sub = build_subproblem(inst, solution.capacities, budget, big_m=config.big_m)
            target = solution.recourse_bound + 10.0 * config.tolerance * max(
                1.0, abs(solution.objective)
            )
            worst_started = time.perf_counter()
            worst = solve_subproblem(
                sub, backend, gap_tol=config.tolerance / 10.0, target=target
            )
            worst_s = time.perf_counter() - worst_started
        except BackendError as err:
            raise BackendError(f"iteration {k}: {err}") from err
        cut = WorstCaseRealization(complete(inst, worst.flags, budget))

        lower = solution.objective
        fresh_ub = solution.investment_cost + worst.dual_objective
        if worst.exact:
            running_ub = min(running_ub, fresh_ub)
        # Scaled as fresh_gap, so with nonnegative costs gap <= fresh_gap and
        # a converged run never reports a gap above its tolerance.
        gap = (
            (running_ub - lower) / max(1.0, abs(running_ub))
            if math.isfinite(running_ub)
            else math.inf
        )
        fresh_gap = (fresh_ub - lower) / max(1.0, abs(fresh_ub))
        duplicate = cut in memory
        trace.iterations.append(
            CcgIteration(
                index=k,
                lower_bound=lower,
                upper_bound=running_ub,
                gap=gap,
                realization=worst,
                seconds=time.perf_counter() - started,
                master_s=master_s,
                master_iterations=solution.iterations,
                worst_s=worst_s,
            )
        )
        log.info(
            "gamma %s iteration %d: LB %.6g, UB %.6g, gap %.3g, %s worst case %s",
            rung, k, lower, running_ub, gap, "exact" if worst.exact else "early",
            worst.summary(),
        )

        if worst.exact and fresh_gap <= config.tolerance:
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
            log.warning("gamma %s: %s", rung, trace.message)
            break
        memory.append(cut)
    else:
        trace.message = (
            f"iteration limit {config.max_iterations} reached with gap "
            f"{trace.final_gap:.3e}"
        )
        log.warning("gamma %s: %s", rung, trace.message)

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

    gammas must pass check_gammas, and the instance validate (anything
    else is a ValueError, raised before any rung runs). Each size applies
    to both technology classes.
    Runs share nothing, so they run side by side: in worker processes
    forked from this one, one per usable CPU up to one per rung, largest
    budget first. Each worker holds its own copy of the process, instance,
    config and backend included, so nothing but the budget size goes to a
    worker and only the entry comes back; their log lines interleave, each
    naming its budget. Where fewer than two CPUs are usable, or the
    platform cannot fork, the rungs run one after another in this process.
    Either way the entries come back in request order, one per requested
    size, and equal bit for bit.

    A rung whose solver fails is recorded in its entry's error and the
    ladder moves on; any other exception reaches the caller, once every
    worker has stopped.
    """
    check_gammas(gammas)
    require_valid(inst)
    workers = _ladder_workers(len(gammas))
    if workers < 2:
        return [_run_rung(gamma, inst, config, backend) for gamma in gammas]

    # imported here, so that importing robustgrid does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    search_templates(inst)  # emitted once here rather than once per worker
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(inst, config, backend),
    )
    try:
        # the largest budget takes longest, so it starts first
        futures = [pool.submit(_worker_rung, gamma) for gamma in reversed(gammas)]
        return [future.result() for future in reversed(futures)]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def check_gammas(gammas: list[int]) -> None:
    """Raise ValueError unless gammas is nonempty, nonnegative and strictly
    ascending, as a ladder's budget sizes must be."""
    if not gammas or any(a >= b for a, b in zip(gammas, gammas[1:])):
        raise ValueError(f"gammas must be nonempty and sorted strictly ascending, got {gammas}")
    if gammas[0] < 0:
        raise ValueError(f"gammas must be nonnegative, got {gammas}")


def _ladder_workers(rungs: int) -> int:
    """Worker processes for a ladder: one per usable CPU, at most one per
    rung; 1 where the platform cannot fork or cannot say which CPUs this
    process may use."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(rungs, len(os.sched_getaffinity(0)))


def _run_rung(gamma, inst, config, backend) -> LadderEntry:
    budget = UncertaintyBudget(gamma_pv=gamma, gamma_wind=gamma).clamp(len(inst.regions))
    entry = LadderEntry(gamma=gamma, budget=budget)
    try:
        entry.solution, entry.trace = run_ccg(inst, budget, config, backend)
    except BackendError as err:
        entry.error = str(err)
        log.error("ladder rung gamma=%d failed: %s", gamma, err)
    return entry


# Set only inside a ladder's worker processes, by the pool's initializer:
# (instance, config, backend), inherited through fork rather than pickled.
_worker_args: tuple | None = None


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _worker_rung(gamma: int) -> LadderEntry:
    return _run_rung(gamma, *_worker_args)
