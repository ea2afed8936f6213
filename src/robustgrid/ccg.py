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
the capacities the search saw, a flag never lowers the dispatch cost, so
the cut costs at least the worst-case value, and it is a member, so it
costs at most that. The trace keeps the seeds and the search's own worst
case.

Where the budget leaves the adversary no choice there is no search. That
holds at a budget of 0, at full budget, and wherever every (technology,
period) group holds no more live flags at the master's capacities than its
budget allows: the one maximal member then flags every live flag of the
groups with a positive budget. As a flag never lowers the dispatch cost,
that member is the worst case, so one dispatch LP prices it exactly, with
no MILP and no big-M; the iteration records it as an exact worst case.

Where the plan stores no energy and the horizon has two periods or more,
the search splits by period: one MILP per period window, whose values add
up to the worst case (see subproblem). build_subproblem and
solve_subproblem decide that between them, so the loop still calls each
once per search, and the iteration counts the MILPs it solved.

Separation is inexact until the end (Tsang, Shehadeh & Curtis, inexact
column-and-constraint generation): the search gets a target, the master's
recourse bound eta plus a margin of 10 x tolerance x max(1, |master
objective|), and stops at the first realization whose value reaches it;
any such realization is a valid cut. A split search gives the target to
its last window only, less what the windows before it found. Only a search
that never reaches the target runs to its optimum, and only such an exact
search, or a pricing, counts for the bounds:

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
from .master import (
    CapKey,
    MasterSolution,
    build_master,
    dispatch_cost,
    solve_master,
)
from .subproblem import build_subproblem, live_flags, search_templates, solve_subproblem
from .uncertainty import (
    UncertaintyBudget,
    WorstCaseRealization,
    complete,
    cover,
    realize,
)
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
    feeds. big_m is its linearization constant; it does not apply to an
    iteration that prices its one maximal member, which builds no MILP."""

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
    seconds: float  # wall time of the whole iteration
    master_s: float  # of which solve_master
    worst_s: float  # of which solve_subproblem, or the whole pricing

    @property
    def exact(self) -> bool:
        """The worst case is exact: the search proved its optimum rather
        than stop at its target, or the iteration priced it."""
        return self.realization.exact

    @property
    def milps(self) -> int:
        """The worst-case MILPs the iteration solved: 0 where it priced its
        one maximal member, 1 for a whole-horizon search, and one per
        period window where the search split by period."""
        return self.realization.milps

    @property
    def milp_nodes(self) -> int | None:
        """The worst-case MILPs' branch-and-bound nodes, summed over them;
        None where the iteration priced its one maximal member instead of
        searching."""
        return self.realization.milp_nodes


@dataclass
class CcgTrace:
    """What a run did. The master's memory starts from seeds and gains one
    cut per iteration: block s<k> is seeds[k] for k < len(seeds), and after
    that the completion of iteration k - len(seeds)'s worst case."""

    iterations: list[CcgIteration] = field(default_factory=list)
    seeds: list[WorstCaseRealization] = field(default_factory=list)
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
    rung = (budget.gamma_pv, budget.gamma_wind)  # names the run in log lines

    seeds = cover(inst, budget)
    seen = {seed.key() for seed in seeds}
    cf_memory = [realize(inst, seed, budget) for seed in seeds]
    trace = CcgTrace(seeds=seeds)
    running_ub = float("inf")
    solution: MasterSolution | None = None

    for k in range(config.max_iterations):
        started = time.perf_counter()
        try:
            build = build_master(inst, cf_memory)
            master_started = time.perf_counter()
            solution = solve_master(build, backend)
            master_s = time.perf_counter() - master_started
            worst_started = time.perf_counter()
            worst = _priced_worst_case(inst, solution.capacities, budget, backend)
            if worst is None:
                sub = build_subproblem(
                    inst, solution.capacities, budget, big_m=config.big_m
                )
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
                master_s=master_s,
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
        seen.add(cut.key())
        cf_memory.append(realize(inst, cut, budget))
    else:
        trace.message = (
            f"iteration limit {config.max_iterations} reached with gap "
            f"{trace.final_gap:.3e}"
        )
        log.warning("gamma %s: %s", rung, trace.message)

    return solution, trace


def _priced_worst_case(
    inst: NetworkInstance,
    capacities: dict[CapKey, float],
    budget: UncertaintyBudget,
    backend,
) -> WorstCaseRealization | None:
    """The worst case at these capacities, priced by one dispatch LP, where
    the budget leaves the adversary no choice; None where it leaves one.

    The search has a binary for each live flag (live_flags). There is no
    choice where every (technology, period) group of live flags has a budget
    of 0 or of at least its count: the one maximal member then flags every
    live flag of the groups with a positive budget, and as a flag never
    lowers the dispatch cost, its cost is the search's optimum.
    """
    live = live_flags(inst, capacities)
    counts: dict[tuple[str, str], int] = {}
    for tech, _, period in live:
        counts[tech, period] = counts.get((tech, period), 0) + 1
    if any(0 < budget.limit(tech) < n for (tech, _), n in counts.items()):
        return None
    flags = frozenset(flag for flag in live if budget.limit(flag[0]) > 0)
    realized = realize(inst, WorstCaseRealization(flags), budget)
    [cost] = dispatch_cost(inst, capacities, [realized], backend)
    return WorstCaseRealization(flags, dual_objective=cost)


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
    they run side by side: in worker processes forked from this one, one per
    usable CPU up to one per rung, largest budget first. Each worker holds
    its own copy of the process, instance, config and backend included, so
    nothing but the budget size goes to a worker and only the entry comes
    back; their log lines interleave, each naming its budget. Where fewer
    than two CPUs are usable, or the platform cannot fork, the rungs run
    one after another in this process. Either way the entries come back in
    request order, one per requested size, and equal bit for bit.

    A rung whose solver fails is recorded in its entry's error and the
    ladder moves on; any other exception reaches the caller, once every
    worker has stopped.
    """
    if sorted(gammas) != list(gammas):
        raise ValueError(f"gammas must be sorted ascending, got {gammas}")
    if gammas and gammas[0] < 0:
        raise ValueError(f"gammas must be nonnegative, got {gammas}")
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
