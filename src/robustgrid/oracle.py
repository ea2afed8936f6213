"""Brute-force certification of the decomposition on small instances.

With a finite uncertainty set the robust problem is one LP: a dispatch
block for every member plus the recourse epigraph. The referee solves it
by row generation over the members instead of stamping every block at
once. The certificate has two sides:

- a lower bound: the objective of an LP restricted to some members'
  blocks, for dropping blocks can only relax the full LP;
- an upper bound: any plan inside the capacity bounds, priced under every
  member by a plain dispatch LP, for its investment plus the largest
  member cost is the full LP's objective at a feasible point (the bounds
  are its only first-stage constraints, and shedding keeps every dispatch
  feasible).

The referee adds the costliest member until the two sides meet, so every
returned value is certified by pricing the whole set, with no worst-case
search, no duality and no big-M involved. It takes two things from the
run, and neither can make it certify a wrong value:

- The run's plan, as an upper bound. The upper side accepts any in-bounds
  plan, so certify_run recomputes that plan's investment, prices it
  itself, and passes no bound for a plan outside the capacity bounds. The
  bound can only end the referee early, where its own LP reaches it.
- The basis of the run's first master (CcgTrace.seed_basis), as the start
  of its first LP. That LP holds the cover's blocks, as the run's first
  master does, so it starts optimal. A basis moves only where the simplex
  starts: the LP, its bounds and the stopping rule are the referee's own,
  HiGHS refuses a basis that does not fit the LP's sizes, and from any
  basis it accepts it still solves that LP to optimality.

That keeps it a fair referee for the iterative pipeline: the only shared
machinery is the block builder and the LP backend, both tested
independently.

certify_run enumerates only the maximal members of the set, those that
flag min(gamma, regions) regions in every (technology, period) group. That
loses nothing: a flag never lowers the dispatch cost (the uncertainty
module says why), and every member is contained in a maximal one. The
robust optimum, the largest dispatch cost and the coverage check are
therefore the same over the maximal members as over the full set.
enumerate_set, worst_case_by_enumeration and the default path of
robust_optimum_by_enumeration still enumerate the full set and stay
independent judges of that argument.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .backend import BackendError
from .ccg import CcgTrace
from .master import (
    MasterSolution,
    build_master,
    capacity_table,
    dispatch_cost,
    investment_cost,
    solve_master,
)
from .model import NetworkInstance, require_valid
from .subproblem import build_subproblem, search_templates, solve_subproblem
from .uncertainty import (
    DEFAULT_ENUMERATION_CAP,
    UncertaintyBudget,
    WorstCaseRealization,
    count_realizations,
    cover,
    enumerate_set,
    maximal_sets,
    realize,
)

__all__ = [
    "RefereeOptimum",
    "robust_optimum_by_enumeration",
    "worst_case_by_enumeration",
    "CertificationCheck",
    "CertificationReport",
    "certify_run",
]

# Relative gap within which certify_run counts two objectives as equal.
CERTIFY_TOLERANCE = 1e-6


class RefereeOptimum(float):
    """The referee's robust optimum, and how it was reached.

    `rounds` counts the restricted LPs solved; `blocks` is the size of the
    one that certified the value: the cover it started from plus the
    members row generation added.
    """

    rounds: int
    blocks: int

    def __new__(cls, value: float, rounds: int, blocks: int) -> RefereeOptimum:
        optimum = super().__new__(cls, value)
        optimum.rounds = rounds
        optimum.blocks = blocks
        return optimum


def robust_optimum_by_enumeration(
    inst: NetworkInstance,
    budget: UncertaintyBudget,
    backend,
    cap: int = DEFAULT_ENUMERATION_CAP,
    *,
    realized: list[dict[str, tuple[float, ...]]] | None = None,
    upper: float = math.inf,
    start=None,
) -> float:
    """Exact robust optimum over the enumerated members, by row generation.

    realized, when given, is the capacity-factor map of every member the
    caller enumerated: the budget's full set, or its maximal members, which
    give the same optimum. Without it the full set is enumerated. upper,
    when given, must be the enumerated LP's objective at a feasible plan:
    investment plus the largest member cost at capacities inside their
    bounds. start, when given, is a basis for the first LP to begin from
    (backend.solve_lp); the later LPs start cold.

    The restricted LP starts from the budget's cover, whose members belong
    to the set. Each round solves it; its objective is a lower bound on the
    optimum. Unless the best upper bound held already exceeds it by at
    most 1e-9 * max(1, |objective|), every member is priced at the LP's
    capacities in one dispatch_cost call, and investment plus the largest
    cost may tighten that bound. Once the two meet, the LP objective is
    returned, as a RefereeOptimum. Otherwise the costliest member (the
    earliest on ties) joins the LP. Should it already be there, the LP
    cannot close the gap, and a BackendError says so.
    """
    if realized is None:
        realized = [realize(inst, m) for m in enumerate_set(inst, budget, cap=cap)]
    blocks = [realize(inst, m) for m in cover(inst, budget)]
    rounds = 0
    while True:
        sol = solve_master(build_master(inst, blocks), backend, start=start)
        start = None
        rounds += 1
        tol = 1e-9 * max(1.0, abs(sol.objective))
        if upper - sol.objective > tol:
            costs = dispatch_cost(inst, sol.capacities, realized, backend)
            worst = max(range(len(costs)), key=costs.__getitem__)
            upper = min(upper, sol.investment_cost + costs[worst])
        if upper - sol.objective <= tol:
            return RefereeOptimum(sol.objective, rounds, len(blocks))
        if realized[worst] in blocks:
            raise BackendError(
                f"enumeration referee stalled after {rounds} round(s): "
                f"member {worst} is in the LP, yet it costs "
                f"{costs[worst] - sol.recourse_bound:.6g} above the recourse bound"
            )
        blocks.append(realized[worst])


def worst_case_by_enumeration(
    inst: NetworkInstance,
    capacities: dict,
    budget: UncertaintyBudget,
    backend,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[list[WorstCaseRealization], float]:
    """Evaluate the dispatch under every realization; return the argmax set.

    Ties within 1e-9 relative of the maximum are all reported, so symmetric
    instances surface every equally bad realization.
    """
    members = enumerate_set(inst, budget, cap=cap)
    costs = dispatch_cost(inst, capacities, [realize(inst, m) for m in members], backend)
    worst = max(costs)
    tol = 1e-9 * max(1.0, abs(worst))
    argmax = [m for m, c in zip(members, costs) if c >= worst - tol]
    return argmax, worst


@dataclass
class CertificationCheck:
    name: str
    passed: bool
    value: float
    detail: str = ""


@dataclass
class CertificationReport:
    checks: list[CertificationCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks]}


def certify_run(
    inst: NetworkInstance,
    budget: UncertaintyBudget,
    ccg_result: tuple[MasterSolution, CcgTrace],
    backend,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CertificationReport:
    """Referee a finished run against exhaustive enumeration.

    Three checks: the objective matches the enumerated optimum, the final
    recourse bound covers the dispatch cost of every member, and the
    worst-case search at the final capacities (solve_subproblem) agrees
    with the enumerated maximum. Where the budget leaves one maximal
    member, or a period window few, that search prices them with dispatch
    LPs rather than solve a MILP (see subproblem), so there the third check
    compares dispatch LPs with dispatch LPs; the enumeration referee of the
    first check stays independent of the search on every route. Failures
    are report entries, never exceptions.

    Every member is priced once, at solution.capacities as the master
    returned it, and that one batch feeds all three checks: the coverage
    check, the enumerated maximum the search must reach, and the referee's
    upper bound. That bound is the plan's investment, recomputed from its
    capacities, plus the largest member cost: the enumerated LP's objective
    at that plan, so it bounds the optimum from above whatever the run
    claims. A plan outside the capacity bounds is no point of that LP, and
    then the referee gets no bound. The referee still certifies its value
    on its own: a restricted LP's objective is a lower bound, and it stops
    only once that meets the best upper bound it holds. Its first LP starts
    from the run's seed basis (trace.seed_basis), which saves that LP's
    pivots and leaves its optimum the LP's own.

    The worst-case search needs neither that batch nor the referee, so it
    runs beside them, in a second thread, from the moment the member count
    has passed the cap: HiGHS releases the GIL while it solves. The calling
    thread prices, referees and checks coverage, then waits for the search.
    A BackendError from the search is the failed third check; any other
    exception reaches the caller, and the thread is joined on every exit.
    The checks, their order and their values are those of a run that
    searches last.

    All three enumerate the maximal members only (maximal_sets, bounded by
    cap). As a flag never lowers the dispatch cost (see uncertainty), a
    maximal member costs at least as much as every member it contains, and
    each check has the same outcome as over the full set. An instance that
    validate rejects is a ValueError.
    """
    # imported here, so that importing robustgrid does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    require_valid(inst)
    solution, trace = ccg_result
    report = CertificationReport()
    members = maximal_sets(inst, budget, cap=cap)
    search_templates(inst)  # emitted once here rather than by both threads
    with ThreadPoolExecutor(max_workers=1) as pool:
        search = pool.submit(
            lambda: solve_subproblem(
                build_subproblem(inst, solution.capacities, budget),
                backend,
                gap_tol=CERTIFY_TOLERANCE / 10.0,
            )
        )
        realized = [realize(inst, m) for m in members]
        costs = dispatch_cost(inst, solution.capacities, realized, backend)
        enum_max = max(costs)
        upper = math.inf
        if all(
            0.0 <= solution.capacities.get(key, 0.0) <= limit
            for key, _, limit in capacity_table(inst)
        ):
            upper = investment_cost(inst, solution.capacities) + enum_max

        try:
            exact = robust_optimum_by_enumeration(
                inst, budget, backend, realized=realized, upper=upper,
                start=trace.seed_basis,
            )
        except BackendError as err:
            objective_check = CertificationCheck(
                name="objective_matches_enumeration",
                passed=False,
                value=float("nan"),
                detail=str(err),
            )
        else:
            gap = abs(solution.objective - exact) / max(1.0, abs(exact))
            objective_check = CertificationCheck(
                name="objective_matches_enumeration",
                passed=gap <= CERTIFY_TOLERANCE,
                value=gap,
                detail=(
                    f"run {solution.objective:.10g} vs exact {exact:.10g} "
                    f"(LP of {exact.blocks} blocks for {len(members)} members, "
                    f"{exact.rounds} round(s))"
                ),
            )
        report.checks.append(objective_check)

        bound = solution.recourse_bound + CERTIFY_TOLERANCE * max(1.0, solution.recourse_bound)
        uncovered = [
            (m, c) for m, c in zip(members, costs) if c > bound
        ]
        worst_excess = max(
            (c - solution.recourse_bound for c in costs), default=0.0
        )
        report.checks.append(
            CertificationCheck(
                name="recourse_covers_all_realizations",
                passed=not uncovered,
                value=worst_excess,
                detail=(
                    f"{len(uncovered)} of {len(members)} maximal realization(s) "
                    f"above the recourse bound, first: {uncovered[0][0].summary()}"
                    if uncovered
                    else f"all {len(members)} maximal realization(s) covered "
                    f"(they dominate all {count_realizations(inst, budget)} members)"
                ),
            )
        )

        try:
            worst = search.result()
        except BackendError as err:
            report.checks.append(
                CertificationCheck(
                    name="worst_case_agrees_with_enumeration",
                    passed=False,
                    value=float("nan"),
                    detail=f"worst-case solve failed: {err}",
                )
            )
        else:
            sub_gap = abs(worst.dual_objective - enum_max) / max(1.0, abs(enum_max))
            report.checks.append(
                CertificationCheck(
                    name="worst_case_agrees_with_enumeration",
                    passed=sub_gap <= CERTIFY_TOLERANCE,
                    value=sub_gap,
                    detail=(
                        f"search {worst.dual_objective:.10g} vs enumerated "
                        f"{enum_max:.10g}"
                    ),
                )
            )

    return report
