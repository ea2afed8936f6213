"""Enumeration oracle: exact optima, argmax sets, run certification."""

import concurrent.futures
import dataclasses
import json
import math
import random
import threading
from types import SimpleNamespace

import pytest

from robustgrid import oracle
from robustgrid.backend import BackendError, InTreeBackend, ScipyBackend
from robustgrid.ccg import CcgConfig, run_ccg
from robustgrid.master import (
    build_master,
    capacity_keys,
    dispatch_cost,
    investment_cost,
    solve_master,
)
from robustgrid.model import CapacityFactorBundle
from robustgrid.oracle import (
    certify_run,
    robust_optimum_by_enumeration,
    worst_case_by_enumeration,
)
from robustgrid.uncertainty import (
    EnumerationCapError,
    UncertaintyBudget,
    WorstCaseRealization,
    count_realizations,
    cover,
    enumerate_set,
    maximal_sets,
)

from toys import (
    FULL_SHED_COST_PER_MWH,
    single_node,
    symmetric_pair,
    three_region_hydro,
    two_period_battery,
    two_region,
    two_region_repeated_period,
)

SCIPY = ScipyBackend()

FIXTURES = {
    "single_node": single_node,
    "two_region": two_region,
    "two_period_battery": two_period_battery,
    "three_region_hydro": three_region_hydro,
    "symmetric_pair": symmetric_pair,
}


REF = WorstCaseRealization.reference()


def zero_deviation(inst):
    """Copy of the instance where no renewable can deviate."""
    rens = tuple(
        dataclasses.replace(
            u,
            cf=CapacityFactorBundle(
                reference=u.cf.reference,
                deviation=(0.0,) * len(u.cf.reference),
            ),
        )
        for u in inst.renewables
    )
    return inst.replace(renewables=rens)


# --- exact robust optimum -----------------------------------------------------

@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_gamma_zero_equals_deterministic(name):
    inst = FIXTURES[name]()
    det = solve_master(build_master(inst, [REF]), SCIPY).objective
    exact = robust_optimum_by_enumeration(inst, UncertaintyBudget(0, 0), SCIPY)
    assert exact == pytest.approx(det, rel=1e-9, abs=1e-9)


def test_single_node_full_wipe_value():
    # Capacity is worthless under a full drop, so the optimum is pure shedding.
    inst = single_node()
    exact = robust_optimum_by_enumeration(inst, UncertaintyBudget(1, 1), SCIPY)
    assert exact == pytest.approx(FULL_SHED_COST_PER_MWH * 10.0 * 2, rel=1e-9)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_ccg_matches_oracle(name):
    inst = FIXTURES[name]()
    budget = UncertaintyBudget(1, 1)
    solution, trace = run_ccg(inst, budget, backend=SCIPY)
    assert trace.converged
    exact = robust_optimum_by_enumeration(inst, budget, SCIPY)
    rel = abs(solution.objective - exact) / max(1.0, abs(exact))
    assert rel <= 1e-6


@pytest.mark.parametrize("members", ["full", "maximal"])
@pytest.mark.parametrize("gamma", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_row_generation_equals_the_single_lp(name, gamma, members, monkeypatch):
    # The referee's rounds against the LP with one block per member. Its
    # first LP holds the cover's blocks, which need not be maximal members.
    inst = FIXTURES[name]()
    budget = UncertaintyBudget(gamma, gamma)
    enumerate_members = enumerate_set if members == "full" else maximal_sets
    rlz = enumerate_members(inst, budget)
    single = solve_master(build_master(inst, rlz), SCIPY).objective
    lps = []

    def build(inst, rlz):
        lps.append(list(rlz))
        return build_master(inst, rlz)

    monkeypatch.setattr(oracle, "build_master", build)
    exact = robust_optimum_by_enumeration(inst, budget, SCIPY, members=rlz)
    assert exact == pytest.approx(single, rel=1e-9, abs=1e-9)
    assert 1 <= exact.rounds == len(lps) <= len(rlz)
    assert lps[0] == cover(inst, budget)
    assert exact.blocks == len(lps[-1]) == len(lps[0]) + exact.rounds - 1


@pytest.mark.parametrize("make, members", [
    (three_region_hydro, maximal_sets),
    (two_period_battery, enumerate_set),
], ids=["three_region_hydro-maximal", "two_period_battery-full"])
def test_row_generation_adds_the_costliest_member(
    make, members, monkeypatch, referee_reference_start
):
    # Each round's LP holds the last one's blocks plus the member that cost
    # most at its capacities (the earliest on ties). Started from the
    # reference alone, a toy takes several rounds.
    inst = make()
    budget = UncertaintyBudget(1, 1)
    rlz = members(inst, budget)
    lps, prices = [], []

    def build(inst, rlz):
        lps.append(list(rlz))
        prices.append([])
        return build_master(inst, rlz)

    def priced(inst, capacities, rlz, backend):
        prices[-1] = dispatch_cost(inst, capacities, rlz, backend)
        return prices[-1]

    monkeypatch.setattr(oracle, "build_master", build)
    monkeypatch.setattr(oracle, "dispatch_cost", priced)
    exact = robust_optimum_by_enumeration(inst, budget, SCIPY, members=rlz)
    assert exact.rounds == len(lps) >= 3
    assert exact.blocks == len(lps[-1])
    assert lps[0] == [REF]
    for chosen, costs, following in zip(lps, prices, lps[1:]):
        assert following == chosen + [rlz[costs.index(max(costs))]]


def test_intree_backend_agrees():
    inst = single_node()
    budget = UncertaintyBudget(1, 1)
    a = robust_optimum_by_enumeration(inst, budget, SCIPY)
    b = robust_optimum_by_enumeration(inst, budget, InTreeBackend())
    assert a == pytest.approx(b, rel=1e-8)


def test_enumeration_order_invariance():
    inst = two_region()
    members = enumerate_set(inst, UncertaintyBudget(1, 1))
    rlz = members
    base = solve_master(build_master(inst, rlz), SCIPY).objective
    shuffled = list(rlz)
    random.Random(3).shuffle(shuffled)
    other = solve_master(build_master(inst, shuffled), SCIPY).objective
    assert other == pytest.approx(base, rel=1e-9)


def test_oracle_monotone_in_budget():
    inst = two_region()
    budgets = [(0, 0), (1, 0), (1, 1), (2, 2)]
    values = [
        robust_optimum_by_enumeration(inst, UncertaintyBudget(*b), SCIPY)
        for b in budgets
    ]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-9


def test_full_budget_reduces_to_worst_deterministic():
    # With every region exposed in a single period, the all-hit realization
    # dominates the rest pointwise, so the robust optimum coincides with the
    # largest member-wise deterministic optimum.
    inst = two_region()
    budget = UncertaintyBudget(2, 2)
    members = enumerate_set(inst, budget)
    per_member = [
        solve_master(build_master(inst, [m]), SCIPY).objective
        for m in members
    ]
    exact = robust_optimum_by_enumeration(inst, budget, SCIPY)
    assert exact == pytest.approx(max(per_member), rel=1e-8)


def test_enumeration_cap_respected():
    inst = two_region()
    with pytest.raises(EnumerationCapError):
        robust_optimum_by_enumeration(inst, UncertaintyBudget(2, 2), SCIPY, cap=3)
    with pytest.raises(EnumerationCapError):
        worst_case_by_enumeration(inst, {}, UncertaintyBudget(2, 2), SCIPY, cap=3)


# --- worst case by enumeration ------------------------------------------------

def test_argmax_set_on_symmetric_instance():
    inst = symmetric_pair()
    caps = {("ren", "pv_1"): 10.0, ("ren", "pv_2"): 10.0, ("line", "l12"): 0.0}
    argmax, worst = worst_case_by_enumeration(
        inst, caps, UncertaintyBudget(1, 0), SCIPY
    )
    assert worst > 0.0
    hit_sets = {m.flags for m in argmax}
    assert hit_sets == {
        frozenset({("pv", "R1", "p1")}),
        frozenset({("pv", "R2", "p1")}),
    }


def test_argmax_under_zero_deviation_is_everything():
    inst = zero_deviation(two_region())
    budget = UncertaintyBudget(1, 1)
    caps = solve_master(build_master(inst, [REF]), SCIPY).capacities
    argmax, worst = worst_case_by_enumeration(inst, caps, budget, SCIPY)
    assert len(argmax) == count_realizations(inst, budget)
    [ref_cost] = dispatch_cost(inst, caps, [REF], SCIPY)
    assert worst == pytest.approx(ref_cost, abs=1e-9)


def test_argmax_at_zero_capacity():
    # Nothing to lose: every realization costs the full shed bill.
    inst = single_node()
    budget = UncertaintyBudget(1, 1)
    argmax, worst = worst_case_by_enumeration(inst, {}, budget, SCIPY)
    assert worst == pytest.approx(FULL_SHED_COST_PER_MWH * 10.0 * 2, rel=1e-9)
    assert len(argmax) == count_realizations(inst, budget)


# --- maximal members ----------------------------------------------------------

def referee_values(monkeypatch):
    """Record every value robust_optimum_by_enumeration returns to certify_run."""
    values = []

    def referee(*args, **kwargs):
        values.append(robust_optimum_by_enumeration(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(oracle, "robust_optimum_by_enumeration", referee)
    return values


def max_cost(inst, caps, members):
    return max(dispatch_cost(inst, caps, members, SCIPY))


@pytest.mark.parametrize("gamma", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_maximal_members_referee_like_the_full_set(name, gamma, monkeypatch):
    # certify_run's three numbers, over the maximal members and over all of
    # them: the enumeration LP, the coverage maximum at the converged
    # capacities, and the worst case at fixed (deterministic) capacities.
    # The value certify_run certifies, capped by the run's plan, is the one
    # the referee reaches on its own.
    inst = FIXTURES[name]()
    budget = UncertaintyBudget(gamma, gamma)
    maximal = maximal_sets(inst, budget)
    full = robust_optimum_by_enumeration(inst, budget, SCIPY)
    narrow = robust_optimum_by_enumeration(
        inst, budget, SCIPY, members=maximal
    )
    assert narrow == pytest.approx(full, rel=1e-9, abs=1e-9)

    solution, trace = run_ccg(inst, budget, backend=SCIPY)
    assert trace.converged
    values = referee_values(monkeypatch)
    assert certify_run(inst, budget, (solution, trace), SCIPY).passed
    assert values == [pytest.approx(narrow, rel=1e-9, abs=1e-9)]
    fixed = solve_master(build_master(inst, [REF]), SCIPY).capacities
    for caps in (solution.capacities, fixed):
        _, worst = worst_case_by_enumeration(inst, caps, budget, SCIPY)
        assert max_cost(inst, caps, maximal) == pytest.approx(worst, rel=1e-9, abs=1e-9)


def random_capacities(inst, rng):
    line_limit = {l.id: l.expansion_limit for l in inst.lines}
    return {
        (kind, eid): rng.uniform(0.0, line_limit[eid] if kind == "line" else 10.0)
        for kind, eid in capacity_keys(inst)
    }


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("make", [two_region, two_period_battery, three_region_hydro],
                         ids=lambda make: make.__name__)
def test_adding_a_flag_never_lowers_the_dispatch_cost(make, seed):
    # The lemma behind certifying over maximal members: a flag only lowers
    # availability, so at any capacities cost(S) <= cost(S + {f}). A full
    # budget makes every flag set a member.
    inst = make()
    G = len(inst.regions)
    caps = random_capacities(inst, random.Random(seed))
    members = enumerate_set(inst, UncertaintyBudget(G, G))
    cost = dict(zip(
        (m.flags for m in members),
        dispatch_cost(inst, caps, members, SCIPY),
    ))
    every_flag = frozenset().union(*cost)
    for flags, c in cost.items():
        for f in every_flag - flags:
            bigger = cost[flags | {f}]
            assert c <= bigger + 1e-9 * max(1.0, abs(bigger)), (sorted(flags), f)


# --- certification ------------------------------------------------------------

def test_certify_converged_run_passes():
    inst = two_region()
    budget = UncertaintyBudget(1, 1)
    result = run_ccg(inst, budget, backend=SCIPY)
    report = certify_run(inst, budget, result, SCIPY)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "objective_matches_enumeration",
        "recourse_covers_all_realizations",
        "worst_case_agrees_with_enumeration",
    ]
    assert all(c.passed for c in report.checks)
    payload = json.dumps(report.to_dict())
    assert json.loads(payload)["passed"] is True


def test_certify_rejects_invalid_instance():
    # a run on the valid instance, refereed on one whose periods share an id
    budget = UncertaintyBudget(1, 1)
    result = run_ccg(two_region(), budget, backend=SCIPY)
    with pytest.raises(ValueError, match="duplicate_id"):
        certify_run(two_region_repeated_period(), budget, result, SCIPY)


def test_certify_flags_iteration_limited_run(reference_start):
    # One iteration leaves the worst case unseen, so the recourse bound
    # cannot cover it and the objective is short of the exact optimum.
    inst = single_node()
    budget = UncertaintyBudget(1, 1)
    result = run_ccg(
        inst, budget, config=CcgConfig(max_iterations=1), backend=SCIPY
    )
    _, trace = result
    assert not trace.converged
    report = certify_run(inst, budget, result, SCIPY)
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    assert not by_name["objective_matches_enumeration"].passed
    assert not by_name["recourse_covers_all_realizations"].passed
    assert "above the recourse bound" in by_name[
        "recourse_covers_all_realizations"
    ].detail


def test_certify_flags_loose_tolerance_run(reference_start):
    # A sloppy gap tolerance accepts the first-iteration plan; certification
    # still measures against the exact optimum and fails the objective check.
    inst = two_region()
    budget = UncertaintyBudget(1, 1)
    result = run_ccg(
        inst, budget, config=CcgConfig(tolerance=0.999), backend=SCIPY
    )
    _, trace = result
    assert trace.converged
    assert len(trace.iterations) == 1
    report = certify_run(inst, budget, result, SCIPY)
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    assert not by_name["objective_matches_enumeration"].passed
    assert by_name["worst_case_agrees_with_enumeration"].passed


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_certify_verdict_does_not_depend_on_warm_lps(name, monkeypatch):
    # certify_run prices the maximal members through solve_lps, which
    # re-solves one LP warm; batches of one vector each load cold, as
    # solve_lp does
    inst = FIXTURES[name]()
    budget = UncertaintyBudget(1, 1)
    result = run_ccg(inst, budget, backend=SCIPY)
    warm = certify_run(inst, budget, result, SCIPY)

    batch = ScipyBackend.solve_lps

    def cold_lps(self, model, rhs):
        return [batch(self, model, [b])[0] for b in rhs]

    monkeypatch.setattr(ScipyBackend, "solve_lps", cold_lps)
    cold = certify_run(inst, budget, result, SCIPY)
    assert [(c.name, c.passed, c.detail) for c in warm.checks] == [
        (c.name, c.passed, c.detail) for c in cold.checks
    ]
    for w, c in zip(warm.checks, cold.checks):
        assert w.value == pytest.approx(c.value, rel=1e-9, abs=1e-9)


def test_certify_reports_the_referee_rounds():
    # The detail names the certifying LP's size (cover plus added members)
    # and the LPs solved. Capped by the run's converged plan, the referee
    # certifies the cover's LP, its first, without pricing its own plan.
    inst = three_region_hydro()
    budget = UncertaintyBudget(1, 1)
    solution, trace = run_ccg(inst, budget, backend=SCIPY)
    report = certify_run(inst, budget, (solution, trace), SCIPY)
    rlz = maximal_sets(inst, budget)
    upper = investment_cost(inst, solution.capacities) + max(
        dispatch_cost(inst, solution.capacities, rlz, SCIPY)
    )
    exact = robust_optimum_by_enumeration(
        inst, budget, SCIPY, members=rlz, upper=upper
    )
    assert (exact.blocks, exact.rounds) == (len(cover(inst, budget)), 1) == (2, 1)
    check = report.checks[0]
    assert check.name == "objective_matches_enumeration" and check.passed
    assert check.detail.endswith("(LP of 2 blocks for 9 members, 1 round(s))")


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_certify_prices_the_members_once(name, monkeypatch):
    # One dispatch_cost batch at the run's capacities feeds the coverage
    # check, the enumerated maximum and the referee's upper bound, which
    # the referee's first LP (the cover's) meets on a converged run.
    inst = FIXTURES[name]()
    budget = UncertaintyBudget(1, 1)
    solution, trace = run_ccg(inst, budget, backend=SCIPY)
    assert trace.converged
    calls = []

    def priced(inst, capacities, rlz, backend):
        calls.append(capacities)
        return dispatch_cost(inst, capacities, rlz, backend)

    monkeypatch.setattr(oracle, "dispatch_cost", priced)
    report = certify_run(inst, budget, (solution, trace), SCIPY)
    assert report.passed
    assert calls == [solution.capacities]


def test_certify_takes_no_bound_from_a_plan_out_of_bounds(
    monkeypatch, referee_reference_start
):
    # The unit's expansion limit binds: 10 MW at a worst-case cf of 0.25
    # leaves 7.5 MW to shed. Raised past the limit to 40 MW the plan sheds
    # nothing and prices far below the optimum, so it is no point of the
    # enumerated LP and must not cap the referee, whose first LP (the
    # reference alone, 5 MW short) falls below that price too.
    inst = single_node(deviation=0.25, expansion_limit=10.0)
    budget = UncertaintyBudget(1, 1)
    solution, trace = run_ccg(inst, budget, backend=SCIPY)
    key = ("ren", "s1")
    assert solution.capacities[key] == pytest.approx(10.0)
    raised = dataclasses.replace(solution, capacities={**solution.capacities, key: 40.0})
    rlz = maximal_sets(inst, budget)
    alone = robust_optimum_by_enumeration(inst, budget, SCIPY, members=rlz)
    first_lp = solve_master(build_master(inst, [REF]), SCIPY).objective
    priced = investment_cost(inst, raised.capacities) + max(
        dispatch_cost(inst, raised.capacities, rlz, SCIPY)
    )
    assert priced < first_lp < alone

    values = referee_values(monkeypatch)
    report = certify_run(inst, budget, (raised, trace), SCIPY)
    assert values == [pytest.approx(alone, rel=1e-9)]
    assert report.checks[0].passed


def test_certify_records_a_stalled_referee(monkeypatch):
    # An inflated price for one member is one the restricted LP cannot
    # match: once that member is in the LP the gap stays open, and the
    # referee must stop with a failed check rather than spin or raise.
    inst = two_region()
    budget = UncertaintyBudget(1, 1)
    result = run_ccg(inst, budget, backend=SCIPY)
    inflated = maximal_sets(inst, budget)[-1]

    def priced(inst, capacities, rlz, backend):
        costs = dispatch_cost(inst, capacities, rlz, backend)
        return [c + 1000.0 if r == inflated else c for r, c in zip(rlz, costs)]

    monkeypatch.setattr(oracle, "dispatch_cost", priced)
    report = certify_run(inst, budget, result, SCIPY)
    check = report.checks[0]
    assert check.name == "objective_matches_enumeration"
    assert not check.passed
    assert check.detail.startswith("enumeration referee stalled after ")
    assert check.detail.endswith("member 3 is in the LP, yet it costs 1000 above "
                                 "the recourse bound")


# --- the referee's start from the run's seed basis ------------------------------

class Recording(ScipyBackend):
    """ScipyBackend that keeps every solve_lp result, in call order."""

    def __init__(self):
        self.lps = []

    def solve_lp(self, model, start=None):
        res = super().solve_lp(model, start=start)
        self.lps.append(res)
        return res


@pytest.mark.parametrize("gamma", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_referee_starts_from_the_runs_seed_basis(name, gamma):
    # the referee's first LP is the run's first master, so it starts optimal
    inst = FIXTURES[name]()
    budget = UncertaintyBudget(gamma, gamma)
    solution, trace = run_ccg(inst, budget, backend=SCIPY)
    assert trace.converged and trace.seed_basis is not None
    rlz = maximal_sets(inst, budget)
    recording = Recording()
    warm = robust_optimum_by_enumeration(
        inst, budget, recording, members=rlz, start=trace.seed_basis
    )
    assert recording.lps[0].stats["iterations"] == 0
    cold = robust_optimum_by_enumeration(inst, budget, SCIPY, members=rlz)
    assert warm == pytest.approx(cold, rel=1e-12)
    assert (warm.rounds, warm.blocks) == (cold.rounds, cold.blocks)

    # certify_run hands the referee that basis (its only solve_lp calls are
    # the referee's), and its checks are a cold referee's
    recording = Recording()
    report = certify_run(inst, budget, (solution, trace), recording)
    unstarted = dataclasses.replace(trace, seed_basis=None)
    cold_report = certify_run(inst, budget, (solution, unstarted), SCIPY)
    assert report.passed and recording.lps[0].stats["iterations"] == 0
    assert [(c.name, c.passed) for c in report.checks] == [
        (c.name, c.passed) for c in cold_report.checks
    ]
    for w, c in zip(report.checks, cold_report.checks):
        assert w.value == pytest.approx(c.value, rel=1e-12)

    # a basis of another LP's size is refused, and the referee runs cold
    blocks = cover(inst, budget)
    other = solve_master(build_master(inst, blocks + blocks[:1]), SCIPY).basis
    refused = robust_optimum_by_enumeration(
        inst, budget, SCIPY, members=rlz, start=other
    )
    assert float(refused) == float(cold)
    assert (refused.rounds, refused.blocks) == (cold.rounds, cold.blocks)


def test_intree_referee_ignores_a_start():
    inst = two_region()
    budget = UncertaintyBudget(1, 1)
    _, trace = run_ccg(inst, budget, backend=SCIPY)
    intree = InTreeBackend()
    started = robust_optimum_by_enumeration(inst, budget, intree, start=trace.seed_basis)
    plain = robust_optimum_by_enumeration(inst, budget, intree)
    assert float(started) == float(plain)
    assert (started.rounds, started.blocks) == (plain.rounds, plain.blocks)


# --- the worst-case search beside the pricing -----------------------------------

def test_certify_searches_while_it_prices(monkeypatch):
    # The pricing batch waits until the search has started on another
    # thread; a certify_run that searched only after pricing would time out.
    inst = two_region()
    budget = UncertaintyBudget(1, 1)
    result = run_ccg(inst, budget, backend=SCIPY)
    started = threading.Event()
    threads = {}
    build = oracle.build_subproblem

    def search(*args, **kwargs):
        threads["search"] = threading.get_ident()
        started.set()
        return build(*args, **kwargs)

    def priced(inst, capacities, rlz, backend):
        assert started.wait(10.0)
        threads["pricing"] = threading.get_ident()
        return dispatch_cost(inst, capacities, rlz, backend)

    monkeypatch.setattr(oracle, "build_subproblem", search)
    monkeypatch.setattr(oracle, "dispatch_cost", priced)
    report = certify_run(inst, budget, result, SCIPY)
    assert report.passed
    assert threads["pricing"] == threading.get_ident() != threads["search"]


def test_certify_records_a_failed_search(monkeypatch):
    inst = two_region()
    budget = UncertaintyBudget(1, 1)
    result = run_ccg(inst, budget, backend=SCIPY)

    def failing(*args, **kwargs):
        raise BackendError("worst-case solve ended infeasible")

    monkeypatch.setattr(oracle, "solve_subproblem", failing)
    report = certify_run(inst, budget, result, SCIPY)
    objective, coverage, search = report.checks
    assert objective.passed and coverage.passed
    assert search.name == "worst_case_agrees_with_enumeration"
    assert not search.passed and math.isnan(search.value)
    assert search.detail == "worst-case solve failed: worst-case solve ended infeasible"


def test_certify_raises_what_the_search_raises_and_joins_its_thread(monkeypatch):
    inst = two_region()
    budget = UncertaintyBudget(1, 1)
    result = run_ccg(inst, budget, backend=SCIPY)

    def failing(*args, **kwargs):
        raise ValueError("capacity of unit pv_a is not finite")

    monkeypatch.setattr(oracle, "solve_subproblem", failing)
    before = threading.active_count()
    with pytest.raises(ValueError, match="pv_a is not finite"):
        certify_run(inst, budget, result, SCIPY)
    assert threading.active_count() == before


def test_certify_checks_the_cap_before_it_searches(monkeypatch):
    inst = two_region()
    budget = UncertaintyBudget(1, 1)
    result = run_ccg(inst, budget, backend=SCIPY)
    searched = []
    monkeypatch.setattr(oracle, "build_subproblem", lambda *a, **k: searched.append(a))
    before = threading.active_count()
    with pytest.raises(EnumerationCapError):
        certify_run(inst, budget, result, SCIPY, cap=3)
    assert searched == []
    assert threading.active_count() == before


class SearchLast:
    """Stands in for the thread pool: a task runs when its result is read,
    so certify_run searches after the coverage check, on the calling thread."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn):
        return SimpleNamespace(result=fn)


@pytest.mark.parametrize("gamma", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_certify_reports_as_if_it_searched_last(name, gamma, monkeypatch):
    inst = FIXTURES[name]()
    budget = UncertaintyBudget(gamma, gamma)
    result = run_ccg(inst, budget, backend=SCIPY)
    beside = certify_run(inst, budget, result, SCIPY).to_dict()
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SearchLast)
    assert certify_run(inst, budget, result, SCIPY).to_dict() == beside


def test_certify_report_is_json_clean():
    inst = single_node()
    budget = UncertaintyBudget(0, 0)
    result = run_ccg(inst, budget, backend=SCIPY)
    report = certify_run(inst, budget, result, SCIPY)
    data = report.to_dict()
    assert data == json.loads(json.dumps(data))
    for check in data["checks"]:
        assert set(check) == {"name", "passed", "value", "detail"}
