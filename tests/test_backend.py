"""Solver backends: correctness, duals, cross-checks; the model builder."""

import math
import random
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import robustgrid.backend as backend_module
import toys
from robustgrid.backend import (
    EQ,
    GE,
    LE,
    BackendError,
    InTreeBackend,
    LinearModel,
    ModelBuilder,
    ScipyBackend,
    get_backend,
)
from robustgrid.io import load_instance
from robustgrid.master import build_dispatch_lp, capacity_keys
from robustgrid.uncertainty import UncertaintyBudget, maximal_sets

BACKENDS = [ScipyBackend(), InTreeBackend()]
IDS = [b.name for b in BACKENDS]


@pytest.fixture(params=BACKENDS, ids=IDS)
def backend(request):
    return request.param


# --- basic LP behaviour --------------------------------------------------

def test_min_with_floor_row(backend):
    # min x s.t. x >= 3: solution 3, and the row's dual is 1
    m = ModelBuilder()
    x = m.add_var("x", obj=1.0)
    m.add_row([(x, 1.0)], GE, 3.0, name="floor")
    r = backend.solve_lp(m.build())
    assert r.optimal
    assert r.objective == pytest.approx(3.0, abs=1e-9)
    assert r.x[x] == pytest.approx(3.0, abs=1e-9)
    assert r.duals[0] == pytest.approx(1.0, abs=1e-9)


def test_max_with_mixed_rows_and_free_var(backend):
    # max 3x + 2y - f/2 with x <= 4, x + y <= 6, f = y
    # Optimum x=4, y=2, f=2: objective 15; duals 1.5 on the cap, -0.5 on the link.
    m = ModelBuilder(sense="max")
    x = m.add_var("x", obj=3.0, ub=4.0)
    y = m.add_var("y", obj=2.0)
    f = m.add_var("f", lb=-math.inf, obj=-0.5)
    m.add_row([(x, 1.0), (y, 1.0)], LE, 6.0, name="cap")
    m.add_row([(f, 1.0), (y, -1.0)], EQ, 0.0, name="link")
    r = backend.solve_lp(m.build())
    assert r.optimal
    assert r.objective == pytest.approx(15.0, abs=1e-8)
    assert np.allclose(r.x, [4.0, 2.0, 2.0], atol=1e-8)
    assert np.allclose(r.duals, [1.5, -0.5], atol=1e-8)


def test_a_max_optimum_of_zero_is_positive_zero(backend):
    # max -x - z is 0 at x = z = 0: negating the minimum HiGHS or the
    # in-tree simplex finds must not give -0.0, which prints as "-0"
    for binary in (False, True):
        m = ModelBuilder(sense="max")
        x = m.add_var("x", obj=-1.0)
        z = m.add_var("z", obj=-1.0, binary=binary)
        m.add_row([(x, 1.0), (z, 1.0)], LE, 1.0)
        model = m.build()
        r = backend.solve_milp(model) if binary else backend.solve_lp(model)
        assert r.optimal and r.objective == 0.0 and type(r.objective) is float
        assert math.copysign(1.0, r.objective) == 1.0


def test_infeasible_lp_reported(backend):
    m = ModelBuilder()
    x = m.add_var("x", ub=1.0, obj=1.0)
    m.add_row([(x, 1.0)], GE, 2.0)
    assert backend.solve_lp(m.build()).status == "infeasible"


def test_unbounded_lp_reported(backend):
    m = ModelBuilder(sense="max")
    m.add_var("x", obj=1.0)
    assert backend.solve_lp(m.build()).status == "unbounded"


def test_lp_rejects_binary_model(backend):
    m = ModelBuilder()
    m.add_var("z", binary=True, obj=1.0)
    with pytest.raises(BackendError):
        backend.solve_lp(m.build())
    # an empty batch reads no vector, and still refuses the model
    with pytest.raises(BackendError):
        backend.solve_lps(m.build(), [])


def test_deterministic_resolve(backend):
    m = ModelBuilder()
    x = m.add_var("x", obj=1.0)
    y = m.add_var("y", obj=2.0)
    m.add_row([(x, 1.0), (y, 1.0)], GE, 4.0)
    m.add_row([(x, 1.0), (y, -1.0)], LE, 1.0)
    model = m.build()
    r1 = backend.solve_lp(model)
    r2 = backend.solve_lp(model)
    assert r1.objective == r2.objective
    assert np.array_equal(r1.x, r2.x)
    assert np.array_equal(r1.duals, r2.duals)


# --- random LP family: duality and cross-backend agreement ---------------

def _random_ge_lp(rng):
    """min c'x, A x >= b, x >= 0 with c > 0 and A >= 0: feasible, bounded."""
    n = int(rng.integers(2, 7))
    m_rows = int(rng.integers(1, 9))
    model = ModelBuilder()
    c = rng.uniform(0.5, 5.0, size=n)
    for j in range(n):
        model.add_var(f"x{j}", obj=float(c[j]))
    for i in range(m_rows):
        a = rng.uniform(0.0, 2.0, size=n)
        a[int(rng.integers(0, n))] += 1.0  # at least one strictly positive entry
        b = float(rng.uniform(0.5, 8.0))
        model.add_row([(j, float(a[j])) for j in range(n) if a[j] > 0], GE, b)
    return model.build()


def _random_mixed_lp(rng, sense):
    """LP over x >= 0 whose =, >= and <= rows interleave, an = row first.

    Rows are drawn around a positive point x0, so the LP is feasible; costs
    are positive and, for a max, one <= row caps the sum of x, so it is
    bounded. A solver that reorders rows by sense must map duals back.
    """
    n = int(rng.integers(3, 7))
    x0 = rng.uniform(0.5, 3.0, size=n)
    extra = rng.integers(0, 2, size=int(rng.integers(0, 4)))
    senses = [EQ, GE, LE] + [[GE, LE][k] for k in extra]
    rng.shuffle(senses)
    senses = [EQ] + senses  # two = rows, fewer than the variables
    model = ModelBuilder(sense=sense)
    for j, c in enumerate(rng.uniform(0.5, 5.0, size=n)):
        model.add_var(f"x{j}", obj=float(c))
    cap = int(rng.integers(1, len(senses))) if sense == "max" else None
    if cap is not None:
        senses[cap] = LE
    for i, row_sense in enumerate(senses):
        a = np.ones(n) if i == cap else rng.uniform(-1.0, 2.0, size=n)
        slack = float(rng.uniform(0.1, 2.0))
        b = float(a @ x0) + {EQ: 0.0, GE: -slack, LE: slack}[row_sense]
        model.add_row(list(enumerate(a.tolist())), row_sense, b)
    return model.build()


def _random_bounded_lp(rng):
    """LP whose variables take every bound kind: fixed, bounded on both
    sides, bounded below only, bounded above only and free.

    Bounds and rows (=, >= and <=, the first a >= row with a negative rhs)
    are drawn around a point x0, so the LP is feasible. The costs are
    A'y + d for row multipliers y and reduced costs d of the signs each
    row's sense and each variable's bounds allow: the dual is feasible, so
    the LP is bounded, as a min or as a max of the negated costs.
    """
    kinds = ["fixed", "both", "below", "above", "free"]
    kinds += [kinds[k] for k in rng.integers(0, 5, size=int(rng.integers(0, 4)))]
    rng.shuffle(kinds)
    n = len(kinds)
    x0 = rng.uniform(-3.0, 3.0, size=n)
    width = rng.uniform(0.5, 2.0, size=n)
    lb = np.array([{"fixed": x, "both": x - w, "below": x - w}.get(k, -math.inf)
                   for k, x, w in zip(kinds, x0, width)])
    ub = np.array([{"fixed": x, "both": x + w, "above": x + w}.get(k, math.inf)
                   for k, x, w in zip(kinds, x0, width)])
    senses = [EQ, GE, LE]
    senses += [senses[k] for k in rng.integers(0, 3, size=int(rng.integers(0, 4)))]
    rng.shuffle(senses)
    senses = [GE] + senses
    A = rng.uniform(-2.0, 2.0, size=(len(senses), n))
    if A[0] @ x0 > 0:
        A[0] = -A[0]
    slack = rng.uniform(0.1, 2.0, size=len(senses))
    b = A @ x0 + np.array([{EQ: 0.0, GE: -1.0, LE: 1.0}[s] for s in senses]) * slack
    # multipliers of a min: >= rows nonnegative, <= rows nonpositive, = rows
    # either; reduced costs: nonnegative at a lower bound only, nonpositive
    # at an upper bound only, 0 where free, either where both bounds hold
    either = rng.choice([-1.0, 1.0], size=len(senses) + n)
    y = rng.uniform(0.0, 2.0, size=len(senses)) * np.array(
        [{GE: 1.0, LE: -1.0}.get(s, e) for s, e in zip(senses, either)]
    )
    d = rng.uniform(0.0, 2.0, size=n) * np.array(
        [{"below": 1.0, "above": -1.0, "free": 0.0}.get(k, e)
         for k, e in zip(kinds, either[len(senses):])]
    )
    c = A.T @ y + d
    sense = ["min", "max"][int(rng.integers(0, 2))]
    model = ModelBuilder(sense=sense)
    for j in range(n):
        model.add_var(f"x{j}", lb=lb[j], ub=ub[j], obj=float(c[j] if sense == "min" else -c[j]))
    for i, row_sense in enumerate(senses):
        model.add_row(list(enumerate(A[i].tolist())), row_sense, float(b[i]))
    return model.build()


def _assert_feasible(model, x, tol=1e-7):
    """x satisfies model's bounds and rows to tol, in absolute terms."""
    assert np.all(x >= model.var_lb - tol) and np.all(x <= model.var_ub + tol)
    A = model.matrix()
    ax = sparse.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape) @ x
    rhs, senses = model.row_rhs, model.row_sense
    assert np.all(np.abs(ax - rhs)[senses == EQ] <= tol)
    assert np.all((ax - rhs)[senses == GE] >= -tol)
    assert np.all((ax - rhs)[senses == LE] <= tol)


def _random_lps(rng):
    """One LP of each family, drawn in a fixed order from rng."""
    return [_random_ge_lp(rng), _random_mixed_lp(rng, "min"), _random_mixed_lp(rng, "max")]


@pytest.mark.parametrize("seed", range(20))
def test_strong_duality_on_random_lps(backend, seed):
    # No upper bounds and zero lower bounds, so the dual objective is y'b.
    rng = np.random.default_rng(seed)
    for model in _random_lps(rng):
        r = backend.solve_lp(model)
        assert r.optimal
        dual_obj = float(np.dot(r.duals, model.row_rhs))
        assert r.objective == pytest.approx(dual_obj, abs=1e-8 * max(1.0, abs(r.objective)))


@pytest.mark.parametrize("seed", range(20))
def test_complementary_slackness_on_random_lps(backend, seed):
    rng = np.random.default_rng(seed + 1000)
    model = _random_ge_lp(rng)
    r = backend.solve_lp(model)
    assert r.optimal
    A = model.matrix()
    slack = sparse.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape) @ r.x - model.row_rhs
    for i in range(model.n_rows):
        assert abs(r.duals[i] * slack[i]) < 1e-6


@pytest.mark.parametrize("seed", range(20))
def test_backends_agree_on_random_lps(seed):
    rng = np.random.default_rng(seed + 2000)
    model = _random_ge_lp(rng)
    ra = ScipyBackend().solve_lp(model)
    rb = InTreeBackend().solve_lp(model)
    assert ra.optimal and rb.optimal
    assert ra.objective == pytest.approx(rb.objective, abs=1e-8 * max(1.0, abs(ra.objective)))
    # Dual solutions can differ under degeneracy, but both must price b equally.
    assert np.dot(ra.duals, model.row_rhs) == pytest.approx(
        np.dot(rb.duals, model.row_rhs), abs=1e-7 * max(1.0, abs(ra.objective))
    )
    # every bound kind, rows of every sense, a negative rhs
    model = _random_bounded_lp(rng)
    ra = ScipyBackend().solve_lp(model)
    rb = InTreeBackend().solve_lp(model)
    assert ra.optimal and rb.optimal
    assert ra.objective == pytest.approx(rb.objective, abs=1e-8 * max(1.0, abs(ra.objective)))
    _assert_feasible(model, ra.x)
    _assert_feasible(model, rb.x)


# --- duals against finite differences -------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_duals_match_finite_differences(backend, seed):
    rng = np.random.default_rng(seed + 3000)
    eps = 1e-5
    for model in _random_lps(rng):
        base = backend.solve_lp(model)
        assert base.optimal
        # the optimal value is convex in the rhs for a min, concave for a max
        sign = 1.0 if model.sense == "min" else -1.0
        for i in range(model.n_rows):
            rhs = model.row_rhs.copy()
            rhs[i] += eps
            bumped = LinearModel(
                model.matrix(), model.row_sense, rhs, model.var_lb, model.var_ub,
                model.var_obj, model.var_names, model.row_names, sense=model.sense,
            )
            shifted = backend.solve_lp(bumped)
            assert shifted.optimal
            fd = (shifted.objective - base.objective) / eps
            # one-sided difference: matches the dual unless the basis changes
            assert (
                fd == pytest.approx(base.duals[i], abs=1e-4)
                or sign * (fd - base.duals[i]) >= -1e-9
            )


# --- MILP -----------------------------------------------------------------

def test_knapsack(backend):
    # max 10a + 6b + 4c s.t. 5a + 4b + 3c <= 8: take a and c, value 14
    m = ModelBuilder(sense="max")
    a = m.add_var("a", obj=10.0, binary=True)
    b = m.add_var("b", obj=6.0, binary=True)
    c = m.add_var("c", obj=4.0, binary=True)
    m.add_row([(a, 5.0), (b, 4.0), (c, 3.0)], LE, 8.0)
    r = backend.solve_milp(m.build(), gap_tol=1e-9)
    assert r.optimal
    assert r.objective == pytest.approx(14.0, abs=1e-9)
    assert np.allclose(r.x, [1.0, 0.0, 1.0], atol=1e-6)


def test_mixed_binary_continuous(backend):
    # min 5z + x with x + 4z >= 7, x <= 10: z=0, x=7 beats z=1, x=3
    m = ModelBuilder()
    z = m.add_var("z", obj=5.0, binary=True)
    x = m.add_var("x", obj=1.0, ub=10.0)
    m.add_row([(x, 1.0), (z, 4.0)], GE, 7.0)
    r = backend.solve_milp(m.build())
    assert r.optimal
    assert r.objective == pytest.approx(7.0, abs=1e-9)


def test_milp_infeasible(backend):
    m = ModelBuilder()
    z = m.add_var("z", obj=1.0, binary=True)
    m.add_row([(z, 1.0)], GE, 2.0)
    assert backend.solve_milp(m.build()).status == "infeasible"


def test_milp_gap_tolerance_respected(backend):
    # With a loose gap the answer may be off, but never beyond the gap.
    m = ModelBuilder(sense="max")
    vals = [10.0, 6.0, 4.0, 3.0, 2.0]
    weights = [5.0, 4.0, 3.0, 2.0, 1.0]
    for k, v in enumerate(vals):
        m.add_var(f"z{k}", obj=v, binary=True)
    m.add_row(list(enumerate(weights)), LE, 9.0)
    model = m.build()
    exact = backend.solve_milp(model, gap_tol=1e-9).objective
    loose = backend.solve_milp(model, gap_tol=0.3).objective
    assert loose <= exact + 1e-9
    assert loose >= exact - 0.3 * max(1.0, abs(exact)) - 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_backends_agree_on_random_milps(seed):
    rng = np.random.default_rng(seed + 4000)
    n = int(rng.integers(3, 7))
    m = ModelBuilder(sense="max")
    vals = rng.uniform(1.0, 10.0, size=n)
    weights = rng.uniform(1.0, 5.0, size=n)
    for k in range(n):
        m.add_var(f"z{k}", obj=float(vals[k]), binary=True)
    m.add_row([(k, float(weights[k])) for k in range(n)], LE, float(weights.sum() * 0.6))
    model = m.build()
    ra = ScipyBackend().solve_milp(model, gap_tol=1e-9)
    rb = InTreeBackend().solve_milp(model, gap_tol=1e-9)
    assert ra.optimal and rb.optimal
    assert ra.objective == pytest.approx(rb.objective, abs=1e-7)


# --- objective targets --------------------------------------------------------

# A three-row knapsack that HiGHS does not close at its first incumbent: the
# bundled HiGHS passes 742 and 764 on its way to the optimum, 798.
_VALUES = [86, 67, 56, 34, 37, 13, 16, 11, 25, 83, 68, 92, 55, 64, 97, 75, 66, 58, 60, 94]
_WEIGHTS = [
    [34, 83, 70, 10, 45, 87, 59, 13, 78, 75, 86, 25, 18, 87, 11, 58, 17, 36, 53, 48],
    [46, 12, 10, 21, 10, 70, 57, 68, 33, 65, 78, 44, 51, 99, 82, 98, 44, 71, 95, 68],
    [85, 71, 73, 45, 88, 22, 62, 74, 86, 57, 43, 37, 48, 53, 74, 90, 16, 94, 57, 42],
]
_CAPACITIES = [496, 561, 608]


def _multi_knapsack():
    m = ModelBuilder(sense="max")
    for k, v in enumerate(_VALUES):
        m.add_var(f"z{k}", obj=float(v), binary=True)
    for weights, cap in zip(_WEIGHTS, _CAPACITIES):
        m.add_row([(k, float(w)) for k, w in enumerate(weights)], LE, float(cap))
    return m.build()


def test_target_below_the_optimum_stops_at_a_feasible_incumbent():
    # the target enters HiGHS's minimization as -target; with +target any
    # incumbent meets it, and HiGHS stops at its first one (742 < target)
    model = _multi_knapsack()
    exact = ScipyBackend().solve_milp(model)
    target = 0.95 * exact.objective
    res = ScipyBackend().solve_milp(model, target=target)
    assert res.status == "target"
    assert exact.objective + 1e-9 >= res.objective >= target
    x = res.x
    assert np.allclose(x, np.round(x), atol=1e-6)
    assert np.all(np.array(_WEIGHTS) @ x <= np.array(_CAPACITIES) + 1e-6)
    assert res.objective == pytest.approx(float(np.dot(_VALUES, x)), abs=1e-6)


def test_target_above_the_optimum_solves_exactly(backend):
    model = _multi_knapsack()
    exact = backend.solve_milp(model)
    res = backend.solve_milp(model, target=exact.objective + 1.0)
    assert res.status == "optimal"
    assert res.objective == exact.objective
    assert np.array_equal(res.x, exact.x)


def test_milp_results_carry_highs_counts():
    # nodes and simplex iterations, for a proven optimum and for an early
    # stop at the target alike
    model = _multi_knapsack()
    exact = ScipyBackend().solve_milp(model)
    early = ScipyBackend().solve_milp(model, target=0.95 * exact.objective)
    assert (exact.status, early.status) == ("optimal", "target")
    for res in (exact, early):
        assert set(res.stats) == {"iterations", "nodes"}
        assert isinstance(res.stats["nodes"], int)
        assert isinstance(res.stats["iterations"], int)
    assert exact.stats["nodes"] >= 1 and exact.stats["iterations"] > 0
    assert early.stats["nodes"] <= exact.stats["nodes"]
    assert early.stats["iterations"] < exact.stats["iterations"]


def test_intree_milp_results_carry_node_counts():
    # the knapsack branches, so the in-tree search closes more than its root;
    # a node count is all an in-tree MILP result records
    res = InTreeBackend().solve_milp(_multi_knapsack())
    assert res.status == "optimal"
    assert isinstance(res.stats["nodes"], int) and res.stats["nodes"] > 1
    mixed = InTreeBackend().solve_milp(_mixed_milp())
    assert set(res.stats) == set(mixed.stats) == {"nodes"}


def test_intree_ignores_the_target():
    model = _multi_knapsack()
    exact = InTreeBackend().solve_milp(model)
    res = InTreeBackend().solve_milp(model, target=0.5 * exact.objective)
    assert res.status == "optimal"
    assert res.objective == exact.objective


# --- batches: one LP under many right-hand sides -------------------------------
# A solve_lps call is one HiGHS session: ScipyBackend loads the LP once and
# re-solves it warm for each further right-hand-side vector.

def _toy6():
    return load_instance(Path(__file__).parent / "fixtures" / "toy6.json")


def _fixed_capacities(inst, seed=0):
    rng = random.Random(seed)
    line_limit = {l.id: l.expansion_limit for l in inst.lines}
    return {
        (kind, eid): rng.uniform(0.0, line_limit[eid] if kind == "line" else 10.0)
        for kind, eid in capacity_keys(inst)
    }


@pytest.mark.parametrize(
    "make, budget",
    [
        (toys.two_region, UncertaintyBudget(1, 1)),
        (toys.two_period_battery, UncertaintyBudget(1, 1)),
        (toys.three_region_hydro, UncertaintyBudget(1, 1)),
        (_toy6, UncertaintyBudget(1, 0)),
    ],
    ids=["two_region", "two_period_battery", "three_region_hydro", "toy6"],
)
def test_session_prices_every_maximal_member_like_a_cold_solve(make, budget):
    inst = make()
    caps = _fixed_capacities(inst)
    models = [
        build_dispatch_lp(inst, caps, m)
        for m in maximal_sets(inst, budget)
    ]
    cold = [ScipyBackend().solve_lp(model) for model in models]
    warm = ScipyBackend().solve_lps(models[0], [model.row_rhs for model in models])
    assert len(models) > 1 and len(warm) == len(models)
    # the first vector is loaded cold, exactly as solve_lp loads it
    assert warm[0].objective == cold[0].objective
    assert np.array_equal(warm[0].x, cold[0].x)
    assert np.array_equal(warm[0].duals, cold[0].duals)
    for w, c in zip(warm, cold):
        assert w.optimal
        assert w.objective == pytest.approx(c.objective, rel=1e-9, abs=1e-9)
    # the rest start from the basis HiGHS holds (two_region's presolve
    # leaves no simplex iterations to save)
    iterations = [sum(r.stats["iterations"] for r in rs) for rs in (warm, cold)]
    assert iterations[0] < iterations[1] or iterations[1] == 0


def _count_loads(monkeypatch) -> list:
    """The names of the models loaded cold into HiGHS, appended as they are."""
    loads = []

    class Counting(backend_module._Loaded):
        def __init__(self, model, rhs, options):
            loads.append(model.name)
            super().__init__(model, rhs, options)

    monkeypatch.setattr(backend_module, "_Loaded", Counting)
    return loads


def _bracket_lp():
    m = ModelBuilder()
    x = m.add_var("x", obj=1.0)
    m.add_row([(x, 1.0)], GE, 3.0)
    m.add_row([(x, 1.0)], LE, 5.0)
    return m.build()


def test_session_reports_a_failed_solve_and_then_loads_cold(monkeypatch):
    model = _bracket_lp()
    cold = ScipyBackend().solve_lp(model)
    loads = _count_loads(monkeypatch)
    results = ScipyBackend().solve_lps(model, [[3.0, 5.0], [3.0, 2.0], [3.0, 5.0]])
    assert [r.status for r in results] == ["optimal", "infeasible", "optimal"]
    assert results[0].objective == pytest.approx(3.0)
    assert len(loads) == 2  # the infeasible vector was re-solved warm
    res = results[2]
    assert res.stats["iterations"] == cold.stats["iterations"]
    assert res.objective == cold.objective
    assert np.array_equal(res.x, cold.x)
    assert model.row_rhs.tolist() == [3.0, 5.0]  # a batch leaves the model as it was


def test_batch_refuses_what_highs_refuses(monkeypatch):
    # a >= row with rhs +inf has the bounds [inf, inf], which HiGHS refuses:
    # as a later vector it is the same model error as first, and the vector
    # after it loads cold
    model = _bracket_lp()
    [first] = ScipyBackend().solve_lps(model, [[math.inf, 5.0]])
    assert (first.status, first.stats["message"]) == ("infeasible", "Model error")
    loads = _count_loads(monkeypatch)
    results = ScipyBackend().solve_lps(model, [[3.0, 5.0], [math.inf, 5.0], [3.0, 5.0]])
    assert [(r.status, r.stats.get("message")) for r in results] == [
        ("optimal", None), ("infeasible", "Model error"), ("optimal", None),
    ]
    assert results[2].objective == pytest.approx(3.0)
    assert len(loads) == 2


@pytest.mark.parametrize("backend", [ScipyBackend(), InTreeBackend()], ids=["scipy", "intree"])
def test_batch_rejects_a_rhs_of_another_length(backend):
    with pytest.raises(ValueError, match="2 rows"):
        backend.solve_lps(_bracket_lp(), [[3.0, 5.0], [3.0]])


def _unique_duals_lp():
    # max 3x + 2y - f/2 with the equality row first and each row's dual
    # unique, so a dual read back from the wrong row shows:
    # f = y, x + y <= cap, y >= floor, x <= 4
    m = ModelBuilder(sense="max")
    x = m.add_var("x", obj=3.0, ub=4.0)
    y = m.add_var("y", obj=2.0)
    f = m.add_var("f", lb=-math.inf, obj=-0.5)
    m.add_row([(f, 1.0), (y, -1.0)], EQ, 0.0, name="link")
    m.add_row([(x, 1.0), (y, 1.0)], LE, 6.0, name="cap")
    m.add_row([(y, 1.0)], GE, 1.0, name="floor")
    return m.build()


def test_lp_reaches_highs_in_model_row_order():
    model = _unique_duals_lp()
    loaded = backend_module._Loaded(model, model.row_rhs, backend_module._OPTIONS)
    lower, upper = backend_module._bounds(model.row_sense, model.row_rhs)
    lp = loaded.solver.getLp()
    assert list(lp.row_lower_) == lower.tolist()
    assert list(lp.row_upper_) == upper.tolist()
    moved = model.row_rhs.copy()
    moved[2] = 3.0  # the floor row
    loaded.move_rhs(moved)
    lower, upper = backend_module._bounds(model.row_sense, moved)
    lp = loaded.solver.getLp()
    assert list(lp.row_lower_) == lower.tolist() == [0.0, -math.inf, 3.0]
    assert list(lp.row_upper_) == upper.tolist() == [0.0, 6.0, math.inf]


def _min_lp():
    # every row sense, bounded, free and shifted columns, and an explicit zero
    m = ModelBuilder()
    x = m.add_var("x", obj=2.0, ub=5.0)
    y = m.add_var("y", lb=-1.0, ub=4.0, obj=-1.0)
    f = m.add_var("f", lb=-math.inf, obj=0.5)
    m.add_row([(x, 1.0), (y, 1.0)], GE, 2.0)
    m.add_row([(f, 1.0), (y, -1.0), (x, 0.0)], EQ, 0.0)
    m.add_row([(y, 3.0)], LE, 9.0)
    return m.build()


def _mixed_milp():
    # min 5z + x with x + 4z >= 7, x <= 10, and a second binary on a <= row
    m = ModelBuilder()
    z = m.add_var("z", obj=5.0, binary=True)
    x = m.add_var("x", obj=1.0, ub=10.0)
    w = m.add_var("w", obj=-2.0, binary=True)
    m.add_row([(x, 1.0), (z, 4.0)], GE, 7.0)
    m.add_row([(w, 1.0), (z, 1.0)], LE, 1.0)
    return m.build()


@pytest.mark.parametrize(
    "make", [_min_lp, _unique_duals_lp, _mixed_milp], ids=["min_lp", "max_lp", "milp"]
)
def test_one_call_load_passes_the_model_as_it_is(make):
    model = make()
    loaded = backend_module._Loaded(model, model.row_rhs, backend_module._OPTIONS)
    lp = loaded.solver.getLp()
    sign = 1.0 if model.sense == "min" else -1.0
    assert lp.num_col_ == model.n_vars and lp.num_row_ == model.n_rows
    assert lp.sense_ == backend_module.highs.ObjSense.kMinimize
    assert list(lp.col_cost_) == (sign * model.var_obj).tolist()
    assert list(lp.col_lower_) == model.var_lb.tolist()
    assert list(lp.col_upper_) == model.var_ub.tolist()
    senses, rhs = model.row_sense.tolist(), model.row_rhs.tolist()
    assert list(lp.row_lower_) == [-math.inf if s == LE else b for s, b in zip(senses, rhs)]
    assert list(lp.row_upper_) == [math.inf if s == GE else b for s, b in zip(senses, rhs)]
    A = model.matrix()
    csc = sparse.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape).tocsc()
    csc.eliminate_zeros()  # HiGHS drops explicit zeros as it takes the matrix in
    assert lp.a_matrix_.format_ == backend_module.highs.MatrixFormat.kColwise
    assert list(lp.a_matrix_.start_) == csc.indptr.tolist()
    assert list(lp.a_matrix_.index_) == csc.indices.tolist()
    assert list(lp.a_matrix_.value_) == csc.data.tolist()
    integer = [t == backend_module.highs.HighsVarType.kInteger for t in lp.integrality_]
    assert integer == model.var_binary.tolist()
    assert model.is_mip == (make is _mixed_milp)


# --- a basis from one LP solve to the next ------------------------------------

def _toy6_dispatch_lp():
    inst = _toy6()
    member = maximal_sets(inst, UncertaintyBudget(1, 0))[0]
    return build_dispatch_lp(inst, _fixed_capacities(inst), member)


def test_lp_result_keeps_its_basis_and_a_start_saves_every_pivot():
    model = _toy6_dispatch_lp()
    cold = ScipyBackend().solve_lp(model)
    assert cold.optimal and cold.basis is not None and cold.stats["iterations"] > 0
    warm = ScipyBackend().solve_lp(model, start=cold.basis)
    assert warm.stats["iterations"] == 0
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
    assert np.allclose(warm.x, cold.x, rtol=1e-12, atol=1e-9)
    assert np.allclose(warm.duals, cold.duals, rtol=1e-12, atol=1e-9)


def test_a_start_of_another_size_is_refused_and_the_solve_is_cold():
    model = _toy6_dispatch_lp()
    cold = ScipyBackend().solve_lp(model)
    res = ScipyBackend().solve_lp(model, start=ScipyBackend().solve_lp(_min_lp()).basis)
    assert res.objective == cold.objective
    assert res.stats["iterations"] == cold.stats["iterations"]
    assert np.array_equal(res.x, cold.x)
    assert np.array_equal(res.duals, cold.duals)


def test_results_without_a_basis():
    # and the stats each records: simplex iterations on an optimal LP, nodes
    # too on a MILP, and only HiGHS's message on a failed solve
    model, scipy = _min_lp(), ScipyBackend()
    assert set(scipy.solve_lp(model).stats) == {"iterations"}
    infeasible, refused = _bracket_lp(), _bracket_lp()
    infeasible.row_rhs[:] = [3.0, 2.0]
    refused.row_rhs[:] = [math.inf, 5.0]  # bounds [inf, inf], which HiGHS refuses
    cases = [(r, {"iterations"}) for r in scipy.solve_lps(model, [model.row_rhs] * 2)]
    cases += [
        (scipy.solve_milp(_mixed_milp()), {"iterations", "nodes"}),
        (scipy.solve_lp(infeasible), {"message"}),
        (scipy.solve_lp(refused), {"message"}),
    ]
    for res, keys in cases:
        assert res.basis is None
        assert set(res.stats) == keys


def test_intree_accepts_a_start_and_ignores_it():
    model = _min_lp()
    start = ScipyBackend().solve_lp(model).basis
    plain = InTreeBackend().solve_lp(model)
    started = InTreeBackend().solve_lp(model, start=start)
    assert started.basis is None and plain.basis is None
    assert started.objective == plain.objective
    assert np.array_equal(started.x, plain.x)
    assert np.array_equal(started.duals, plain.duals)


def test_batch_reads_a_refilled_buffer_afresh():
    # a caller may hand every vector in one buffer, refilled in place
    model = _unique_duals_lp()
    vectors = [[0.0, 6.0, 1.0], [0.0, 6.0, 3.0], [0.0, 7.0, 1.0]]

    def refilled():
        buffer = np.empty(3)
        for b in vectors:
            buffer[:] = b
            yield buffer

    got = ScipyBackend().solve_lps(model, refilled())
    want = ScipyBackend().solve_lps(model, [np.array(b) for b in vectors])
    assert [r.objective for r in got] == pytest.approx([15.0, 13.5, 16.5], abs=1e-9)
    assert [r.objective for r in got] == [r.objective for r in want]


def test_session_duals_come_back_in_model_row_order():
    model = _unique_duals_lp()
    expected = {
        (6.0, 1.0): (15.0, [-0.5, 1.5, 0.0]),  # x = 4 at its bound, y = 2
        (7.0, 1.0): (16.5, [-0.5, 1.5, 0.0]),
        (6.0, 3.0): (13.5, [-0.5, 3.0, -1.5]),  # x = 3, y = 3 on its floor
    }
    cases = [*expected.items(), *expected.items()]
    rhs = [np.array([0.0, cap, floor]) for (cap, floor), _ in cases]
    for b, (_, (objective, duals)), res in zip(rhs, cases, ScipyBackend().solve_lps(model, rhs)):
        cold = ScipyBackend().solve_lps(model, [b])[0]
        assert res.objective == pytest.approx(objective, abs=1e-9)
        assert np.allclose(res.duals, duals, atol=1e-9)
        assert np.allclose(res.duals, cold.duals, atol=1e-9)
        assert np.allclose(res.x, cold.x, atol=1e-9)


def test_intree_session_solves_from_scratch_and_agrees():
    model = _unique_duals_lp()
    rhs = [np.array([0.0, cap, floor]) for cap, floor in [(6.0, 1.0), (6.0, 3.0), (7.0, 1.0)]]
    intree = InTreeBackend().solve_lps(model, rhs)
    scipy_ = ScipyBackend().solve_lps(model, rhs)
    assert len(intree) == len(scipy_) == len(rhs)
    for b, a, s in zip(rhs, intree, scipy_):
        alone = InTreeBackend().solve_lps(model, [b])[0]
        assert a.objective == alone.objective and np.array_equal(a.x, alone.x)
        assert a.objective == pytest.approx(s.objective, abs=1e-9)
        assert np.allclose(a.duals, s.duals, atol=1e-9)
    assert model.row_rhs.tolist() == [0.0, 6.0, 1.0]


# --- HiGHS options ------------------------------------------------------------

def _knapsack_model():
    m = ModelBuilder(sense="max")
    for k, v in enumerate([10.0, 6.0, 4.0]):
        m.add_var(f"z{k}", obj=v, binary=True)
    m.add_row([(0, 5.0), (1, 4.0), (2, 3.0)], LE, 8.0)
    return m.build()


def _floor_model():
    m = ModelBuilder()
    x = m.add_var("x", obj=1.0)
    m.add_row([(x, 1.0)], GE, 3.0)
    return m.build()


@pytest.mark.parametrize(
    "option", [("no_such_option", 1), ("presolve", "bogus")], ids=["name", "value"]
)
def test_run_rejects_options_highs_rejects(option):
    key, value = option
    options = {**backend_module._OPTIONS, key: value}
    with pytest.raises(BackendError, match=f"{key}={value!r}"):
        model = _floor_model()
        backend_module._Loaded(model, model.row_rhs, options)


def _record_options(monkeypatch) -> list:
    calls = []
    base = backend_module.highs._Highs

    class Recording(base):
        def setOptionValue(self, key, value):
            calls.append((key, value))
            return super().setOptionValue(key, value)

    monkeypatch.setattr(backend_module.highs, "_Highs", Recording)
    return calls


def test_milp_switches_off_rins_and_rens_where_highs_has_them(monkeypatch):
    probe = backend_module.highs._Highs()
    probe.setOptionValue("output_flag", False)
    known = [
        key
        for key in ("mip_heuristic_run_rins", "mip_heuristic_run_rens")
        if probe.getOptionValue(key)[0] == backend_module.highs.HighsStatus.kOk
    ]
    backend_module._milp_options()  # ask HiGHS before recording
    calls = _record_options(monkeypatch)
    assert ScipyBackend().solve_milp(_knapsack_model(), gap_tol=1e-9).objective == 14.0
    expected = {**backend_module._OPTIONS, **dict.fromkeys(known, False)}
    assert calls == list({**expected, "mip_rel_gap": 1e-9}.items())


def test_lp_sets_exactly_the_lp_options(monkeypatch):
    calls = _record_options(monkeypatch)
    assert ScipyBackend().solve_lp(_floor_model()).objective == pytest.approx(3.0)
    assert calls == list(backend_module._OPTIONS.items())


def test_milp_options_leave_out_switches_highs_lacks(monkeypatch):
    base = backend_module.highs._Highs

    class Old(base):
        def getOptionValue(self, key):
            if key.startswith("mip_heuristic_run_"):
                return backend_module.highs.HighsStatus.kError, 0
            return super().getOptionValue(key)

    monkeypatch.setattr(backend_module.highs, "_Highs", Old)
    backend_module._milp_options.cache_clear()
    try:
        assert backend_module._milp_options() == backend_module._OPTIONS
    finally:
        backend_module._milp_options.cache_clear()


# --- factory and model builder ---------------------------------------------

def test_get_backend_factory():
    assert get_backend().name == "scipy"
    assert get_backend("intree").name == "intree"
    with pytest.raises(ValueError):
        get_backend("gurobi")


def test_builder_canonical_row():
    # terms merge per column and sort by column; explicit zeros stay, and
    # every stored coefficient is 0.0 + v, so -0.0 comes out as +0.0
    m = ModelBuilder()
    for name in ("a", "b", "c"):
        m.add_var(name)
    m.add_row([(2, 1.0), (0, -0.0), (2, 2.0), (1, 0.0)], LE, 4.0)
    A = m.build().matrix()
    assert A.indptr.tolist() == [0, 3]
    assert A.indices.tolist() == [0, 1, 2]
    assert A.data.tolist() == [0.0, 0.0, 3.0]
    assert not np.signbit(A.data).any()


@pytest.mark.parametrize(
    "bad",
    [
        lambda m: m.add_row([(2, 1.0)], LE, 1.0),
        lambda m: m.add_row([(0, math.nan)], LE, 1.0),
        lambda m: m.add_row([(0, 1.0)], LE, math.inf),
        lambda m: m.add_var("y", lb=2.0, ub=1.0),
        lambda m: m.add_row([(0, 1.0)], "<", 1.0),
    ],
    ids=["column", "coefficient", "rhs", "bounds", "sense"],
)
def test_builder_rejects_bad_input(bad):
    m = ModelBuilder()
    m.add_var("x")
    m.add_var("w")
    with pytest.raises(ValueError):
        bad(m)


def test_model_rejects_binary_markers_of_another_width():
    model = _floor_model()
    with pytest.raises(ValueError, match="var_binary"):
        LinearModel(
            model.matrix(), model.row_sense, model.row_rhs, model.var_lb, model.var_ub,
            model.var_obj, model.var_names, model.row_names,
            var_binary=np.zeros(model.n_vars + 1, dtype=bool),
        )


def test_built_model_rows_view_the_matrix():
    m = ModelBuilder(sense="max")
    x = m.add_var("x", obj=3.0)
    z = m.add_var("z", binary=True, ub=5.0)
    m.add_row([(z, 2.0), (x, 1.0)], GE, 1.0, name="need")
    m.add_row([(x, 1.0)], EQ, 2.0)
    model = m.build()
    assert model.rows == [[(0, 1.0), (1, 2.0)], [(0, 1.0)]]
    assert model.row_names == ["need", "c1"]
    assert model.var_ub.tolist() == [math.inf, 1.0]
    assert model.is_mip and model.sense == "max"
