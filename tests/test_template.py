"""Stamped models equal the models a row-by-row build produces.

The builders stamp the master, the fixed-capacity dispatch LP and the
worst-case subproblem from the instance's dispatch template. The references
here are built the direct way: _BlockEmitter writes every block row by row
into a fresh ModelBuilder, with the capacity coupling applied per row, and
the subproblem dualizes that model one column at a time. Every name, sense,
right-hand side, bound, objective coefficient, binary marker and CSR entry
must agree exactly.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from robustgrid.backend import EQ, LE, ModelBuilder, ScipyBackend
from robustgrid.io import load_instance
from robustgrid.master import (
    _BlockEmitter,
    build_dispatch_lp,
    build_master,
    capacity_keys,
    capacity_table,
    dispatch_cost,
    dispatch_template,
)
from robustgrid.model import PV, WIND
from robustgrid.subproblem import build_subproblem, default_big_m
from robustgrid.uncertainty import (
    UncertaintyBudget,
    WorstCaseRealization,
    enumerate_set,
    realize,
)

from toys import (
    single_node,
    symmetric_pair,
    three_region_hydro,
    two_period_battery,
    two_region,
)

FIXTURE = Path(__file__).parent / "fixtures" / "toy6.json"

INSTANCES = {
    "single_node": single_node,
    "ac_lines": two_region,
    "batteries_dc": two_period_battery,
    "psp_hydrogen": three_region_hydro,
    "symmetric_pair": symmetric_pair,
    "toy6": lambda: load_instance(FIXTURE),
}


@pytest.fixture(params=sorted(INSTANCES), scope="module")
def inst(request):
    return INSTANCES[request.param]()


# --- the row-by-row reference ------------------------------------------------

class _RowByRowEmitter(_BlockEmitter):
    """Applies the capacity coupling to each row as it is emitted.

    With inv (capacity column indices) the coupling becomes -coef entries
    on the capacity columns; with caps (fixed values) it lands in the rhs.
    """

    def __init__(self, builder, inst, cf, tag, inv=None, caps=None):
        super().__init__(builder, inst)
        self.cf, self.tag, self.inv, self.caps = cf, tag, inv, caps
        self.meta = []

    def var(self, family, entity, t, free=False):
        j = self.builder.add_var(
            f"{self.tag}:{family}[{entity},{t}]", lb=-math.inf if free else 0.0
        )
        self.cols[(family, entity, t)] = j
        return j

    def row(self, name, coeffs, sense, base_rhs, cap=None, ren=None):
        cap_terms = () if cap is None else (cap,)
        entity = None
        if ren is not None:
            entity = self.inst.renewables[ren[0]].id
            cap_terms = tuple((key, self.cf[entity][ren[1]] * c) for key, c in cap_terms)
        rhs = base_rhs
        if self.inv is not None:
            coeffs = coeffs + [(self.inv[key], -c) for key, c in cap_terms]
        else:
            rhs += sum(c * self.caps.get(key, 0.0) for key, c in cap_terms)
        idx = self.builder.add_row(coeffs, sense, rhs, name=f"{self.tag}:{name}")
        dev_rhs, flag = (ren[2], ren[3]) if ren is not None else (0.0, None)
        self.meta.append((idx, sense, entity, dev_rhs, flag))
        return idx


def reference_master(inst, realizations):
    model = ModelBuilder(name="master")
    inv = {
        key: model.add_var(f"cap[{key[0]},{key[1]}]", ub=limit, obj=cost)
        for key, cost, limit in capacity_table(inst)
    }
    eta = model.add_var("recourse", obj=1.0)
    for k, realization in enumerate(realizations):
        emitter = _RowByRowEmitter(model, inst, realize(inst, realization), f"s{k}", inv=inv)
        emitter.emit()
        coeffs = emitter.fuel_terms + emitter.shed_terms + [(eta, -1.0)]
        model.add_row(coeffs, LE, 0.0, name=f"s{k}:recourse_bound")
    return model.build()


def reference_dispatch(inst, caps, cf, tag="d"):
    model = ModelBuilder(name=f"dispatch:{tag}")
    emitter = _RowByRowEmitter(model, inst, cf, tag, caps=caps)
    emitter.emit()
    for j, c in emitter.fuel_terms + emitter.shed_terms:
        model.var_obj[j] += float(c)
    return model.build(), emitter.meta


def reference_subproblem(inst, caps, budget):
    big_m = default_big_m(inst)
    reference = {r.id: r.cf.reference for r in inst.renewables}
    pm, meta = reference_dispatch(inst, caps, reference)
    model = ModelBuilder(name="worst_case", sense="max")
    dual_var = []
    for i, sense, *_ in meta:
        name, rhs = pm.row_names[i], pm.row_rhs[i]
        if sense == EQ:
            dual_var.append(model.add_var(f"lam[{name}]", lb=-math.inf, obj=rhs))
        else:
            dual_var.append(model.add_var(f"mu[{name}]", obj=-rhs))
    cols_of = [[] for _ in range(pm.n_vars)]
    for i, row in enumerate(pm.rows):
        for j, a in row:
            cols_of[j].append((i, a))
    for j in range(pm.n_vars):
        coeffs = [(dual_var[i], a if pm.row_sense[i] == EQ else -a) for i, a in cols_of[j]]
        sense = EQ if pm.var_lb[j] == -math.inf else LE
        model.add_row(coeffs, sense, pm.var_obj[j], name=f"dc[{pm.var_names[j]}]")
    candidates = {}
    for i, _, entity, dev_rhs, flag in meta:
        if entity is not None and flag is not None:
            if caps.get(("ren", entity), 0.0) * dev_rhs > 0.0:
                candidates.setdefault(flag, []).append((i, entity, dev_rhs))
    z = {f: model.add_var(f"z[{f[0]},{f[1]},{f[2]}]", binary=True) for f in sorted(candidates)}
    for tech in (PV, WIND):
        for pid in sorted({f[2] for f in z}):
            members = [z[f] for f in z if f[0] == tech and f[2] == pid]
            if members:
                model.add_row([(j, 1.0) for j in members], LE,
                              float(budget.limit(tech)), name=f"budget[{tech},{pid}]")
    for flag, rows in candidates.items():
        zj = z[flag]
        for i, entity, dev_rhs in rows:
            name, mj = pm.row_names[i], dual_var[i]
            pj = model.add_var(f"phi[{name}]", obj=caps.get(("ren", entity), 0.0) * dev_rhs)
            model.add_row([(pj, 1.0), (zj, -big_m)], LE, 0.0, name=f"lin1[{name}]")
            model.add_row([(pj, 1.0), (mj, -1.0)], LE, 0.0, name=f"lin2[{name}]")
    return model.build()


# --- comparison ----------------------------------------------------------------

def assert_same_model(stamped, ref):
    assert (stamped.name, stamped.sense) == (ref.name, ref.sense)
    assert (stamped.n_vars, stamped.n_rows) == (ref.n_vars, ref.n_rows)
    assert list(stamped.var_names) == ref.var_names
    assert list(stamped.row_names) == ref.row_names
    assert list(stamped.row_sense) == list(ref.row_sense)
    for attr in ("row_rhs", "var_lb", "var_ub", "var_obj", "var_binary"):
        got, want = np.asarray(getattr(stamped, attr)), np.asarray(getattr(ref, attr))
        assert got.shape == want.shape, attr
        assert (got == want).all(), attr
        assert (np.signbit(got) == np.signbit(want)).all(), attr  # 0.0 vs -0.0
    A, B = stamped.matrix(), ref.matrix()
    assert A.shape == B.shape
    for attr in ("indptr", "indices", "data"):
        got, want = getattr(A, attr), getattr(B, attr)
        assert got.shape == want.shape, attr
        assert (got == want).all(), attr
    assert (np.signbit(A.data) == np.signbit(B.data)).all()
    assert stamped.rows == ref.rows


SET_BUDGET = UncertaintyBudget(1, 1)


def distinct_realizations(inst, n, seed=0):
    """n members of the set at SET_BUDGET in a seeded random order,
    distinct up to the set's size and repeated past it."""
    members = enumerate_set(inst, SET_BUDGET)
    order = np.random.default_rng(seed).permutation(len(members))
    return [members[order[k % len(members)]] for k in range(n)]


def some_capacities(inst, seed=1):
    """A capacity map with zeros, fractions and a missing key."""
    rng = np.random.default_rng(seed)
    keys = capacity_keys(inst)
    caps = {key: float(rng.choice([0.0, rng.uniform(0.0, 50.0)])) for key in keys}
    caps.pop(keys[-1])
    return caps


# --- the three stamped models --------------------------------------------------

@pytest.mark.parametrize("n_blocks", [1, 3, 8])
def test_master_matches_row_by_row(inst, n_blocks):
    rlz = distinct_realizations(inst, n_blocks)
    assert len(set(rlz)) == min(n_blocks, len(enumerate_set(inst, SET_BUDGET)))
    assert_same_model(build_master(inst, rlz).model, reference_master(inst, rlz))


def test_dispatch_lp_matches_row_by_row(inst):
    caps = some_capacities(inst)
    for realization in distinct_realizations(inst, 3):
        ref, _ = reference_dispatch(inst, caps, realize(inst, realization))
        assert_same_model(build_dispatch_lp(inst, caps, realization), ref)


def test_realized_coefs_equal_the_realized_series(inst):
    # the template's flag-based coefficients are realize's series times
    # the step, bit for bit, for every member of the set
    tpl = dispatch_template(inst)
    rlz = enumerate_set(inst, SET_BUDGET)
    units = [inst.renewables[u].id for u in tpl.ren_units]
    dt = inst.timegrid.step_hours
    for realization, coefs in zip(rlz, tpl.realized_coefs(inst, rlz)):
        cf = realize(inst, realization)
        assert coefs.tolist() == [cf[u][t] * dt for u, t in zip(units, tpl.ren_steps)]


@pytest.mark.parametrize("gamma", [1, 2])
def test_subproblem_matches_row_by_row(inst, gamma):
    caps = some_capacities(inst, seed=gamma)
    budget = UncertaintyBudget(gamma, gamma)
    assert_same_model(
        build_subproblem(inst, caps, budget).model,
        reference_subproblem(inst, caps, budget),
    )


# --- template lifetime and stamped state --------------------------------------

def test_template_is_emitted_once_per_instance():
    inst = two_region()
    tpl = dispatch_template(inst)
    build_master(inst, distinct_realizations(inst, 2))
    build_dispatch_lp(inst, {}, WorstCaseRealization.reference())
    assert dispatch_template(inst) is tpl
    assert dispatch_template(two_region()) is not tpl
    assert inst == two_region()  # the cached template is not part of equality


def test_stamped_models_do_not_share_writable_state():
    inst = two_period_battery()
    reference = WorstCaseRealization.reference()
    first = build_dispatch_lp(inst, {}, reference)
    first.var_lb[0] = 5.0
    first.row_rhs[0] = -1.0
    first.var_obj[0] = 99.0
    second = build_dispatch_lp(inst, {}, reference)
    ref, _ = reference_dispatch(inst, {}, realize(inst, reference))
    assert_same_model(second, ref)


def test_stamped_dispatch_solves_like_the_reference():
    inst = three_region_hydro()
    caps = some_capacities(inst)
    realization = distinct_realizations(inst, 2)[1]
    res = ScipyBackend().solve_lp(build_dispatch_lp(inst, caps, realization))
    ref, _ = reference_dispatch(inst, caps, realize(inst, realization))
    want = ScipyBackend().solve_lp(ref)
    assert dispatch_cost(inst, caps, [realization], ScipyBackend()) == [float(want.objective)]
    assert res.objective == want.objective
    assert res.x.tolist() == want.x.tolist()


# --- the emitted block, pinned -------------------------------------------------

def template_digest(tpl) -> str:
    """sha256 over every array and name list of a dispatch template."""
    h = hashlib.sha256()
    A = tpl.matrix
    arrays = [
        (A.indptr, "<i8"), (A.indices, "<i8"), (A.data, "<f8"),
        (tpl.base_rhs, "<f8"), (tpl.var_lb, "<f8"), (tpl.var_obj, "<f8"),
        (tpl.fuel_cols, "<i8"), (tpl.fuel_costs, "<f8"),
        (tpl.shed_cols, "<i8"), (tpl.shed_costs, "<f8"),
        (tpl.cap_rows, "<i8"), (tpl.cap_keys, "<i8"), (tpl.cap_coefs, "<f8"),
        (tpl.ren, "<i8"), (tpl.ren_units, "<i8"), (tpl.ren_steps, "<i8"),
        (tpl.ren_dev, "<f8"), (tpl.ren_flags, "<i8"),
    ]
    for values, dtype in arrays:
        data = np.ascontiguousarray(values, dtype=dtype).tobytes()
        h.update(len(data).to_bytes(8, "little") + data)
    for names in (tpl.row_sense, tpl.var_names, tpl.row_names, tpl.keys, tpl.flags):
        h.update(repr([str(x) if isinstance(x, str) else tuple(x) for x in names]).encode())
    return h.hexdigest()


# HiGHS's pivots follow the row order, and so does the CCG path: a block
# emitted with the same rows in another order solves to another vertex.
# These digests pin the emitter's output itself, which the row-by-row
# references above cannot do, since they run the same emit().
TEMPLATE_DIGESTS = {
    "ac_lines": "ea305ff43bcf010aef959ad858297cc09b1990fa28b2acc74410e914a0454ebb",
    "batteries_dc": "7fe2f2777fb8836772ee7dee4d3a0d6e75b2aa7891c82f15c64fea2f852016dd",
    "psp_hydrogen": "dea20b3bd2bc8702bf44db8a0130461d40024d2fe8b03755910705ed5a1ce16d",
    "single_node": "eaa09d193ed790a1a66caffa830f3c4bf58fe95bd10fa82a3a43d1b020a11d0a",
    "symmetric_pair": "8262624f381495b797b026629aa919296eb56b7edc032e060914b59618439388",
    "toy6": "07897168bc13639ff4dc602dd10aa9edbb52fc841f434b8a229b1c3e4c74ce42",
}


def test_emitted_template_is_pinned(inst, request):
    name = request.node.callspec.params["inst"]
    assert template_digest(dispatch_template(inst)) == TEMPLATE_DIGESTS[name]
