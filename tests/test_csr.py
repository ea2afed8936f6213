"""CSRMatrix: its structure checks, and its column-wise arrays refereed by scipy.

The package builds every constraint matrix as a CSRMatrix and hands HiGHS
the arrays colwise() returns. scipy.sparse appears here only, as the
referee: colwise() must equal scipy's csr_matrix(...).tocsc() entry for
entry, zeros and their signs included, on models from every builder.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from robustgrid.backend import EQ, GE, LE, CSRMatrix, ModelBuilder
from robustgrid.master import (
    DispatchTemplate,
    build_dispatch_lp,
    build_master,
    capacity_keys,
    dispatch_template,
)
from robustgrid.subproblem import build_subproblem
from robustgrid.uncertainty import UncertaintyBudget, enumerate_set

from toys import three_region_hydro, two_region


def _scipy(A: CSRMatrix) -> sparse.csr_matrix:
    return sparse.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def _builder_lp():
    """A ModelBuilder LP with an explicit zero, then a -0.0 written into its matrix."""
    m = ModelBuilder()
    for name in ("a", "b", "c", "d"):
        m.add_var(name, obj=1.0)
    m.add_row([(2, 1.0), (0, 0.0), (3, -2.0)], LE, 4.0)
    m.add_row([(1, 3.0), (2, 5.0)], EQ, 1.0)
    m.add_row([(0, 1.0), (1, -1.0), (3, 0.5)], GE, -2.0)
    m.add_row([(3, 7.0)], EQ, 2.0)
    model = m.build()
    A = model.matrix()
    A.data[A.indices == 3] *= 0.0  # -2.0, 0.5 and 7.0 become -0.0, 0.0 and 0.0
    assert np.signbit(A.data[A.data == 0.0]).sum() == 1
    return model


def _master():
    inst = two_region()
    members = list(enumerate_set(inst, UncertaintyBudget(1, 1)))[:2]
    return build_master(inst, members).model


def _dispatch():
    inst = three_region_hydro()
    return build_dispatch_lp(inst, {key: 10.0 for key in capacity_keys(inst)}, frozenset())


def _worst_case():
    inst = three_region_hydro()
    caps = {key: 10.0 for key in capacity_keys(inst)}
    model = build_subproblem(inst, caps, UncertaintyBudget(1, 1)).model
    assert model.is_mip
    return model


MODELS = {
    "builder_lp": _builder_lp,
    "master_2_blocks": _master,
    "dispatch_lp": _dispatch,
    "worst_case_milp": _worst_case,
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_colwise_equals_scipy_tocsc(name):
    A = MODELS[name]().matrix()
    reference = _scipy(A).tocsc()
    start, index, value = A.colwise()
    pairs = ((start, reference.indptr), (index, reference.indices), (value, reference.data))
    for got, want in pairs:
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
    assert (np.signbit(value) == np.signbit(reference.data)).all()


def _zero_in_le_row():
    """A stand-in template whose <= row holds an explicit zero."""
    matrix = _builder_lp().matrix()
    matrix.data[matrix.data == 0.0] = 0.0  # no -0.0 going in
    return SimpleNamespace(
        matrix=matrix,
        row_sense=np.array([LE, EQ, GE, EQ], dtype=object),
        n_rows=matrix.shape[0],
        n_vars=matrix.shape[1],
    )


@pytest.mark.parametrize("tpl", [
    pytest.param(lambda: dispatch_template(three_region_hydro()), id="three_region_hydro"),
    pytest.param(_zero_in_le_row, id="zero_in_le_row"),
])
def test_dual_rows_equal_scipy_transpose(tpl):
    tpl = tpl()
    At = _scipy(tpl.matrix).tocsc()
    sign = np.where(tpl.row_sense == EQ, 1.0, -1.0)
    got = DispatchTemplate.dual_rows.func(tpl)
    assert got.shape == (tpl.n_vars, tpl.n_rows)
    assert got.indptr.tolist() == At.indptr.tolist()
    assert got.indices.tolist() == At.indices.tolist()
    want = 0.0 + At.data * sign[At.indices]
    assert got.data.tolist() == want.tolist()
    assert (np.signbit(got.data) == np.signbit(want)).all()


def test_index_arrays_are_int32():
    A = CSRMatrix(np.array([0, 1, 2], dtype=np.int64), np.array([2, 0]), [1.0, 2.0], (2, 3))
    assert A.indptr.dtype == A.indices.dtype == np.int32
    assert A.shape == (2, 3)


GOOD = ([0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0], (2, 3))


@pytest.mark.parametrize(
    "indptr, indices, data, shape",
    [
        ([0, 2], [0, 2, 1], [1.0, 2.0, 3.0], (2, 3)),
        ([1, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0], (2, 3)),
        ([0, 2, 1, 3], [0, 2, 1], [1.0, 2.0, 3.0], (3, 3)),
        ([0, 2, 2], [0, 2, 1], [1.0, 2.0, 3.0], (2, 3)),
        ([0, 2, 3], [0, 2], [1.0, 2.0, 3.0], (2, 3)),
        ([0, 2, 3], [0, 2, 1], [1.0, 2.0], (2, 3)),
        ([0, 2, 3], [0, 3, 1], [1.0, 2.0, 3.0], (2, 3)),
        ([0, 2, 3], [0, -1, 1], [1.0, 2.0, 3.0], (2, 3)),
        ([0, 2, 3], [0.0, 2.0, 1.0], [1.0, 2.0, 3.0], (2, 3)),
    ],
    ids=[
        "indptr-length", "indptr-start", "indptr-decreasing", "indptr-end",
        "indices-length", "data-length", "column-too-large", "column-negative",
        "indices-not-integer",
    ],
)
def test_constructor_rejects_malformed_structure(indptr, indices, data, shape):
    CSRMatrix(*GOOD)
    with pytest.raises(ValueError):
        CSRMatrix(np.array(indptr), np.array(indices), np.array(data), shape)


def test_empty_matrix():
    A = CSRMatrix([0], np.array([], dtype=np.int32), [], (0, 2))
    start, index, value = A.colwise()
    assert start.tolist() == [0, 0, 0]
    assert len(index) == len(value) == 0
