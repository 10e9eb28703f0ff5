"""Unit tests for :mod:`repro.core.problem`."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import UNCONSTRAINED, MappingProblem
from tests.conftest import make_problem


def _matrices(n=6, m=3):
    rng = np.random.default_rng(0)
    cg = rng.random((n, n))
    np.fill_diagonal(cg, 0.0)
    ag = np.ones((n, n))
    np.fill_diagonal(ag, 0.0)
    lt = np.full((m, m), 0.1)
    np.fill_diagonal(lt, 0.001)
    bt = np.full((m, m), 1e6)
    np.fill_diagonal(bt, 1e8)
    caps = np.full(m, n)
    return cg, ag, lt, bt, caps


def test_basic_construction_and_properties():
    cg, ag, lt, bt, caps = _matrices()
    p = MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps)
    assert p.num_processes == 6
    assert p.num_sites == 3
    assert not p.is_sparse
    assert p.num_constrained == 0
    assert p.constraint_ratio == 0.0
    assert np.all(p.constraints == UNCONSTRAINED)


def test_sparse_matrices_accepted_and_flagged():
    cg, ag, lt, bt, caps = _matrices()
    p = MappingProblem(
        CG=sp.csr_matrix(cg), AG=sp.coo_matrix(ag), LT=lt, BT=bt, capacities=caps
    )
    assert p.is_sparse
    assert sp.issparse(p.CG) and sp.issparse(p.AG)
    np.testing.assert_allclose(p.dense_CG(), cg)
    np.testing.assert_allclose(p.dense_AG(), ag)


def test_nonzero_diagonal_rejected():
    cg, ag, lt, bt, caps = _matrices()
    bad = cg.copy()
    bad[2, 2] = 5.0
    with pytest.raises(ValueError, match="diagonal"):
        MappingProblem(CG=bad, AG=ag, LT=lt, BT=bt, capacities=caps)


def test_negative_entries_rejected():
    cg, ag, lt, bt, caps = _matrices()
    bad = cg.copy()
    bad[0, 1] = -1.0
    with pytest.raises(ValueError, match="negative"):
        MappingProblem(CG=bad, AG=ag, LT=lt, BT=bt, capacities=caps)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["CG", "AG"])
@pytest.mark.parametrize("sparse", [False, True])
def test_non_finite_entries_rejected(value, which, sparse):
    cg, ag, lt, bt, caps = _matrices()
    mats = {"CG": cg.copy(), "AG": ag.copy()}
    mats[which][0, 1] = value
    if sparse:
        mats = {k: sp.csr_matrix(v) for k, v in mats.items()}
    with pytest.raises(ValueError, match=f"{which} contains non-finite entries"):
        MappingProblem(**mats, LT=lt, BT=bt, capacities=caps)


def test_shape_mismatch_rejected():
    cg, ag, lt, bt, caps = _matrices()
    with pytest.raises(ValueError):
        MappingProblem(CG=cg, AG=ag[:4, :4], LT=lt, BT=bt, capacities=caps)
    with pytest.raises(ValueError):
        MappingProblem(CG=cg, AG=ag, LT=lt[:2, :2], BT=bt, capacities=caps)


def test_zero_bandwidth_rejected():
    cg, ag, lt, bt, caps = _matrices()
    bt = bt.copy()
    bt[0, 1] = 0.0
    with pytest.raises(ValueError, match="positive"):
        MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps)


def test_insufficient_capacity_rejected():
    cg, ag, lt, bt, _ = _matrices()
    with pytest.raises(ValueError, match="capacity"):
        MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=[1, 1, 1])


def test_constraints_validated():
    cg, ag, lt, bt, caps = _matrices()
    cons = np.full(6, UNCONSTRAINED)
    cons[0] = 99
    with pytest.raises(ValueError, match="invalid sites"):
        MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps, constraints=cons)


def test_constraints_overfill_rejected():
    cg, ag, lt, bt, _ = _matrices()
    cons = np.zeros(6, dtype=np.int64)  # all pinned to site 0
    with pytest.raises(ValueError, match="overfill"):
        MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=[2, 4, 4], constraints=cons)


def test_constraint_ratio_and_count():
    cg, ag, lt, bt, caps = _matrices()
    cons = np.full(6, UNCONSTRAINED)
    cons[1] = 0
    cons[4] = 2
    p = MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps, constraints=cons)
    assert p.num_constrained == 2
    assert p.constraint_ratio == pytest.approx(2 / 6)


def test_with_constraints_returns_new_problem():
    cg, ag, lt, bt, caps = _matrices()
    p = MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps)
    cons = np.full(6, UNCONSTRAINED)
    cons[0] = 1
    q = p.with_constraints(cons)
    assert q.num_constrained == 1
    assert p.num_constrained == 0  # original untouched


def test_communication_quantity_dense_vs_sparse():
    cg, ag, lt, bt, caps = _matrices()
    dense = MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps)
    sparse = MappingProblem(
        CG=sp.csr_matrix(cg), AG=sp.csr_matrix(ag), LT=lt, BT=bt, capacities=caps
    )
    np.testing.assert_allclose(
        dense.communication_quantity(), sparse.communication_quantity()
    )
    expected = cg.sum(axis=1) + cg.sum(axis=0)
    np.testing.assert_allclose(dense.communication_quantity(), expected)


def test_from_topology_wires_everything(topo4):
    p = make_problem(16, topo4)
    assert p.num_sites == topo4.num_sites
    np.testing.assert_allclose(p.LT, topo4.latency_s)
    np.testing.assert_allclose(p.BT, topo4.bandwidth_Bps)
    np.testing.assert_array_equal(p.capacities, topo4.capacities)
    np.testing.assert_allclose(p.coordinates, topo4.coordinates)


def test_matrices_are_frozen():
    cg, ag, lt, bt, caps = _matrices()
    p = MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps)
    with pytest.raises(ValueError):
        p.LT[0, 0] = 5.0
    with pytest.raises(ValueError):
        p.CG[0, 1] = 5.0


@pytest.mark.parametrize("sparse", [False, True])
def test_unpickled_problem_stays_frozen(sparse):
    """Pickle drops numpy's read-only flag but keeps the cached fingerprint
    and CSR views, so an unpickled copy must be frozen again."""
    import pickle

    cg, ag, lt, bt, caps = _matrices()
    if sparse:
        cg, ag = sp.csr_matrix(cg), sp.csr_matrix(ag)
    p = MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps)
    fingerprint = p.fingerprint()  # cached on the instance, views too
    q = pickle.loads(pickle.dumps(p))
    arrays = [q.LT, q.BT, q.capacities, q.constraints]
    if sparse:
        view = q.cg_csr()
        assert view is q.cg_csr() and view.data is q.CG.data
        arrays += [q.CG.data, q.CG.indices, q.CG.indptr, q.AG.data, view.rows]
    else:
        arrays += [q.CG, q.AG]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        q.LT[0, 0] = 5.0
    assert q.fingerprint() == fingerprint


def test_dense_view_guard_blocks_large_materialization(monkeypatch):
    from repro.core import DenseMaterializationError, dense_materialize_limit
    from repro.core.problem import DENSE_LIMIT_ENV

    cg, ag, lt, bt, caps = _matrices()
    p = MappingProblem(
        CG=sp.csr_matrix(cg), AG=sp.csr_matrix(ag), LT=lt, BT=bt, capacities=caps
    )
    monkeypatch.setenv(DENSE_LIMIT_ENV, "4")  # below n=6
    assert dense_materialize_limit() == 4
    with pytest.raises(DenseMaterializationError, match="dense_CG"):
        p.dense_CG()
    with pytest.raises(DenseMaterializationError, match=DENSE_LIMIT_ENV):
        p.dense_AG()
    # DenseMaterializationError is a MemoryError so existing handlers
    # that guard big allocations catch it too.
    assert issubclass(DenseMaterializationError, MemoryError)
    # Raising the guard lets the call through again.
    monkeypatch.setenv(DENSE_LIMIT_ENV, "16")
    np.testing.assert_allclose(p.dense_CG(), cg)


def test_dense_view_guard_rejects_bad_env(monkeypatch):
    from repro.core.problem import DENSE_LIMIT_ENV, dense_materialize_limit

    monkeypatch.setenv(DENSE_LIMIT_ENV, "zero")
    with pytest.raises(ValueError, match=DENSE_LIMIT_ENV):
        dense_materialize_limit()
    monkeypatch.setenv(DENSE_LIMIT_ENV, "-3")
    with pytest.raises(ValueError, match=DENSE_LIMIT_ENV):
        dense_materialize_limit()


def test_csr_views_cached_readonly_and_consistent():
    cg, ag, lt, bt, caps = _matrices()
    p = MappingProblem(
        CG=sp.csr_matrix(cg), AG=sp.csr_matrix(ag), LT=lt, BT=bt, capacities=caps
    )
    view = p.cg_csr()
    assert view is p.cg_csr()  # cached, built once
    assert not view.data.flags.writeable
    assert not view.rows.flags.writeable
    # The triplet round-trips to the original matrix.
    rebuilt = sp.csr_matrix(
        (view.data, view.indices, view.indptr), shape=(6, 6)
    ).toarray()
    np.testing.assert_allclose(rebuilt, cg)
    # Expanded COO rows agree with indptr run lengths.
    np.testing.assert_array_equal(
        view.rows, np.repeat(np.arange(6), np.diff(view.indptr))
    )
    assert view.nnz == p.CG.nnz


def test_csr_views_reject_dense_problems():
    cg, ag, lt, bt, caps = _matrices()
    p = MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps)
    with pytest.raises(TypeError):
        p.cg_csr()
    with pytest.raises(TypeError):
        p.ag_csr()
