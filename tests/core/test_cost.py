"""Unit tests for the cost engine (:mod:`repro.core.cost`)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import CostEvaluator, MappingProblem, aggregate_site_traffic, total_cost
from tests.conftest import make_problem


def tiny_problem():
    """2 processes, 2 sites — cost checkable by hand."""
    cg = np.array([[0.0, 100.0], [50.0, 0.0]])
    ag = np.array([[0.0, 2.0], [1.0, 0.0]])
    lt = np.array([[0.001, 0.1], [0.2, 0.002]])
    bt = np.array([[1000.0, 10.0], [20.0, 2000.0]])
    return MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=[2, 2])


def test_total_cost_by_hand_cross_sites():
    p = tiny_problem()
    P = np.array([0, 1])
    # 0->1: 2 msgs * LT[0,1] + 100 / BT[0,1]; 1->0: 1 * LT[1,0] + 50 / BT[1,0]
    expected = 2 * 0.1 + 100 / 10.0 + 1 * 0.2 + 50 / 20.0
    assert total_cost(p, P) == pytest.approx(expected)


def test_total_cost_by_hand_same_site():
    p = tiny_problem()
    P = np.array([0, 0])
    expected = 2 * 0.001 + 100 / 1000.0 + 1 * 0.001 + 50 / 1000.0
    assert total_cost(p, P) == pytest.approx(expected)


def test_aggregate_site_traffic_sums():
    p = tiny_problem()
    P = np.array([0, 1])
    vol, cnt = aggregate_site_traffic(p, P)
    assert vol[0, 1] == 100.0 and vol[1, 0] == 50.0
    assert cnt[0, 1] == 2.0 and cnt[1, 0] == 1.0
    assert vol.sum() == 150.0 and cnt.sum() == 3.0


def test_cost_rejects_bad_assignments():
    p = tiny_problem()
    with pytest.raises(ValueError):
        total_cost(p, np.array([0, 5]))
    with pytest.raises(ValueError):
        total_cost(p, np.array([0]))
    with pytest.raises(TypeError):
        total_cost(p, np.array([0.0, 1.0]))


def test_sparse_matches_dense_cost(topo4):
    dense = make_problem(24, topo4, seed=3)
    sparse = MappingProblem(
        CG=sp.csr_matrix(dense.CG),
        AG=sp.csr_matrix(dense.AG),
        LT=dense.LT,
        BT=dense.BT,
        capacities=dense.capacities,
        coordinates=dense.coordinates,
    )
    rng = np.random.default_rng(0)
    for _ in range(5):
        P = rng.integers(0, 4, size=24)
        assert total_cost(sparse, P) == pytest.approx(total_cost(dense, P))


@pytest.mark.parametrize("sparse_input", [False, True])
def test_move_delta_matches_recompute(topo4, sparse_input):
    p = make_problem(20, topo4, seed=4)
    if sparse_input:
        p = MappingProblem(
            CG=sp.csr_matrix(p.CG), AG=sp.csr_matrix(p.AG), LT=p.LT, BT=p.BT,
            capacities=p.capacities,
        )
    ev = CostEvaluator(p)
    rng = np.random.default_rng(1)
    P = rng.integers(0, p.num_sites, size=20)
    base = total_cost(p, P)
    for i in [0, 7, 19]:
        for s in range(p.num_sites):
            P2 = P.copy()
            P2[i] = s
            assert ev.move_delta(P, i, s) == pytest.approx(
                total_cost(p, P2) - base, abs=1e-9
            )


@pytest.mark.parametrize("sparse_input", [False, True])
def test_swap_delta_matches_recompute(topo4, sparse_input):
    p = make_problem(20, topo4, seed=5)
    if sparse_input:
        p = MappingProblem(
            CG=sp.csr_matrix(p.CG), AG=sp.csr_matrix(p.AG), LT=p.LT, BT=p.BT,
            capacities=p.capacities,
        )
    ev = CostEvaluator(p)
    rng = np.random.default_rng(2)
    P = rng.integers(0, p.num_sites, size=20)
    base = total_cost(p, P)
    for i, j in [(0, 1), (3, 15), (19, 4), (2, 2)]:
        P2 = P.copy()
        P2[i], P2[j] = P2[j], P2[i]
        assert ev.swap_delta(P, i, j) == pytest.approx(
            total_cost(p, P2) - base, abs=1e-9
        )


def test_move_delta_matrix_matches_individual_moves(topo4):
    p = make_problem(12, topo4, seed=6)
    ev = CostEvaluator(p)
    rng = np.random.default_rng(3)
    P = rng.integers(0, p.num_sites, size=12)
    D = ev.move_delta_matrix(P)
    assert D.shape == (12, p.num_sites)
    for i in range(12):
        for s in range(p.num_sites):
            assert D[i, s] == pytest.approx(ev.move_delta(P, i, s), abs=1e-9)
    # Staying put costs nothing.
    np.testing.assert_allclose(D[np.arange(12), P], 0.0, atol=1e-12)


def test_batch_cost_matches_scalar(topo4):
    p = make_problem(16, topo4, seed=7)
    ev = CostEvaluator(p)
    rng = np.random.default_rng(4)
    Ps = rng.integers(0, p.num_sites, size=(8, 16))
    batch = ev.batch_cost(Ps)
    for k in range(8):
        assert batch[k] == pytest.approx(total_cost(p, Ps[k]))


def test_batch_cost_sparse_matches_dense(topo4):
    dense = make_problem(16, topo4, seed=8)
    sparse = MappingProblem(
        CG=sp.csr_matrix(dense.CG), AG=sp.csr_matrix(dense.AG),
        LT=dense.LT, BT=dense.BT, capacities=dense.capacities,
    )
    rng = np.random.default_rng(5)
    Ps = rng.integers(0, 4, size=(6, 16))
    np.testing.assert_allclose(
        CostEvaluator(sparse).batch_cost(Ps), CostEvaluator(dense).batch_cost(Ps)
    )


def test_batch_cost_shape_validation(topo4):
    p = make_problem(16, topo4, seed=9)
    ev = CostEvaluator(p)
    with pytest.raises(ValueError):
        ev.batch_cost(np.zeros((3, 5), dtype=np.int64))


def test_move_delta_index_validation(topo4):
    p = make_problem(8, topo4, seed=10)
    ev = CostEvaluator(p)
    P = np.zeros(8, dtype=np.int64)
    with pytest.raises(IndexError):
        ev.move_delta(P, 99, 0)
    with pytest.raises(IndexError):
        ev.move_delta(P, 0, 99)


@pytest.mark.parametrize("sparse_input", [False, True], ids=["dense", "csr"])
def test_swap_delta_validates_like_move_delta(topo4, sparse_input):
    p = make_problem(8, topo4, seed=10)
    if sparse_input:
        p = MappingProblem(
            CG=sp.csr_matrix(p.CG), AG=sp.csr_matrix(p.AG), LT=p.LT, BT=p.BT,
            capacities=p.capacities,
        )
    ev = CostEvaluator(p)
    P = np.arange(8, dtype=np.int64) % 4
    for i, j in [(8, 0), (0, 8), (-1, 0), (0, -1), (99, 1)]:
        with pytest.raises(IndexError):
            ev.swap_delta(P, i, j)
    for bad, error in [
        (P[:7], ValueError),  # wrong shape
        (P.astype(float), TypeError),
        (np.full(8, 99), ValueError),  # sites outside 0..M-1
    ]:
        with pytest.raises(error):
            ev.move_delta(bad, 0, 1)
        with pytest.raises(error):
            ev.swap_delta(bad, 0, 1)
