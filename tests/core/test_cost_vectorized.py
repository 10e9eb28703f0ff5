"""Property tests for the vectorized cost kernels.

Pins the perf-layer rewrite (bincount / one-hot aggregation, chunked
dense batch evaluation, the CSR/CSC site-cost kernel) to the scalar
semantics it must preserve.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    UNCONSTRAINED,
    CostEvaluator,
    MappingProblem,
    aggregate_site_traffic,
    total_cost,
)
from tests.conftest import make_problem


def _sparsify(p: MappingProblem) -> MappingProblem:
    return MappingProblem(
        CG=sp.csr_matrix(p.CG),
        AG=sp.csr_matrix(p.AG),
        LT=p.LT,
        BT=p.BT,
        capacities=p.capacities,
        constraints=p.constraints,
        coordinates=p.coordinates,
    )


def _naive_aggregate(problem: MappingProblem, P: np.ndarray):
    """O(N^2) Python-loop oracle for the site-pair aggregation."""
    m = problem.num_sites
    cg, ag = problem.dense_CG(), problem.dense_AG()
    vol = np.zeros((m, m))
    cnt = np.zeros((m, m))
    for i in range(problem.num_processes):
        for j in range(problem.num_processes):
            vol[P[i], P[j]] += cg[i, j]
            cnt[P[i], P[j]] += ag[i, j]
    return vol, cnt


@pytest.mark.parametrize("sparse_input", [False, True])
def test_aggregate_matches_naive_loop(topo4, sparse_input):
    p = make_problem(12, topo4, seed=21)
    if sparse_input:
        p = _sparsify(p)
    rng = np.random.default_rng(0)
    for _ in range(4):
        P = rng.integers(0, p.num_sites, size=12)
        vol, cnt = aggregate_site_traffic(p, P)
        rvol, rcnt = _naive_aggregate(p, P)
        np.testing.assert_allclose(vol, rvol, rtol=1e-12)
        np.testing.assert_allclose(cnt, rcnt, rtol=1e-12)


@pytest.mark.parametrize("sparse_input", [False, True])
@pytest.mark.parametrize("constraint_ratio", [0.0, 0.3])
def test_batch_cost_equals_scalar_costs(topo4, sparse_input, constraint_ratio):
    """batch_cost(Ps) == [total_cost(p) for p in Ps] within 1e-9 relative."""
    p = make_problem(32, topo4, seed=22, constraint_ratio=constraint_ratio)
    if sparse_input:
        p = _sparsify(p)
    ev = CostEvaluator(p)
    rng = np.random.default_rng(1)
    Ps = rng.integers(0, p.num_sites, size=(64, 32))
    batch = ev.batch_cost(Ps)
    scalar = np.array([total_cost(p, q) for q in Ps])
    np.testing.assert_allclose(batch, scalar, rtol=1e-9)


def test_batch_cost_dense_spans_chunks(topo4):
    """Batches larger than one gather chunk still evaluate correctly."""
    p = make_problem(48, topo4, seed=23)
    ev = CostEvaluator(p)
    old_chunk = CostEvaluator._DENSE_CHUNK_ELEMS
    try:
        # Force ~5 chunks for a 10-mapping batch.
        CostEvaluator._DENSE_CHUNK_ELEMS = 2 * 48 * 48
        rng = np.random.default_rng(2)
        Ps = rng.integers(0, p.num_sites, size=(10, 48))
        chunked = ev.batch_cost(Ps)
    finally:
        CostEvaluator._DENSE_CHUNK_ELEMS = old_chunk
    np.testing.assert_allclose(chunked, ev.batch_cost(Ps), rtol=1e-12)


def test_batch_cost_single_mapping(topo4):
    p = make_problem(16, topo4, seed=24)
    ev = CostEvaluator(p)
    P = np.zeros((1, 16), dtype=np.int64)
    assert ev.batch_cost(P)[0] == pytest.approx(total_cost(p, P[0]))


@pytest.mark.parametrize("sparse_input", [False, True])
def test_site_costs_returns_owned_array(topo4, sparse_input):
    """Regression: mutating a returned cost vector must not corrupt CG/AG
    or later evaluations (a row reader once returned live views)."""
    p = make_problem(16, topo4, seed=25)
    if sparse_input:
        p = _sparsify(p)
    ev = CostEvaluator(p)
    P = np.random.default_rng(3).integers(0, p.num_sites, size=16)
    placed = np.ones(16, dtype=bool)
    before = ev.move_delta(P, 2, 1), ev._site_costs(P, placed, 2).copy()
    costs = ev._site_costs(P, placed, 2)
    costs[:] = -1.0  # must be writeable and isolated
    assert ev.move_delta(P, 2, 1) == before[0]
    np.testing.assert_array_equal(ev._site_costs(P, placed, 2), before[1])
    np.testing.assert_array_equal(p.dense_CG()[2, :] == -1.0, np.zeros(16, bool))


def _brute_site_costs(problem, P, placed, i):
    """Double loop over sites and placed partners: the kernel's definition."""
    cg, ag = problem.dense_CG(), problem.dense_AG()
    lt, bt = problem.LT, problem.BT
    out = np.zeros(problem.num_sites)
    for s in range(problem.num_sites):
        for j in range(problem.num_processes):
            if j == i or not placed[j]:
                continue
            t = P[j]
            out[s] += ag[i, j] * lt[s, t] + ag[j, i] * lt[t, s]
            out[s] += cg[i, j] / bt[s, t] + cg[j, i] / bt[t, s]
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([0.0, 0.2, 1.0]),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_site_costs_match_brute_force(n, m, density, placed_ratio, seed):
    """Exact oracle for the site-cost kernel: asymmetric LT/BT and comm
    matrices, pinned processes, partial placements with unplaced (-1)
    entries, dense and CSR storage; the two storages agree bit for bit."""
    rng = np.random.default_rng(seed)
    cg = np.where(rng.random((n, n)) < density, rng.random((n, n)) * 1e6, 0.0)
    np.fill_diagonal(cg, 0.0)
    ag = np.where(rng.random((n, n)) < density, rng.integers(1, 9, (n, n)), 0)
    ag = ag.astype(np.float64)
    np.fill_diagonal(ag, 0.0)
    pins = np.full(n, UNCONSTRAINED, dtype=np.int64)
    pinned = rng.random(n) < 0.3
    pins[pinned] = rng.integers(0, m, size=int(pinned.sum()))
    common = dict(
        LT=rng.uniform(1e-4, 0.1, (m, m)),
        BT=rng.uniform(1e7, 1e9, (m, m)),
        capacities=np.full(m, n),
        constraints=pins,
    )
    dense = MappingProblem(CG=cg, AG=ag, **common)
    sparse = MappingProblem(CG=sp.csr_matrix(cg), AG=sp.csr_matrix(ag), **common)
    placed = rng.random(n) < placed_ratio
    P = np.where(placed, rng.integers(0, m, size=n), -1)
    ev_d, ev_s = CostEvaluator(dense), CostEvaluator(sparse)
    for i in range(n):
        got = ev_d._site_costs(P, placed, i)
        assert got.tobytes() == ev_s._site_costs(P, placed, i).tobytes()
        np.testing.assert_allclose(
            got, _brute_site_costs(dense, P, placed, i), rtol=1e-12, atol=0.0
        )


def test_aggregate_empty_sparse_matrix(topo4):
    """All-zero sparse comm matrices aggregate to zero without errors."""
    n = 8
    empty = sp.csr_matrix((n, n))
    p = MappingProblem(
        CG=empty,
        AG=empty.copy(),
        LT=make_problem(n, topo4, seed=26).LT,
        BT=make_problem(n, topo4, seed=26).BT,
        capacities=make_problem(n, topo4, seed=26).capacities,
    )
    vol, cnt = aggregate_site_traffic(p, np.zeros(n, dtype=np.int64))
    assert vol.shape == (p.num_sites, p.num_sites)
    assert vol.sum() == 0.0 and cnt.sum() == 0.0
    assert total_cost(p, np.zeros(n, dtype=np.int64)) == 0.0
