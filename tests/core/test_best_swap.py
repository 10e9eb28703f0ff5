"""Repair's swap shortlist against the N x N version it replaced.

:func:`repro.core.repair._best_swap` scans the approximate swap gains in
row blocks and keeps only a running best 4N.  The oracle below is the
original: it built the full N x N gain, bill and mask arrays and
argsorted all of them.  Both must return the same pair.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import scipy.sparse as sp

from repro.core import CostEvaluator, MappingProblem
from repro.core.repair import _best_swap


def _best_swap_oracle(evaluator, P, movable, billed, budget):
    n = P.shape[0]
    D = evaluator.move_delta_matrix(P)
    approx = D[np.arange(n)[:, None], P[None, :]]  # move i -> P[j]
    gain = approx + approx.T
    bill = billed[:, None].astype(np.int64) + billed[None, :].astype(np.int64)
    invalid = (
        ~movable[:, None]
        | ~movable[None, :]
        | (P[:, None] == P[None, :])
        | (bill > budget)
    )
    gain = np.where(invalid, np.inf, gain)
    gain[np.tril_indices(n)] = np.inf
    order = np.argsort(gain, axis=None, kind="stable")
    for flat in order[: 4 * n]:
        i, j = np.unravel_index(int(flat), gain.shape)
        if not np.isfinite(gain[i, j]) or gain[i, j] >= 0:
            break
        if evaluator.swap_delta(P, int(i), int(j)) < -1e-12:
            return int(i), int(j)
    return None


def _random_problem(rng, n, m, sparse):
    density = rng.uniform(0.1, 0.6)
    cg = np.where(rng.random((n, n)) < density, rng.random((n, n)) * 1e6, 0.0)
    np.fill_diagonal(cg, 0.0)
    ag = np.ceil(cg / 1e5)
    lt = rng.uniform(0.01, 0.1, (m, m))
    np.fill_diagonal(lt, 1e-3)
    bt = rng.uniform(1e7, 1e9, (m, m))
    np.fill_diagonal(bt, 1e10)
    if sparse:
        cg, ag = sp.csr_matrix(cg), sp.csr_matrix(ag)
    return MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=np.full(m, n))


def test_blocked_shortlist_matches_the_full_matrix_oracle():
    rng = np.random.default_rng(2024)
    found = 0
    for case in range(200):
        n, m = int(rng.integers(2, 41)), int(rng.integers(2, 6))
        problem = _random_problem(rng, n, m, sparse=bool(case % 2))
        evaluator = CostEvaluator(problem)
        P = rng.integers(0, m, size=n).astype(np.int64)
        movable = rng.random(n) < rng.uniform(0.5, 1.0)  # the rest are pinned
        billed = rng.random(n) < rng.uniform(0.0, 1.0)
        budget = int(rng.integers(0, 3))
        expected = _best_swap_oracle(evaluator, P, movable, billed, budget)
        D = evaluator.move_delta_matrix(P)
        assert _best_swap(evaluator, P, D, movable, billed, budget) == expected, case
        found += expected is not None
    assert found > 50  # most cases verify a swap, not just "none"


def test_tiny_blocks_merge_into_the_same_running_best(monkeypatch):
    """One row per block: the running best merges across every block."""
    rng = np.random.default_rng(7)
    problem = _random_problem(rng, 60, 4, sparse=True)
    evaluator = CostEvaluator(problem)
    P = rng.integers(0, 4, size=60).astype(np.int64)
    movable = np.ones(60, dtype=bool)
    billed = np.zeros(60, dtype=bool)
    D = evaluator.move_delta_matrix(P)
    whole = _best_swap(evaluator, P, D, movable, billed, 0)
    monkeypatch.setattr(CostEvaluator, "_DENSE_CHUNK_ELEMS", 64)
    assert _best_swap(evaluator, P, D, movable, billed, 0) == whole
    assert whole == _best_swap_oracle(evaluator, P, movable, billed, 0)


def test_one_call_stays_far_below_n_squared_memory():
    """The full-matrix version peaked at 545 MiB here (N=4096, 16 sites)."""
    n, m = 4096, 16
    rng = np.random.default_rng(1)
    cg = sp.random(n, n, density=8.0 / n, random_state=1, format="csr") * 1e6
    cg.setdiag(0.0)
    cg.eliminate_zeros()
    ag = cg.copy()
    ag.data = np.ceil(ag.data / 1e5)
    lt = rng.uniform(0.001, 0.2, (m, m))
    bt = rng.uniform(2e7, 5e9, (m, m))
    caps = np.full(m, -(-n // m) + 2)
    problem = MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps)
    evaluator = CostEvaluator(problem)
    P = rng.permutation(np.repeat(np.arange(m), caps))[:n].astype(np.int64)
    movable = np.ones(n, dtype=bool)
    billed = np.zeros(n, dtype=bool)
    tracemalloc.start()
    try:
        D = evaluator.move_delta_matrix(P)
        _best_swap(evaluator, P, D, movable, billed, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20, f"peak {peak / 2**20:.0f} MiB"
