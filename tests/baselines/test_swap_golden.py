"""Stored digests for the swap-based local searches of MPIPP and annealing.

MPIPP's faithful exchange scan, its ``fast_refine`` shortlist and the
annealing walk all price exchanges through
:meth:`CostEvaluator._swap_delta_unchecked`.  These digests (assignment
bytes plus the cost's exact bits) were recorded before that kernel
replaced the checked, sparse-indexing ``swap_delta`` in their inner
loops; each case asserts the counters that prove it reaches the code it
pins (refinement passes that applied swaps, accepted swaps and moves).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines import MPIPPMapper, SimulatedAnnealingMapper
from repro.core import MappingProblem, UNCONSTRAINED


def _digest(mapping) -> str:
    return hashlib.sha256(
        mapping.assignment.astype("<i8").tobytes() + mapping.cost.hex().encode()
    ).hexdigest()


def _swap_case(sparse: bool, m: int = 4) -> MappingProblem:
    """N=48 clustered traffic on ``m`` sites with 2 slack nodes each.

    Processes 5, 17 and 30 are pinned; the slack lets annealing propose
    single moves next to its swaps.
    """
    n, seed = 48, 11
    rng = np.random.default_rng(seed)
    block = np.arange(n) // (n // m)
    near = block[:, None] == block[None, :]
    dense = rng.random((n, n)) < np.where(near, 0.5, 0.1)
    cg = np.where(dense, rng.random((n, n)) * 1e6, 0.0)
    np.fill_diagonal(cg, 0.0)
    ag = np.ceil(cg / 1e5)
    lt = rng.uniform(0.01, 0.1, (m, m))
    np.fill_diagonal(lt, 1e-3)
    bt = rng.uniform(1e7, 1e9, (m, m))
    np.fill_diagonal(bt, 1e10)
    pins = np.full(n, UNCONSTRAINED, dtype=np.int64)
    pins[[5, 17, 30]] = [0, 1, m - 1]
    if sparse:
        cg, ag = sp.csr_matrix(cg), sp.csr_matrix(ag)
    return MappingProblem(
        CG=cg,
        AG=ag,
        LT=lt,
        BT=bt,
        capacities=np.full(m, n // m + 2),
        constraints=pins,
    )


#: mode -> digest (dense and CSR alike), recorded before the unchecked
#: swap kernel.
_MPIPP_DIGESTS = {
    "faithful": "6d525d4d757ff1c77ef38623d88c1f318a4f88219f44070d0f64061640ded14e",
    "fast": "dbf3300c1379c3cfdcaa20846da660ea68d0b7f2631ebc6cb9c90fe1f5f159c8",
    "geo-aware": "ce2b1bb6252175b94dcaf1fdf9e6d300093a01e252421d59bd1420bc1993b5cf",
}

_MPIPP_KWARGS = {
    "faithful": {},
    "fast": {"fast_refine": True},
    # Eight sites take the greedy part-exchange search, not enumeration.
    "geo-aware": {"fast_refine": True, "geo_aware": True},
}


@pytest.mark.parametrize("mode", sorted(_MPIPP_KWARGS))
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_mpipp_matches_stored_digest(sparse, mode):
    problem = _swap_case(sparse, m=8)
    mapper = MPIPPMapper(restarts=2, max_passes=4, **_MPIPP_KWARGS[mode])
    result = mapper.map(problem, seed=3)
    # More passes than restarts: some pass applied a swap.
    assert result.meta["refine_passes"] > 2
    assert _digest(result) == _MPIPP_DIGESTS[mode]


#: Dense and CSR alike, recorded before the unchecked swap kernel.
_ANNEALING_DIGEST = "38a72c0659e82f967b15610bc495cdc72d988bede5126ff4f2efa0da4b574c02"


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_annealing_matches_stored_digest(sparse):
    problem = _swap_case(sparse)
    result = SimulatedAnnealingMapper(steps=1500).map(problem, seed=5)
    assert result.meta["accepted_swaps"] > 0
    assert result.meta["accepted_moves"] > 0
    assert _digest(result) == _ANNEALING_DIGEST
