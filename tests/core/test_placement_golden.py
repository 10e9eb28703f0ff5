"""Stored digests for the evict-and-place paths of repair and multilevel.

Incremental repair and multilevel legalization share one least-affinity
eviction, one heaviest-first best-site placement and one site-cost
kernel.  These digests (assignment bytes plus the cost's exact bits)
were recorded before those paths were merged, and each case asserts the
counters that prove it reaches the code it pins: eviction from a shrunk
site, a displaced pinned process, polish moves and the extra-move
budget for repair; coarse eviction and deferred placement for
multilevel.  Dense and CSR storage must give the same digest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    IncrementalRepairMapper,
    InfeasibleProblemError,
    MappingProblem,
    MultilevelMapper,
    UNCONSTRAINED,
    UNPLACED,
)


def _digest(mapping) -> str:
    return hashlib.sha256(
        mapping.assignment.astype("<i8").tobytes() + mapping.cost.hex().encode()
    ).hexdigest()


# ---------------------------------------------------------------- repair


def _repair_case(sparse: bool) -> tuple[MappingProblem, np.ndarray]:
    """N=40 on 4 sites; site 0 shrunk to 8 nodes under a 10-process load.

    Processes 3, 7 and 11 are pinned to sites 0, 1 and 2; process 7 is
    handed in ``UNPLACED`` together with two unpinned ones.
    """
    n, m, seed = 40, 4, 7
    rng = np.random.default_rng(seed)
    cg = np.where(rng.random((n, n)) < 0.25, rng.random((n, n)) * 1e6, 0.0)
    np.fill_diagonal(cg, 0.0)
    ag = np.ceil(cg / 1e5)
    lt = rng.uniform(0.01, 0.1, (m, m))
    np.fill_diagonal(lt, 1e-3)
    bt = rng.uniform(1e7, 1e9, (m, m))
    np.fill_diagonal(bt, 1e10)
    pins = np.full(n, UNCONSTRAINED, dtype=np.int64)
    pins[[3, 7, 11]] = [0, 1, 2]
    if sparse:
        cg, ag = sp.csr_matrix(cg), sp.csr_matrix(ag)
    problem = MappingProblem(
        CG=cg,
        AG=ag,
        LT=lt,
        BT=bt,
        capacities=np.array([8, 12, 12, 12]),
        constraints=pins,
    )
    partial = np.random.default_rng(seed).permutation(np.repeat(np.arange(m), 10))
    for i, s in zip([3, 7, 11], [0, 1, 2]):
        j = i if partial[i] == s else np.flatnonzero(partial == s)[0]
        partial[i], partial[j] = partial[j], partial[i]
    partial[[7, 20, 21]] = UNPLACED
    return problem, partial


#: extra_moves -> digest, recorded before the placement paths were merged.
_REPAIR_DIGESTS = {
    0: "e781cd805d97018f88bfa6757a0f1d56bbd23067ee1bd060762eda146976d111",
    3: "169628988354c21b12badee87dbcf03fdd82dc87d3dca0215bb84c44a34d99e3",
}


@pytest.mark.parametrize("extra_moves", [0, 3])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_repair_matches_stored_digest(sparse, extra_moves):
    problem, partial = _repair_case(sparse)
    result = IncrementalRepairMapper(extra_moves=extra_moves).repair(problem, partial)
    meta = result.mapping.meta
    assert meta["evicted"] == 2  # site 0 shrank below its load
    assert 7 in meta["displaced"] and result.mapping.assignment[7] == 1
    assert meta["polish_rounds"] == 2  # the first polish pass moved someone
    assert meta["extra_moves_used"] == extra_moves
    assert _digest(result.mapping) == _REPAIR_DIGESTS[extra_moves]


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_repair_pinned_target_full_message(sparse):
    problem, partial = _repair_case(sparse)
    # Site 1 now holds 12 of its 12 nodes, so pinned process 7 has no room.
    partial[[20, 21, np.flatnonzero(partial == 3)[0]]] = 1
    with pytest.raises(InfeasibleProblemError) as info:
        IncrementalRepairMapper().repair(problem, partial)
    assert str(info.value) == (
        "incremental-repair: process 7 is pinned to site 1, "
        "which has no free node left"
    )


# ------------------------------------------------------------ multilevel


def _multilevel_case(n, m, seed, pin_ratio, sparse) -> MappingProblem:
    """Clustered problem whose capacities sum to exactly N.

    With no slack, coarse super-vertices overflow their sites after the
    vertex-unit inner solve (coarse eviction) and some fit nowhere until
    they split at a finer level (deferred placement).
    """
    rng = np.random.default_rng(seed)
    lt = rng.uniform(0.01, 0.1, (m, m))
    np.fill_diagonal(lt, 0.001)
    bt = rng.uniform(1e7, 1e8, (m, m))
    np.fill_diagonal(bt, 1e9)
    caps = np.full(m, n // m)
    caps[: n - (n // m) * m] += 1
    coords = rng.uniform(-60, 60, size=(m, 2))
    k = 8 * n
    src = rng.integers(0, n, size=k)
    dst = rng.integers(0, n, size=k)
    w = rng.random(k) * 1e6
    keep = src != dst
    cg = sp.csr_matrix((w[keep], (src[keep], dst[keep])), shape=(n, n))
    cg.sum_duplicates()
    ag = cg.copy()
    ag.data = np.ceil(ag.data / 1e5)
    pins = None
    if pin_ratio:
        pins = np.full(n, UNCONSTRAINED, dtype=np.int64)
        pinned = rng.choice(n, size=int(n * pin_ratio), replace=False)
        pins[pinned] = rng.integers(0, m, size=pinned.size)
    if not sparse:
        cg, ag = cg.toarray(), ag.toarray()
    return MappingProblem(
        CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps,
        coordinates=coords, constraints=pins,
    )


#: (n, m, seed, pin_ratio) -> digest, recorded before the merge.
_MULTILEVEL_DIGESTS = {
    (256, 5, 0, 0.1): "0920728b44b21493da29c7b499e0d13655480f723115ec17c4049dbac0f1ba9e",
    (300, 3, 2, 0.0): "664d146df20d87daf5e71baaad9992d38e32aacc562822cdd70bf6f6a8617310",
}


@pytest.mark.parametrize("case", sorted(_MULTILEVEL_DIGESTS))
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_multilevel_legalization_matches_stored_digest(sparse, case):
    n, m, seed, pin_ratio = case
    problem = _multilevel_case(n, m, seed, pin_ratio, sparse)
    # Three matching rounds: the depth these digests were recorded at.
    mapper = MultilevelMapper(kappa=2, coarsest_size=32, match_rounds=3)
    result = mapper.map(problem, seed=seed)
    refine = result.meta["refine"]
    assert result.meta["coarse_evicted"] > 0
    assert result.meta["coarse_deferred"] > 0
    assert sum(r["placed_deferred"] for r in refine) > 0
    assert refine[-1]["still_deferred"] == 0  # level 0 always completes
    assert _digest(result) == _MULTILEVEL_DIGESTS[case]
