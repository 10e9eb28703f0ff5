"""Equivalence tests for the Geo mapper's memoized fast path.

The shared-prefix memoization is a pure optimization: for every kappa
and constraint mix it must return the exact assignment (and cost) of
the plain walk.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import GeoDistributedMapper, MappingProblem, validate_assignment
from tests.conftest import make_problem


@pytest.mark.parametrize("kappa", [2, 3, 4])
@pytest.mark.parametrize("constraint_ratio", [0.0, 0.25])
def test_memoized_matches_unmemoized(topo4, kappa, constraint_ratio):
    p = make_problem(48, topo4, seed=31, constraint_ratio=constraint_ratio, locality=0.4)
    memo = GeoDistributedMapper(kappa=kappa, memoize=True).map(p, seed=0)
    flat = GeoDistributedMapper(kappa=kappa, memoize=False).map(p, seed=0)
    np.testing.assert_array_equal(memo.assignment, flat.assignment)
    assert memo.cost == flat.cost
    validate_assignment(p, memo.assignment)


def test_memoized_matches_unmemoized_sparse(topo4):
    dense = make_problem(32, topo4, seed=33, locality=0.5)
    p = MappingProblem(
        CG=sp.csr_matrix(dense.CG),
        AG=sp.csr_matrix(dense.AG),
        LT=dense.LT,
        BT=dense.BT,
        capacities=dense.capacities,
        coordinates=dense.coordinates,
    )
    memo = GeoDistributedMapper(kappa=4, memoize=True).map(p, seed=0)
    flat = GeoDistributedMapper(kappa=4, memoize=False).map(p, seed=0)
    np.testing.assert_array_equal(memo.assignment, flat.assignment)
    assert memo.cost == flat.cost


def test_memoized_respects_max_orders(topo4):
    p = make_problem(32, topo4, seed=34)
    for max_orders in (1, 3, 7):
        memo = GeoDistributedMapper(kappa=4, max_orders=max_orders, memoize=True).map(
            p, seed=0
        )
        flat = GeoDistributedMapper(kappa=4, max_orders=max_orders, memoize=False).map(
            p, seed=0
        )
        np.testing.assert_array_equal(memo.assignment, flat.assignment)


def test_recursive_path_uses_fast_flat_solver():
    """The grouping optimization recurses into the memoized flat solver and
    still matches its unmemoized twin."""
    rng = np.random.default_rng(4)
    m_sites = 12
    centers = np.array([[0.0, 0.0], [40.0, 80.0], [-40.0, -80.0]])
    coords = np.concatenate([c + rng.normal(scale=1.0, size=(4, 2)) for c in centers])
    lt = np.full((m_sites, m_sites), 0.1)
    bt = np.full((m_sites, m_sites), 1e6)
    for a in range(m_sites):
        for b in range(m_sites):
            if a // 4 == b // 4:
                lt[a, b], bt[a, b] = 0.001, 1e8
    n = 24
    cg = rng.random((n, n)) * 1e5
    np.fill_diagonal(cg, 0)
    ag = np.ones((n, n))
    np.fill_diagonal(ag, 0)
    p = MappingProblem(
        CG=cg, AG=ag, LT=lt, BT=bt, capacities=[2] * m_sites, coordinates=coords
    )
    kwargs = dict(kappa=3, recursive=True, recursion_limit=2)
    memo = GeoDistributedMapper(memoize=True, **kwargs).map(p, seed=0)
    flat = GeoDistributedMapper(memoize=False, **kwargs).map(p, seed=0)
    np.testing.assert_array_equal(memo.assignment, flat.assignment)
    validate_assignment(p, memo.assignment)
