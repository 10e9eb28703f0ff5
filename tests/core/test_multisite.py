"""Unit tests for the multi-site constraint extension (paper future work)."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._validation import as_rng
from repro.core import (
    UNCONSTRAINED,
    FeasibilityError,
    GeoDistributedMapper,
    MappingProblem,
    MultiSiteGeoMapper,
    allowed_from_constraints,
    multisite_feasible,
    random_allowed_assignment,
    random_multisite_constraints,
    validate_multisite_assignment,
)
from repro.core.multisite import validate_allowed
from tests.conftest import make_problem


def test_allowed_from_constraints_lifts_pins():
    cons = np.array([UNCONSTRAINED, 2, 0])
    allowed = allowed_from_constraints(cons, 3)
    assert allowed[0].all()
    assert allowed[1].tolist() == [False, False, True]
    assert allowed[2].tolist() == [True, False, False]


def test_validate_allowed_rejects_empty_rows():
    bad = np.ones((3, 2), dtype=bool)
    bad[1] = False
    with pytest.raises(ValueError, match="no admissible site"):
        validate_allowed(bad, 3, 2)
    with pytest.raises(ValueError, match="must be"):
        validate_allowed(np.ones((2, 2), dtype=bool), 3, 2)


def test_multisite_feasible_maxflow():
    caps = np.array([1, 1])
    ok = np.array([[True, False], [False, True]])
    assert multisite_feasible(ok, caps)
    # Both processes demand site 0 with capacity 1: infeasible.
    clash = np.array([[True, False], [True, False]])
    assert not multisite_feasible(clash, caps)
    # Not enough total capacity.
    assert not multisite_feasible(np.ones((3, 2), dtype=bool), caps)


def test_random_multisite_constraints_stay_feasible():
    caps = np.array([4, 4, 4, 4])
    for seed in range(5):
        allowed = random_multisite_constraints(
            16, caps, 0.5, sites_per_constraint=2, seed=seed
        )
        assert allowed.shape == (16, 4)
        assert multisite_feasible(allowed, caps)


#: Seeded draws pinned by a digest of their packed allowed matrices.  It
#: was computed with the per-process formulation (one max-flow graph
#: node per process); the 96-process cases roll restrictions back.
DRAW_CASES = [
    (64, [20, 20, 16, 12], 0.6, 2),
    (96, [40, 30, 20, 10], 0.9, 1),
    (40, [6, 10, 12, 14], 1.0, 2),
    (128, [9] * 16, 0.8, 3),
]
DRAW_DIGEST = "05be40f22c52beff62374b00ee24fc8b1aedd14dfd2978b2a487125c5da2e488"


def test_random_multisite_draws_are_pinned():
    h = hashlib.sha256()
    for seed in range(4):
        for n, caps, ratio, k in DRAW_CASES:
            allowed = random_multisite_constraints(
                n, np.array(caps), ratio, sites_per_constraint=k, seed=seed
            )
            h.update(np.packbits(allowed).tobytes())
    assert h.hexdigest() == DRAW_DIGEST


def _per_process_feasible(allowed, caps):
    """Reference: max-flow with one node per process."""
    from scipy.sparse.csgraph import maximum_flow

    n, m = allowed.shape
    if caps.sum() < n:
        return False
    pr, si = np.nonzero(allowed)
    rows = np.concatenate([np.zeros(n, dtype=int), 1 + pr, 1 + n + np.arange(m)])
    cols = np.concatenate([1 + np.arange(n), 1 + n + si, np.full(m, n + m + 1)])
    data = np.concatenate([np.ones(n + pr.size, dtype=int), caps]).astype(np.int32)
    size = n + m + 2
    graph = sp.csr_matrix((data, (rows, cols)), shape=(size, size))
    return int(maximum_flow(graph, 0, size - 1).flow_value) == n


def _per_process_draw(n, caps, ratio, k, seed):
    """Reference: restrict one process at a time, re-checking the matrix."""
    rng = as_rng(seed)
    m = caps.shape[0]
    allowed = np.ones((n, m), dtype=bool)
    chosen_k = int(round(ratio * n))
    if chosen_k == 0:
        return allowed
    for proc in rng.choice(n, size=chosen_k, replace=False):
        sites = rng.choice(m, size=k, replace=False)
        allowed[proc, :] = False
        allowed[proc, sites] = True
        if not _per_process_feasible(allowed, caps):
            allowed[proc, :] = True
    return allowed


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 30),
    st.lists(st.integers(0, 12), min_size=1, max_size=5),
    st.floats(0.0, 1.0),
    st.integers(1, 5),
    st.integers(0, 2**16),
)
def test_grouped_draw_matches_per_process_formulation(n, caps, ratio, k, seed):
    caps = np.array(caps)
    k = min(k, caps.size)
    got = random_multisite_constraints(n, caps, ratio, sites_per_constraint=k, seed=seed)
    np.testing.assert_array_equal(got, _per_process_draw(n, caps, ratio, k, seed))
    rng = np.random.default_rng(seed)
    allowed = rng.random((n, caps.size)) < 0.4
    allowed[np.arange(n), rng.integers(0, caps.size, size=n)] = True
    assert multisite_feasible(allowed, caps) == _per_process_feasible(allowed, caps)


def test_random_allowed_assignment_respects_sets():
    caps = np.array([2, 2, 2])
    allowed = np.ones((6, 3), dtype=bool)
    allowed[0] = [True, False, False]
    allowed[1] = [False, True, False]
    rng = as_rng(0)
    for _ in range(10):
        P = random_allowed_assignment(allowed, caps, rng)
        assert P[0] == 0 and P[1] == 1
        assert np.all(np.bincount(P, minlength=3) <= caps)


def test_random_allowed_assignment_raises_on_infeasible():
    caps = np.array([1, 1])
    clash = np.array([[True, False], [True, False]])
    with pytest.raises(FeasibilityError):
        random_allowed_assignment(clash, caps, as_rng(0), max_tries=4)


def test_multisite_geo_mapper_feasible_and_good(topo4):
    p = make_problem(64, topo4, seed=30, locality=0.7)
    allowed = random_multisite_constraints(
        64, topo4.capacities, 0.4, sites_per_constraint=2, seed=1
    )
    mapper = MultiSiteGeoMapper(allowed)
    m = mapper.map(p, seed=0)
    validate_multisite_assignment(p, allowed, m.assignment)
    # It should still beat unconstrained-random placement on average.
    rng = as_rng(2)
    rnd_costs = []
    from repro.core import total_cost

    for _ in range(8):
        P = random_allowed_assignment(allowed, topo4.capacities, rng)
        rnd_costs.append(total_cost(p, P))
    assert m.cost < np.mean(rnd_costs)


def test_multisite_mapper_matches_single_site_semantics(topo4):
    """Encoding single-site pins as one-True rows must reproduce pin
    behaviour exactly."""
    p = make_problem(32, topo4, seed=31)
    allowed = np.ones((32, 4), dtype=bool)
    allowed[5] = [False, False, True, False]
    m = MultiSiteGeoMapper(allowed).map(p, seed=0)
    assert m.assignment[5] == 2


def test_multisite_mapper_rejects_problem_with_pins(topo4):
    p = make_problem(32, topo4, seed=32, constraint_ratio=0.2)
    allowed = np.ones((32, 4), dtype=bool)
    with pytest.raises(ValueError, match="single-site"):
        MultiSiteGeoMapper(allowed).map(p, seed=0)


def test_multisite_mapper_rejects_infeasible(topo4):
    p = make_problem(32, topo4, seed=33)
    allowed = np.ones((32, 4), dtype=bool)
    # 20 processes forced onto site 0 (capacity 16): infeasible.
    allowed[:20, :] = False
    allowed[:20, 0] = True
    with pytest.raises(FeasibilityError, match="infeasible"):
        MultiSiteGeoMapper(allowed).map(p, seed=0)


def test_sites_per_constraint_validation():
    with pytest.raises(ValueError):
        random_multisite_constraints(8, np.array([4, 4]), 0.5, sites_per_constraint=3)


# ------------------------------------------------------ one greedy fill


def _set_problem(seed: int, *, sparse: bool, tight: bool):
    """A 24-process, 4-site problem with two-site sets on some processes.

    ``tight`` leaves no spare slot and restricts most processes, so the
    greedy fill strands some of them and the completion pass runs.
    """
    rng = np.random.default_rng(seed)
    n, m = 24, 4
    cg = rng.integers(0, 4, size=(n, n)).astype(np.float64)
    cg *= rng.random((n, n)) < 0.3
    np.fill_diagonal(cg, 0.0)
    ag = np.minimum(cg, 1.0)
    caps = np.array([6, 6, 6, 6]) if tight else np.array([8, 7, 6, 5])
    lt = rng.random((m, m)) * 0.1
    np.fill_diagonal(lt, 1e-4)
    bt = rng.random((m, m)) * 1e8 + 1e6
    if sparse:
        cg, ag = sp.csr_matrix(cg), sp.csr_matrix(ag)
    problem = MappingProblem(
        CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps,
        coordinates=rng.random((m, 2)) * 100.0,
    )
    allowed = random_multisite_constraints(
        n, caps, 0.8 if tight else 0.4, sites_per_constraint=2, seed=rng
    )
    return problem, allowed


def _golden_family():
    for seed in range(4):
        for sparse in (False, True):
            for tight in (False, True):
                problem, allowed = _set_problem(seed, sparse=sparse, tight=tight)
                for kappa in (1, 4):
                    yield tight, MultiSiteGeoMapper(allowed, kappa=kappa).map(
                        problem, seed=0
                    )


#: sha256 over the assignment bytes and cost hex of every map in
#: ``_golden_family``, recorded with the mapper's own forked fill before
#: set constraints ran through geodist's greedy fill.
GOLDEN_DIGEST = "e8f9d080e6e0e7a3e95d5ef51e838743dceb442aa51ae4d7f40150d5503ea5a2"


def test_set_constrained_maps_are_pinned():
    digest = hashlib.sha256()
    completed = 0
    for tight, result in _golden_family():
        digest.update(result.assignment.tobytes())
        digest.update(float(result.cost).hex().encode())
        if tight:
            completed += result.meta["completion"]["completed"]
    assert completed > 0  # the family reaches the completion pass
    assert digest.hexdigest() == GOLDEN_DIGEST


@pytest.mark.parametrize("sparse", [False, True])
def test_all_true_sets_reproduce_plain_geodist(topo4, sparse):
    dense = make_problem(48, topo4, seed=35, locality=0.5)
    problem = MappingProblem(
        CG=sp.csr_matrix(dense.CG) if sparse else dense.CG,
        AG=sp.csr_matrix(dense.AG) if sparse else dense.AG,
        LT=dense.LT, BT=dense.BT, capacities=dense.capacities,
        coordinates=dense.coordinates,
    )
    allowed = np.ones((48, topo4.num_sites), dtype=bool)
    multi = MultiSiteGeoMapper(allowed).map(problem, seed=0)
    plain = GeoDistributedMapper(recursive=False).map(problem, seed=0)
    assert multi.assignment.tobytes() == plain.assignment.tobytes()
    assert multi.meta["fill"] == plain.meta["fill"]
    assert multi.meta["memo"] == plain.meta["memo"]


def test_a_fill_that_breaks_a_set_is_a_feasibility_error(topo4, monkeypatch):
    import repro.core.geodist as geodist

    p = make_problem(32, topo4, seed=36)
    free = GeoDistributedMapper(recursive=False).map(p, seed=0).assignment
    allowed = np.ones((32, 4), dtype=bool)
    allowed[0, free[0]] = False
    fill = geodist._fill_group

    def unmasked_fill(*args):
        return fill(*args[:6])  # drops the admissible mask

    monkeypatch.setattr(geodist, "_fill_group", unmasked_fill)
    with pytest.raises(FeasibilityError, match=r"violated for processes \[0\]"):
        MultiSiteGeoMapper(allowed).map(p, seed=0)


def _stranding_problem():
    """Process 1 admits only site 0, which the greedy fill gives to 2 and 0."""
    cg = np.zeros((4, 4))
    cg[0, 2] = cg[2, 0] = 10.0
    cg[2, 3] = cg[3, 2] = 1.0
    cg[1, 3] = cg[3, 1] = 1.0
    problem = MappingProblem(
        CG=cg, AG=np.minimum(cg, 1.0), LT=np.full((2, 2), 0.01),
        BT=np.full((2, 2), 1e8), capacities=[2, 2],
    )
    allowed = np.array([[True, False], [True, False], [True, True], [True, True]])
    return problem, allowed


def test_completion_relocates_a_flexible_resident():
    problem, allowed = _stranding_problem()
    result = MultiSiteGeoMapper(allowed).map(problem, seed=0)
    assert result.meta["completion"] == {"completed": 1, "dead_ends": 0}
    assert result.assignment.tolist() == [0, 0, 1, 1]
    assert "fallback" not in result.meta


def test_dead_ended_orders_fall_back_visibly(monkeypatch):
    import repro.core.geodist as geodist

    problem, allowed = _stranding_problem()
    monkeypatch.setattr(geodist, "_complete", lambda state, allowed: None)
    result = MultiSiteGeoMapper(allowed).map(problem, seed=0)
    assert result.meta["completion"] == {"completed": 0, "dead_ends": 1}
    assert result.meta["fallback"] == "random-allowed"
    validate_multisite_assignment(problem, allowed, result.assignment)
