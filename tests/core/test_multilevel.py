"""Unit tests for :mod:`repro.core.multilevel`.

Covers the coarsening invariants the mapper's correctness rests on
(conservation of edge weight and process quantity, projection
bijection, pin survival) plus end-to-end determinism and quality.
"""

import hashlib
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GeoDistributedMapper,
    MappingProblem,
    MultilevelMapper,
    UNCONSTRAINED,
    contract,
    heavy_edge_matching,
    total_cost,
    validate_assignment,
)
from repro.core.geodist import _symmetric_traffic
from repro.core.multilevel import _affinity_edges
from repro.obs import recording

REPO_ROOT = Path(__file__).resolve().parents[2]


def _clustered_problem(n: int) -> MappingProblem:
    """``benchmarks/bench_multilevel.py``'s clustered 16-site problem."""
    path = REPO_ROOT / "benchmarks" / "bench_multilevel.py"
    saved = list(sys.path)  # the bench script puts its own dirs in front
    try:
        spec = importlib.util.spec_from_file_location("bench_multilevel", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module.make_sparse_problem(n)


def _sparse_problem(
    n: int, m: int = 4, *, seed: int = 0, pin_ratio: float = 0.0
) -> MappingProblem:
    """Clustered sparse problem with optional random pins."""
    rng = np.random.default_rng(seed)
    lt = np.full((m, m), 0.1)
    np.fill_diagonal(lt, 0.001)
    bt = np.full((m, m), 2e7)
    np.fill_diagonal(bt, 1e9)
    caps = np.full(m, -(-n // m) + 2)
    coords = rng.uniform(-60.0, 60.0, size=(m, 2))

    k = 8 * n
    src = rng.integers(0, n, size=k)
    dst = rng.integers(0, n, size=k)
    w = rng.random(k) * 1e6
    keep = src != dst
    cg = sp.csr_matrix((w[keep], (src[keep], dst[keep])), shape=(n, n))
    cg.sum_duplicates()
    ag = cg.copy()
    ag.data = np.ceil(ag.data / 1e5)

    constraints = None
    if pin_ratio > 0:
        constraints = np.full(n, UNCONSTRAINED, dtype=np.int64)
        pinned = rng.choice(n, size=int(n * pin_ratio), replace=False)
        constraints[pinned] = rng.integers(0, m, size=pinned.size)
    return MappingProblem(
        CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps,
        coordinates=coords, constraints=constraints,
    )


# ------------------------------------------------------------- matching


def test_matching_is_symmetric_and_respects_pins():
    problem = _sparse_problem(128, seed=3, pin_ratio=0.25)
    mate = heavy_edge_matching(problem, np.random.default_rng(7))
    matched = np.flatnonzero(mate >= 0)
    assert matched.size > 0, "matching found no pairs on a dense-enough graph"
    # Symmetric: mate[mate[i]] == i, and nobody is their own mate.
    assert np.all(mate[mate[matched]] == matched)
    assert np.all(mate[matched] != matched)
    # Pin compatibility: merged vertices carry identical pins.
    pins = problem.constraints
    assert np.all(pins[matched] == pins[mate[matched]])


def test_matching_deterministic_for_same_generator_seed():
    problem = _sparse_problem(96, seed=1)
    a = heavy_edge_matching(problem, np.random.default_rng(11))
    b = heavy_edge_matching(problem, np.random.default_rng(11))
    np.testing.assert_array_equal(a, b)


def _lexsort_matching(problem, rng, rounds):
    """Reference matching: each u's proposal picked by a full edge sort.

    Ascending ``(u, w, prio[v])`` lexsort; the last edge of each u-run
    is u's heaviest edge, highest-priority partner on ties.  The mapper
    replaced this O(E log E) sort with a segmented max and must pick
    exactly the same partners.
    """
    n = problem.num_processes
    mate = np.full(n, -1, dtype=np.int64)
    u, v, w = _affinity_edges(_symmetric_traffic(problem))
    if u.size == 0:
        return mate
    pins = problem.constraints
    allowed = pins[u] == pins[v]
    u, v, w = u[allowed], v[allowed], w[allowed]
    prio = rng.permutation(n)
    for _ in range(rounds):
        live = (mate[u] == -1) & (mate[v] == -1)
        if not np.any(live):
            break
        lu, lv, lw = u[live], v[live], w[live]
        order = np.lexsort((prio[lv], lw, lu))
        lu, lv = lu[order], lv[order]
        last = np.flatnonzero(np.diff(lu, append=-1) != 0)
        pref = np.full(n, -1, dtype=np.int64)
        pref[lu[last]] = lv[last]
        cand = np.flatnonzero(pref >= 0)
        mutual = cand[(pref[pref[cand]] == cand) & (pref[cand] != cand)]
        pair = mutual[mutual < pref[mutual]]
        mate[pair] = pref[pair]
        mate[pref[pair]] = pair
    return mate


@st.composite
def matching_problems(draw):
    """Small graphs: sparse or dense storage, tied or distinct weights,
    isolated vertices, and mixes of pinned and unpinned vertices."""
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6, 1.0]))
    if draw(st.booleans()):  # heavy ties: a handful of integer weights
        w = rng.integers(1, 4, size=(n, n)).astype(np.float64)
    else:
        w = rng.random((n, n)) * 1e6
    cg = np.where(rng.random((n, n)) < density, w, 0.0)
    np.fill_diagonal(cg, 0.0)
    isolated = rng.random(n) < draw(st.sampled_from([0.0, 0.2]))
    cg[isolated, :] = 0.0
    cg[:, isolated] = 0.0
    pins = np.full(n, UNCONSTRAINED, dtype=np.int64)
    pinned = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    pins[pinned] = rng.integers(0, m, size=int(pinned.sum()))
    if draw(st.booleans()):
        cg = sp.csr_matrix(cg)
    return MappingProblem(
        CG=cg,
        AG=cg.copy(),
        LT=np.full((m, m), 0.01),
        BT=np.full((m, m), 1e8),
        capacities=np.full(m, n),
        constraints=pins,
    )


@settings(max_examples=150, deadline=None)
@given(
    matching_problems(),
    st.sampled_from([1, 3, 5, 16]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_matching_equals_lexsort_reference(problem, rounds, seed):
    got = heavy_edge_matching(problem, np.random.default_rng(seed), rounds=rounds)
    want = _lexsort_matching(problem, np.random.default_rng(seed), rounds)
    np.testing.assert_array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(matching_problems(), st.integers(min_value=0, max_value=2**32 - 1))
def test_matching_with_spare_rounds_is_a_fixpoint(problem, seed):
    """A cap above the rounds needed ends on a round that pairs nothing.

    Every round with a live edge pairs at least one pair (the endpoint
    of highest priority among the heaviest live edges and its preferred
    partner propose to each other), so at the fixpoint no edge joins two
    unmatched vertices with the same pin, and more rounds change nothing.
    """
    n = problem.num_processes
    mate = heavy_edge_matching(problem, np.random.default_rng(seed), rounds=n)
    more = heavy_edge_matching(problem, np.random.default_rng(seed), rounds=n + 16)
    np.testing.assert_array_equal(mate, more)
    u, v, _ = _affinity_edges(_symmetric_traffic(problem))
    pins = problem.constraints
    live = (mate[u] == -1) & (mate[v] == -1) & (pins[u] == pins[v]) & (u != v)
    assert not np.any(live), "an unmatched same-pin pair is left adjacent"


def test_matching_rounds_cap_bounds_a_monotone_path():
    # Weights rise along the path, so only its heaviest live edge is a
    # mutual proposal: each round pairs exactly one pair, and without
    # the cap matching would take N/2 rounds.
    n = 4096
    idx = np.arange(n - 1)
    w = 1.0 + idx.astype(np.float64)
    cg = sp.csr_matrix((w, (idx, idx + 1)), shape=(n, n))
    problem = MappingProblem(
        CG=cg, AG=cg.copy(), LT=np.full((2, 2), 0.01),
        BT=np.full((2, 2), 1e8), capacities=np.full(2, n),
    )
    start = time.process_time()
    mate = heavy_edge_matching(problem, np.random.default_rng(0), rounds=16)
    assert time.process_time() - start < 5.0
    matched = np.flatnonzero(mate >= 0)
    assert matched.size == 2 * 16
    # The 16 heaviest edges, taken from the top end of the path.
    np.testing.assert_array_equal(matched, np.arange(n - 32, n))
    np.testing.assert_array_equal(mate[matched], matched ^ 1)


@settings(max_examples=60, deadline=None)
@given(matching_problems())
def test_symmetric_traffic_is_canonical_csr(problem):
    """Matching and eviction read ``CG + CG^T`` straight from geodist's
    builder; its CSR arrays must already be sorted and duplicate-free."""
    sym = _symmetric_traffic(problem)
    if not sp.issparse(sym):
        return
    canon = sym.copy()
    canon.sum_duplicates()
    canon.sort_indices()
    for got, want in zip(
        (sym.indptr, sym.indices, sym.data), (canon.indptr, canon.indices, canon.data)
    ):
        np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------- contraction


def test_contract_conserves_edge_weight_and_quantity():
    problem = _sparse_problem(128, seed=5)
    sizes = np.ones(128, dtype=np.int64)
    mate = heavy_edge_matching(problem, np.random.default_rng(2))
    coarse, f2c, coarse_sizes, internal_vol, internal_cnt = contract(
        problem, sizes, mate
    )
    # Total CG/AG weight is conserved: off-diagonal coarse weight plus
    # the dropped self-loop (internal) weight equals the fine total.
    assert coarse.CG.sum() + internal_vol == pytest.approx(problem.CG.sum())
    assert coarse.AG.sum() + internal_cnt == pytest.approx(problem.AG.sum())
    # Process quantity (node demand) is conserved.
    assert coarse_sizes.sum() == 128
    assert coarse_sizes.min() >= 1
    # Site-side data passes through untouched.
    np.testing.assert_array_equal(coarse.capacities, problem.capacities)
    np.testing.assert_array_equal(coarse.LT, problem.LT)


def test_contract_projection_is_a_surjection_with_exact_fibers():
    problem = _sparse_problem(64, seed=9)
    sizes = np.ones(64, dtype=np.int64)
    mate = heavy_edge_matching(problem, np.random.default_rng(4))
    coarse, f2c, coarse_sizes, _, _ = contract(problem, sizes, mate)
    nc = coarse.num_processes
    assert f2c.shape == (64,)
    # Every fine vertex lands on a valid coarse vertex, and every coarse
    # vertex has a nonempty preimage whose sizes sum to its quantity.
    assert f2c.min() == 0 and f2c.max() == nc - 1
    np.testing.assert_array_equal(np.unique(f2c), np.arange(nc))
    np.testing.assert_array_equal(
        np.bincount(f2c, weights=sizes, minlength=nc).astype(np.int64),
        coarse_sizes,
    )
    # Matched pairs land on the same coarse vertex; singletons are alone.
    matched = np.flatnonzero(mate >= 0)
    assert np.all(f2c[matched] == f2c[mate[matched]])


def test_pins_survive_contraction():
    problem = _sparse_problem(128, seed=6, pin_ratio=0.3)
    sizes = np.ones(128, dtype=np.int64)
    mate = heavy_edge_matching(problem, np.random.default_rng(8))
    coarse, f2c, _, _, _ = contract(problem, sizes, mate)
    # Each fine vertex's pin reappears verbatim on its coarse vertex.
    np.testing.assert_array_equal(coarse.constraints[f2c], problem.constraints)


def test_contract_rejects_malformed_vectors():
    problem = _sparse_problem(32, seed=0)
    mate = np.full(32, -1, dtype=np.int64)
    with pytest.raises(ValueError):
        contract(problem, np.ones(31, dtype=np.int64), mate)
    with pytest.raises(ValueError):
        contract(problem, np.ones(32, dtype=np.int64), mate[:10])


# ------------------------------------------------------------ end to end


def test_multilevel_same_seed_is_bit_identical():
    problem = _sparse_problem(512, seed=2, pin_ratio=0.1)
    mapper = MultilevelMapper(kappa=2, coarsest_size=64)
    a = mapper.map(problem, seed=42)
    b = mapper.map(problem, seed=42)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    assert a.cost == b.cost


def _digest(result) -> str:
    return hashlib.sha256(
        result.assignment.astype("<i8").tobytes() + result.cost.hex().encode()
    ).hexdigest()


def test_multilevel_mapping_matches_stored_digest():
    # Pins the whole pipeline (matching, contraction, inner solve,
    # refinement) to the mapping it produced before the matching lost
    # its sort: assignment bytes and the cost's exact bits.  It was
    # recorded at three matching rounds, which the early-exit loop on a
    # shrinking edge list must reproduce bit for bit.
    problem = _sparse_problem(2048, m=8, seed=12, pin_ratio=0.1)
    mapper = MultilevelMapper(kappa=2, coarsest_size=128, match_rounds=3)
    result = mapper.map(problem, seed=5)
    assert [lv["n"] for lv in result.meta["levels"]] == [
        2048, 1290, 880, 673, 563, 506
    ]
    assert _digest(result) == (
        "4d04442d3b4d96b12a9c4e2f851dcd956b0dcc0d2a67f95713107c322ef05f83"
    )


def test_multilevel_default_depth_matches_stored_digest():
    # Same problem at the default matching depth, where rounds run until
    # one pairs nothing.  The digest is also what 16 full rounds without
    # the early exit or the edge-list shrinking produce.
    problem = _sparse_problem(2048, m=8, seed=12, pin_ratio=0.1)
    result = MultilevelMapper(kappa=2, coarsest_size=128).map(problem, seed=5)
    assert [lv["n"] for lv in result.meta["levels"]] == [
        2048, 1173, 711, 472, 349, 287, 256, 241
    ]
    assert _digest(result) == (
        "1ee4a550cfb9497bddc37d922382b076d92e1e9919280db3b9c4e641cabb9d37"
    )


def test_multilevel_coarsens_to_the_size_target():
    # With matching run to its fixpoint, the clustered bench problem
    # coarsens below coarsest_size, so the inner solve is geodist on a
    # small graph rather than a matching floor.
    problem = _clustered_problem(8192)
    with recording() as rec:
        result = MultilevelMapper(kappa=4).map(problem, seed=0)
    assert result.meta["coarsen_stop"] == "size"
    assert result.meta["levels"][-1]["n"] <= 1024
    assert result.meta["inner"] == "geo-distributed"
    (coarsen,) = [
        s for root in rec.roots for s in root.iter() if s.name == "multilevel.coarsen"
    ]
    assert coarsen.attrs["stop"] == "size"


@pytest.mark.parametrize(
    "kwargs, empty, stop",
    [
        ({"max_levels": 1}, False, "max_levels"),
        ({"min_shrink": 0.9}, False, "min_shrink"),
        ({}, True, "no_match"),
        ({"coarsest_size": 512}, False, "size"),
    ],
)
def test_multilevel_records_why_coarsening_stopped(kwargs, empty, stop):
    problem = _sparse_problem(512, seed=3)
    if empty:  # no edges: matching pairs nothing
        zero = sp.csr_matrix(problem.CG.shape)
        problem = MappingProblem(
            CG=zero, AG=zero, LT=problem.LT, BT=problem.BT,
            capacities=problem.capacities, coordinates=problem.coordinates,
        )
    options = {"coarsest_size": 64, **kwargs}
    result = MultilevelMapper(kappa=2, **options).map(problem, seed=0)
    assert result.meta["coarsen_stop"] == stop
    validate_assignment(problem, result.assignment)


def test_single_level_multilevel_equals_its_inner_geodist():
    # Metamorphic: with coarsest_size >= N nothing is coarsened, the
    # scaled vertex-unit capacities equal the real ones, so legalization
    # moves nothing; without refinement the result is geodist's own.
    problem = _clustered_problem(512)
    ml = MultilevelMapper(kappa=4, coarsest_size=512, refine_rounds=0)
    result = ml.map(problem, seed=3)
    direct = GeoDistributedMapper(kappa=4).map(problem, seed=3)
    assert len(result.meta["levels"]) == 1
    np.testing.assert_array_equal(result.assignment, direct.assignment)
    assert result.cost == direct.cost


def test_multilevel_valid_and_within_quality_bound():
    problem = _sparse_problem(512, seed=4, pin_ratio=0.1)
    result = MultilevelMapper(kappa=2, coarsest_size=64).map(problem, seed=0)
    validate_assignment(problem, result.assignment)  # capacities + pins
    direct = GeoDistributedMapper(kappa=2).map(problem, seed=0)
    assert result.cost <= 1.10 * direct.cost
    assert result.cost == pytest.approx(total_cost(problem, result.assignment))


def test_multilevel_respects_pins_end_to_end():
    problem = _sparse_problem(256, seed=7, pin_ratio=0.25)
    result = MultilevelMapper(kappa=2, coarsest_size=32).map(problem, seed=1)
    pinned = problem.constraints != UNCONSTRAINED
    np.testing.assert_array_equal(
        result.assignment[pinned], problem.constraints[pinned]
    )


def test_multilevel_meta_and_trace_structure():
    problem = _sparse_problem(512, seed=3)
    with recording() as rec:
        result = MultilevelMapper(kappa=2, coarsest_size=64).map(problem, seed=0)
    levels = result.meta["levels"]
    assert levels[0]["n"] == 512
    # Strictly shrinking level sizes down to the coarsest.
    ns = [lv["n"] for lv in levels]
    assert ns == sorted(ns, reverse=True) and len(set(ns)) == len(ns)
    names = [s.name for root in rec.roots for s in root.iter()]
    for required in ("multilevel.coarsen", "multilevel.solve", "multilevel.refine"):
        assert required in names, f"missing span: {required}"


def test_multilevel_small_problem_falls_through_to_inner():
    # Below coarsest_size no levels are built; the inner mapper solves
    # the original problem directly and the result is still valid.
    problem = _sparse_problem(48, seed=8)
    result = MultilevelMapper(kappa=2, coarsest_size=64).map(problem, seed=0)
    validate_assignment(problem, result.assignment)
    assert len(result.meta["levels"]) == 1
