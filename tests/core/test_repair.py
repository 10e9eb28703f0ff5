"""The incremental repair mapper on its own (no fault layer)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CostEvaluator,
    GeoDistributedMapper,
    IncrementalRepairMapper,
    InfeasibleProblemError,
    MappingProblem,
    UNCONSTRAINED,
    UNPLACED,
    repair_mapping,
    total_cost,
)


def make_problem(n=12, m=3, cap=6, seed=0, constraints=None):
    rng = np.random.default_rng(seed)
    cg = rng.uniform(0, 1e6, (n, n))
    np.fill_diagonal(cg, 0)
    ag = np.ceil(cg / 1e5)
    lt = rng.uniform(0.01, 0.1, (m, m))
    lt = (lt + lt.T) / 2
    np.fill_diagonal(lt, 1e-4)
    bt = rng.uniform(1e7, 1e9, (m, m))
    bt = (bt + bt.T) / 2
    np.fill_diagonal(bt, 1e10)
    return MappingProblem(
        CG=cg,
        AG=ag,
        LT=lt,
        BT=bt,
        capacities=np.full(m, cap, dtype=np.int64),
        constraints=constraints,
    )


class TestIncrementalRepair:
    def test_complete_partial_is_identity(self):
        prob = make_problem()
        base = GeoDistributedMapper().map(prob)
        res = repair_mapping(prob, base.assignment)
        np.testing.assert_array_equal(res.mapping.assignment, base.assignment)
        assert res.num_migrated == 0
        assert res.displaced.size == 0

    def test_places_unplaced_only(self):
        prob = make_problem()
        base = GeoDistributedMapper().map(prob)
        partial = base.assignment.copy()
        partial[[2, 5]] = UNPLACED
        res = repair_mapping(prob, partial)
        kept = np.delete(np.arange(12), [2, 5])
        np.testing.assert_array_equal(
            res.mapping.assignment[kept], base.assignment[kept]
        )
        assert sorted(res.migrated.tolist()) == [2, 5]
        assert res.mapping.cost == pytest.approx(
            total_cost(prob, res.mapping.assignment)
        )

    def test_evicts_overflow_when_capacity_shrinks(self):
        prob = make_problem(n=12, m=3, cap=6)
        # All 12 on sites {0, 1} is fine (6 + 6); shrink site 0 to 4.
        P = np.repeat([0, 1], 6)
        shrunk = MappingProblem(
            CG=prob.CG,
            AG=prob.AG,
            LT=prob.LT,
            BT=prob.BT,
            capacities=np.array([4, 6, 6], dtype=np.int64),
        )
        res = IncrementalRepairMapper().repair(shrunk, P)
        loads = np.bincount(res.mapping.assignment, minlength=3)
        assert loads[0] <= 4
        assert res.displaced.size == 2  # exactly the overflow

    def test_pinned_processes_never_move(self):
        cons = np.full(12, UNCONSTRAINED, dtype=np.int64)
        cons[0], cons[1] = 2, 2
        prob = make_problem(constraints=cons)
        partial = np.full(12, UNPLACED, dtype=np.int64)
        res = IncrementalRepairMapper(extra_moves=4).repair(prob, partial)
        assert res.mapping.assignment[0] == 2
        assert res.mapping.assignment[1] == 2

    def test_partial_contradicting_pin_rejected(self):
        cons = np.full(12, UNCONSTRAINED, dtype=np.int64)
        cons[0] = 2
        prob = make_problem(constraints=cons)
        partial = np.zeros(12, dtype=np.int64)  # process 0 on site 0, pin says 2
        with pytest.raises(ValueError, match="contradicts"):
            IncrementalRepairMapper().repair(prob, partial)

    def test_infeasible_pin_target_full(self):
        cons = np.full(12, UNCONSTRAINED, dtype=np.int64)
        cons[0] = 0
        base = make_problem(constraints=cons)
        prob = MappingProblem(
            CG=base.CG,
            AG=base.AG,
            LT=base.LT,
            BT=base.BT,
            capacities=np.array([4, 6, 6], dtype=np.int64),
            constraints=cons,
        )
        # Site 0 (capacity 4) is completely occupied by kept unpinned
        # processes, so the unplaced pinned process 0 has nowhere legal.
        partial = np.array(
            [UNPLACED, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2], dtype=np.int64
        )
        with pytest.raises(InfeasibleProblemError, match="no free node"):
            IncrementalRepairMapper().repair(prob, partial)

    @pytest.mark.parametrize(
        "caps, match",
        [
            ([2, 6, 6], r"constraints overfill sites \[0\]"),
            ([3, 3, 3], "total capacity 9 cannot host 12 processes"),
        ],
        ids=["pins-overfill-site", "capacity-below-n"],
    )
    def test_unplaceable_inputs_fail_before_repair(self, caps, match):
        """Repair has no error of its own for these: the problem is
        rejected, with the deficit named, before repair can start."""
        cons = np.full(12, UNCONSTRAINED, dtype=np.int64)
        cons[:3] = 0
        base = make_problem(constraints=cons)
        with pytest.raises(InfeasibleProblemError, match=match):
            MappingProblem(
                CG=base.CG,
                AG=base.AG,
                LT=base.LT,
                BT=base.BT,
                capacities=np.array(caps, dtype=np.int64),
                constraints=cons,
            )

    def test_extra_moves_budget_respected(self):
        prob = make_problem(seed=4)
        base = GeoDistributedMapper().map(prob)
        # Adversarial partial: rotate every process one site over, then
        # unplace two — extra moves may fix at most `budget` kept ones.
        partial = (base.assignment + 1) % 3
        partial[[0, 1]] = UNPLACED
        for budget in (0, 2):
            res = IncrementalRepairMapper(extra_moves=budget).repair(
                prob, partial
            )
            moved_kept = sum(
                1
                for i in range(2, 12)
                if res.mapping.assignment[i] != partial[i]
            )
            assert moved_kept <= budget

    def test_extra_moves_never_hurt_cost(self):
        prob = make_problem(seed=9)
        partial = np.full(12, UNPLACED, dtype=np.int64)
        plain = IncrementalRepairMapper(extra_moves=0).repair(prob, partial)
        polished = IncrementalRepairMapper(extra_moves=4).repair(prob, partial)
        assert polished.mapping.cost <= plain.mapping.cost + 1e-9

    def test_bad_partial_rejected(self):
        prob = make_problem()
        with pytest.raises(ValueError, match="outside"):
            repair_mapping(prob, np.full(12, 7, dtype=np.int64))


def _sparse_and_dense(n, m, seed):
    """One sparse problem and its dense copy; process 0 receives nothing
    and process 1 sends nothing, so both edge cases are always present."""
    rng = np.random.default_rng(seed)
    cg = np.where(rng.random((n, n)) < 0.3, rng.random((n, n)) * 1e6, 0.0)
    np.fill_diagonal(cg, 0.0)
    cg[:, 0] = 0.0
    cg[1, :] = 0.0
    ag = np.ceil(cg / 1e5)
    lt = rng.uniform(0.01, 0.1, (m, m))
    bt = rng.uniform(1e7, 1e9, (m, m))
    caps = np.full(m, n, dtype=np.int64)
    common = dict(LT=lt, BT=bt, capacities=caps)
    sparse = MappingProblem(CG=sp.csr_matrix(cg), AG=sp.csr_matrix(ag), **common)
    dense = MappingProblem(CG=cg, AG=ag, **common)
    return sparse, dense


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_row_kernel_sparse_equals_dense(n, m, seed):
    """The site-cost kernel repair places with reads CSR/CSC rows on
    sparse problems and full rows on dense ones; both give the same bytes."""
    sparse, dense = _sparse_and_dense(n, m, seed)
    rng = np.random.default_rng(seed)
    P = rng.integers(0, m, size=n)
    placed = rng.random(n) < 0.7
    ev_s, ev_d = CostEvaluator(sparse), CostEvaluator(dense)
    for i in range(n):
        cost_s = ev_s._site_costs(P, placed, i)
        cost_d = ev_d._site_costs(P, placed, i)
        assert cost_s.tobytes() == cost_d.tobytes()
        # Owned, writable output: scribbling on it leaves the problem intact.
        for a in (cost_s, cost_d):
            assert a.flags.writeable and a.base is None
            a[:] = -1.0
        np.testing.assert_array_equal(sparse.CG.toarray(), dense.CG)
        np.testing.assert_array_equal(sparse.AG.toarray(), dense.AG)
    # The no-in-edge and no-out-edge processes really are edge cases.
    assert sparse.CG[:, 0].nnz == 0 and sparse.CG[1, :].nnz == 0
