"""Problem degradation and its index bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import UNCONSTRAINED, InfeasibleProblemError, MappingProblem
from repro.faults import (
    FaultSchedule,
    LinkDegradation,
    SiteCapacityLoss,
    SiteOutage,
    degrade_problem,
)


def make_problem(n=16, m=4, cap=8, seed=0, constraints=None):
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


class TestDegradeProblem:
    def test_outage_drops_site(self):
        prob = make_problem()
        sched = FaultSchedule(events=(SiteOutage(site=1, start_s=1.0),))
        deg = degrade_problem(prob, sched, 2.0)
        assert deg.problem.num_sites == 3
        assert deg.alive_sites.tolist() == [0, 2, 3]
        assert deg.site_map.tolist() == [0, -1, 1, 2]
        assert deg.num_dead_sites == 1

    def test_before_start_no_effect(self):
        prob = make_problem()
        sched = FaultSchedule(events=(SiteOutage(site=1, start_s=5.0),))
        deg = degrade_problem(prob, sched, 1.0)
        assert deg.problem.num_sites == 4
        np.testing.assert_array_equal(deg.problem.LT, prob.LT)

    def test_index_round_trip(self):
        prob = make_problem()
        sched = FaultSchedule(events=(SiteOutage(site=0, start_s=0.0),))
        deg = degrade_problem(prob, sched, 1.0)
        P = np.array([1, 2, 3, 1] * 4)
        reduced = deg.from_original(P)
        assert np.all(reduced >= 0)
        np.testing.assert_array_equal(deg.to_original(reduced), P)
        dead = deg.from_original(np.zeros(16, dtype=np.int64))
        assert np.all(dead == -1)

    def test_link_degradation_scales_matrices(self):
        prob = make_problem()
        sched = FaultSchedule(
            events=(
                LinkDegradation(
                    src=0, dst=1, bandwidth_factor=0.1, latency_factor=3.0
                ),
            )
        )
        deg = degrade_problem(prob, sched, 1.0)
        assert deg.problem.num_sites == 4
        assert deg.problem.LT[0, 1] == pytest.approx(prob.LT[0, 1] * 3.0)
        assert deg.problem.BT[0, 1] == pytest.approx(prob.BT[0, 1] * 0.1)
        # Unaffected links untouched.
        assert deg.problem.LT[2, 3] == pytest.approx(prob.LT[2, 3])

    def test_outage_and_capacity_loss_drop_and_shrink_sites(self):
        prob = make_problem()
        sched = FaultSchedule(
            events=(
                SiteOutage(site=3, start_s=0.0),
                SiteCapacityLoss(site=0, fraction=0.5, start_s=0.0),
            )
        )
        deg = degrade_problem(prob, sched, 1.0)
        assert deg.alive_sites.tolist() == [0, 1, 2]
        assert deg.problem.capacities.tolist() == [4, 8, 8]

    def test_capacity_deficit_names_deficit(self):
        prob = make_problem(n=16, m=4, cap=4)  # zero slack
        sched = FaultSchedule(events=(SiteOutage(site=0, start_s=0.0),))
        with pytest.raises(InfeasibleProblemError, match="deficit: 4"):
            degrade_problem(prob, sched, 1.0)

    def test_lost_pin_error_vs_unpin(self):
        cons = np.full(16, UNCONSTRAINED, dtype=np.int64)
        cons[3] = 1
        prob = make_problem(constraints=cons)
        sched = FaultSchedule(events=(SiteOutage(site=1, start_s=0.0),))
        with pytest.raises(InfeasibleProblemError, match="pinned"):
            degrade_problem(prob, sched, 1.0, on_lost_pin="error")
        deg = degrade_problem(prob, sched, 1.0, on_lost_pin="unpin")
        assert deg.unpinned.tolist() == [3]
        assert deg.problem.constraints[3] == UNCONSTRAINED

    def test_surviving_pins_remapped(self):
        cons = np.full(16, UNCONSTRAINED, dtype=np.int64)
        cons[0] = 3
        prob = make_problem(constraints=cons)
        sched = FaultSchedule(events=(SiteOutage(site=1, start_s=0.0),))
        deg = degrade_problem(prob, sched, 1.0, on_lost_pin="unpin")
        # Original site 3 is reduced index 2 once site 1 is dropped.
        assert deg.problem.constraints[0] == 2


class TestDeterminism:
    def test_bit_identical_matrices_and_repair(self):
        """Same seed + schedule => bit-identical LT/BT and identical repair."""
        from repro.faults import random_schedule, repair_after_faults
        from repro.core import GeoDistributedMapper

        prob = make_problem(n=16, m=4, cap=8, seed=5)
        base = GeoDistributedMapper().map(prob)
        runs = []
        for _ in range(2):
            sched = random_schedule(4, seed=123, num_events=3)
            deg = degrade_problem(prob, sched, 2.0, on_lost_pin="unpin")
            out = repair_after_faults(
                prob, base.assignment, sched, at_time=2.0
            )
            runs.append((deg, out))
        (deg_a, out_a), (deg_b, out_b) = runs
        assert deg_a.problem.LT.tobytes() == deg_b.problem.LT.tobytes()
        assert deg_a.problem.BT.tobytes() == deg_b.problem.BT.tobytes()
        np.testing.assert_array_equal(out_a.assignment, out_b.assignment)
        np.testing.assert_array_equal(out_a.migrated, out_b.migrated)
        assert out_a.new_cost == out_b.new_cost
