"""End-to-end fault repair: quality, migration bounds, simulator injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GeoDistributedMapper, MappingProblem
from repro.exp.scenarios import scale_scenario
from repro.faults import (
    FaultSchedule,
    FaultyNetwork,
    LinkDegradation,
    SiteDownError,
    SiteOutage,
    degrade_problem,
    repair_after_faults,
    standard_fault_suite,
)
from repro.obs import recording
from repro.simmpi import Simulator
from repro.simmpi.network import SimNetwork


def make_problem(n=32, m=4, cap=16, seed=0):
    rng = np.random.default_rng(seed)
    cg = rng.uniform(0, 1e6, (n, n))
    np.fill_diagonal(cg, 0)
    ag = np.ceil(cg / 1e5)
    lt = rng.uniform(0.01, 0.2, (m, m))
    lt = (lt + lt.T) / 2
    np.fill_diagonal(lt, 1e-4)
    bt = rng.uniform(1e7, 1e9, (m, m))
    bt = (bt + bt.T) / 2
    np.fill_diagonal(bt, 1e10)
    return MappingProblem(
        CG=cg, AG=ag, LT=lt, BT=bt, capacities=np.full(m, cap, dtype=np.int64)
    )


class TestRepairAfterFaults:
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_outage_repair_quality_and_bound(self, seed):
        """Repair within 10% of from-scratch, migrations within budget."""
        prob = make_problem(seed=seed)
        mapper = GeoDistributedMapper()
        base = mapper.map(prob)
        loads = np.bincount(base.assignment, minlength=prob.num_sites)
        victim = int(np.argmax(loads))
        sched = FaultSchedule(events=(SiteOutage(site=victim, start_s=1.0),))
        out = repair_after_faults(prob, base.assignment, sched, at_time=2.0)
        scratch = mapper.map(
            degrade_problem(prob, sched, 2.0, on_lost_pin="unpin").problem
        )
        assert out.new_cost <= scratch.cost * 1.10
        assert out.num_migrated <= int(loads[victim]) + prob.num_processes // 10
        # The repaired assignment never uses the dead site.
        assert not np.any(out.assignment == victim)

    def test_pure_link_fault_migrates_nothing_displaced(self):
        prob = make_problem()
        base = GeoDistributedMapper().map(prob)
        sched = FaultSchedule(
            events=(LinkDegradation(src=0, dst=1, bandwidth_factor=0.5),)
        )
        out = repair_after_faults(prob, base.assignment, sched, at_time=1.0)
        assert out.result.displaced.size == 0
        # Migration (if any) comes only from the optional extra budget.
        assert out.num_migrated <= prob.num_processes // 10

    def test_zero_extra_moves_bounds_to_displaced(self):
        prob = make_problem(seed=3)
        base = GeoDistributedMapper().map(prob)
        loads = np.bincount(base.assignment, minlength=prob.num_sites)
        victim = int(np.argmax(loads))
        sched = FaultSchedule(events=(SiteOutage(site=victim, start_s=0.0),))
        out = repair_after_faults(
            prob, base.assignment, sched, at_time=1.0, extra_moves=0
        )
        assert out.num_migrated <= int(loads[victim])

    def test_standard_suite_shapes(self):
        suite = standard_fault_suite(4)
        assert set(suite) == {
            "outage", "brownout", "latency-spike", "flapping", "capacity-loss"
        }
        single = standard_fault_suite(1)
        assert set(single) == {"capacity-loss"}


class TestFaultyNetwork:
    def _net_pair(self, sched):
        prob = make_problem(n=4, m=2, cap=4)
        P = np.array([0, 0, 1, 1])
        return SimNetwork(prob, P), FaultyNetwork(prob, P, sched)

    def test_no_faults_matches_healthy(self):
        healthy, faulty = self._net_pair(FaultSchedule(events=()))
        healthy.reset()
        faulty.reset()
        assert faulty.transfer(0, 2, 1000, 0.5) == pytest.approx(
            healthy.transfer(0, 2, 1000, 0.5)
        )

    def test_transient_outage_stalls_transfer(self):
        sched = FaultSchedule(
            events=(SiteOutage(site=1, start_s=0.0, duration_s=2.0),)
        )
        healthy, faulty = self._net_pair(sched)
        healthy.reset()
        faulty.reset()
        t_healthy = healthy.transfer(0, 2, 1000, 0.5)
        t_faulty = faulty.transfer(0, 2, 1000, 0.5)
        # The transfer waits for the outage to clear at t=2.
        assert t_faulty == pytest.approx(t_healthy - 0.5 + 2.0)

    def test_permanent_outage_raises(self):
        sched = FaultSchedule(events=(SiteOutage(site=1, start_s=0.0),))
        _, faulty = self._net_pair(sched)
        faulty.reset()
        with pytest.raises(SiteDownError, match="permanently down"):
            faulty.transfer(0, 2, 1000, 0.5)

    @staticmethod
    def _traced_lu(make_net):
        """LU at 16 ranks under ``recording()``: (result, link stats)."""
        sc = scale_scenario("LU", 16, seed=0)
        P = GeoDistributedMapper(kappa=4).map(sc.problem, seed=0).assignment
        net = make_net(sc.problem, P)
        with recording():
            result = Simulator(16, sc.app.program, net).run()
        return result, net.link_stats()

    def test_no_faults_link_stats_match_healthy(self):
        _, healthy = self._traced_lu(SimNetwork)
        _, faulty = self._traced_lu(
            lambda prob, P: FaultyNetwork(prob, P, FaultSchedule(events=()))
        )
        assert healthy  # a recorder turns stats on
        assert faulty == healthy

    def test_outage_link_bytes_cover_every_transfer(self):
        sched = FaultSchedule(
            events=(SiteOutage(site=1, start_s=0.01, duration_s=0.05),)
        )
        _, healthy = self._traced_lu(SimNetwork)
        result, stats = self._traced_lu(
            lambda prob, P: FaultyNetwork(prob, P, sched)
        )
        assert sum(e["bytes"] for e in stats) == result.total_bytes
        assert sum(e["transfers"] for e in stats) == result.total_messages
        # Stall counts the outage wait on top of contention.
        stall = sum(e["stall_s"] for e in stats)
        assert stall > sum(e["stall_s"] for e in healthy)

    def test_brownout_slows_transfer(self):
        sched = FaultSchedule(
            events=(LinkDegradation(src=0, dst=1, bandwidth_factor=0.1),)
        )
        healthy, faulty = self._net_pair(sched)
        healthy.reset()
        faulty.reset()
        assert faulty.transfer(0, 2, 10_000_000, 0.0) > healthy.transfer(
            0, 2, 10_000_000, 0.0
        )
