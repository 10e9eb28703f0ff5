"""Integration tests: the instrumented layers produce coherent traces.

These exercise the acceptance path of the observability refactor: a
mapping run under a recorder yields the four pipeline stages, the Geo
mapper hangs one ``geodist.order`` child per evaluated permutation and
surfaces its chosen order + memo statistics in ``Mapping.meta``, the
simulator emits per-site-pair link events, and robustness cells emit
metrics.
"""

import itertools
import math

import numpy as np
import pytest

from repro.baselines import MonteCarloMapper, SimulatedAnnealingMapper
from repro.core import GeoDistributedMapper, get_mapper
from repro.exp.runner import run_comparison, simulate_mapping
from repro.obs import recording
from tests.conftest import make_problem

PIPELINE_STAGES = ["feasibility", "solve", "validate", "cost"]


def test_mapper_map_trace_has_pipeline_stages(problem16):
    with recording() as rec:
        get_mapper("greedy").map(problem16, seed=0)
    assert [s.name for s in rec.roots] == ["mapper.map"]
    root = rec.roots[0]
    assert [c.name for c in root.children] == PIPELINE_STAGES
    assert root.attrs["mapper"] == "greedy"
    assert isinstance(root.attrs["cost"], float)
    assert root.attrs["elapsed_s"] >= 0.0
    for child in root.children:
        assert child.t_end is not None
        assert root.t_start <= child.t_start <= child.t_end <= root.t_end


def test_geodist_records_per_order_spans_and_meta(problem16):
    mapper = GeoDistributedMapper()
    with recording() as rec:
        mapping = mapper.map(problem16, seed=0)
    solve = rec.roots[0].find("solve")
    orders = solve.find_all("geodist.order")
    kappa = problem16.num_sites
    assert len(orders) == math.factorial(kappa)
    # Every evaluated permutation is recorded with its cost.
    assert {tuple(o.attrs["order"]) for o in orders} == {
        tuple(p) for p in itertools.permutations(range(kappa))
    }
    best = min(orders, key=lambda o: o.attrs["cost"])
    assert mapping.meta["chosen_order"] == best.attrs["order"]
    # Shared-prefix memoization: later orders resume a non-trivial prefix.
    assert mapping.meta["memo"]["enabled"]
    assert mapping.meta["memo"]["hits"] > 0
    assert mapping.meta["memo"]["misses"] > 0
    assert mapping.meta["orders_evaluated"] == len(orders)
    fill = mapping.meta["fill"]
    assert fill["seed_picks"] + fill["affinity_picks"] + fill["fallback_picks"] > 0


def test_annealing_and_montecarlo_meta(problem16):
    ann = SimulatedAnnealingMapper(steps=200, restarts=2).map(problem16, seed=0)
    assert ann.meta["restarts"] == 2
    assert 0 <= ann.meta["best_restart"] < 2
    assert ann.meta["proposals"] > 0
    assert (
        ann.meta["accepted_moves"] + ann.meta["accepted_swaps"]
        <= ann.meta["proposals"]
    )

    mc = MonteCarloMapper(samples=3000).map(problem16, seed=0)
    assert mc.meta["samples"] == 3000
    assert mc.meta["batches"] == 2  # 2048 + 952
    assert 0 <= mc.meta["best_sample_index"] < 3000
    assert mc.meta["best_sampled_cost"] == pytest.approx(mc.cost)


def test_simulator_emits_link_events(topo2):
    problem = make_problem(8, topo2, seed=3)
    from repro.apps import make_paper_app

    app = make_paper_app("LU", 8)
    assignment = get_mapper("baseline").map(problem, seed=0).assignment
    with recording() as rec:
        result = simulate_mapping(app, problem, assignment, mode="comm")
    run = rec.roots[0].find("simulate.run")
    assert run.attrs["makespan_s"] == pytest.approx(result.makespan_s)
    links = [e for e in run.events if e.name == "network.link"]
    assert links, "per-site-pair link events missing"
    assert sum(e.attrs["bytes"] for e in links) == result.total_bytes
    for e in links:
        assert {"src_site", "dst_site", "transfers", "bytes", "stall_s"} <= set(
            e.attrs
        )
        assert e.attrs["stall_s"] >= 0.0


def test_simulator_collects_no_link_stats_without_recorder(topo2):
    problem = make_problem(8, topo2, seed=3)
    from repro.simmpi.network import SimNetwork

    net = SimNetwork(problem, np.repeat([0, 1], 4))
    net.reset()
    net.transfer(0, 1, 100, 0.0)
    assert net.link_stats() == []  # stats off when no recorder installed


def test_run_comparison_trace_groups_by_mapper(problem16):
    from repro.apps import make_paper_app

    app = make_paper_app("LU", 16)
    mappers = {"A": get_mapper("baseline"), "B": get_mapper("greedy")}
    with recording() as rec:
        run_comparison(app, problem16, mappers, seed=0, simulate=False)
    names = [s.name for s in rec.roots]
    assert names == ["comparison.mapper", "comparison.mapper"]
    assert [s.attrs["key"] for s in rec.roots] == ["A", "B"]
    for root in rec.roots:
        assert root.find("mapper.map") is not None
        assert "cost" in root.attrs and "map_elapsed_s" in root.attrs


def test_repair_trace_stages(topo2):
    from repro.core.repair import UNPLACED, IncrementalRepairMapper

    problem = make_problem(6, topo2, seed=5)
    base = get_mapper("geo-distributed").map(problem, seed=0).assignment
    partial = base.copy()
    partial[:2] = UNPLACED
    with recording() as rec:
        result = IncrementalRepairMapper(extra_moves=1).repair(problem, partial)
    root = rec.roots[0]
    assert root.name == "repair.run"
    stages = [c.name for c in root.children]
    assert stages == [
        "repair.evict", "repair.place", "repair.polish", "repair.global_polish",
    ]
    assert root.attrs["num_migrated"] == result.num_migrated
    assert result.mapping.meta["polish_rounds"] >= 1
    assert result.mapping.meta["evicted"] == 0


# ---------------------------------------------------------------- metrics


def test_mapper_emits_metrics_without_a_recorder(problem16):
    from repro.obs import collecting_metrics

    with collecting_metrics() as metrics:
        mapping = get_mapper("greedy").map(problem16, seed=0)
    snap = metrics.snapshot()
    n, m = problem16.num_processes, problem16.num_sites
    assert snap.counter_value("mapper_runs_total", mapper="greedy", n=n, m=m) == 1.0
    hist = snap.histogram_value("mapper_map_seconds", mapper="greedy")
    assert hist is not None and hist.count == 1
    assert snap.gauge_value("mapper_last_cost", mapper="greedy") == pytest.approx(
        mapping.cost
    )


def test_simulator_emits_metrics_without_a_recorder(topo2):
    from repro.obs import collecting_metrics

    problem = make_problem(8, topo2, seed=3)
    from repro.apps import make_paper_app

    app = make_paper_app("LU", 8)
    assignment = get_mapper("baseline").map(problem, seed=0).assignment
    with collecting_metrics() as metrics:
        result = simulate_mapping(app, problem, assignment, mode="comm")
    snap = metrics.snapshot()
    assert snap.counter_total("sim_runs_total") == 1.0
    assert snap.counter_total("sim_bytes_total") == result.total_bytes
    # Per-link counters reconcile with the aggregate byte count: link
    # stats collection turns on for metrics alone (no recorder).
    assert snap.counter_total("sim_link_bytes_total") == result.total_bytes
    assert snap.histogram_value("sim_makespan_seconds").count == 1


def test_robustness_cells_emit_metrics(topo2):
    from repro.exp import evaluate_robustness
    from repro.obs import collecting_metrics

    problem = make_problem(8, topo2, seed=5)
    mappers = {"Greedy": get_mapper("greedy")}
    with collecting_metrics() as metrics:
        cells = evaluate_robustness(problem, mappers, seed=0)
    snap = metrics.snapshot()
    feasible = sum(1 for c in cells if c.feasible)
    infeasible = len(cells) - feasible
    total = snap.counter_total("robustness_cells_total")
    assert total == len(cells)
    by_feasible = sum(
        v
        for key, v in snap.counters["robustness_cells_total"].items()
        if ("feasible", "True") in key
    )
    assert by_feasible == feasible
    if feasible:
        assert snap.counter_total("robustness_migrations_total") == sum(
            c.num_migrated for c in cells if c.feasible
        )
    assert infeasible == total - by_feasible


def test_metrics_off_by_default_costs_nothing(problem16):
    from repro.obs import NULL_METRICS, get_metrics

    assert get_metrics() is NULL_METRICS
    mapping = get_mapper("greedy").map(problem16, seed=0)
    # Nothing installed, nothing recorded, answer unaffected.
    assert get_metrics().snapshot().empty
    assert mapping.cost >= 0.0
