"""Integration tests: the instrumented layers produce coherent traces.

These exercise the acceptance path of the observability refactor: a
mapping run under a recorder yields the four pipeline stages, the Geo
mapper hangs one ``geodist.order`` child per evaluated permutation and
surfaces its chosen order + memo statistics in ``Mapping.meta``, the
simulator emits per-site-pair link events that roll up into per-link
metrics, and robustness cells emit one span each.
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


# ------------------------------------------------------- span rollups


def test_link_bytes_rollup_matches_total_bytes(topo2):
    """Per-link bytes come out of the trace: ``aggregate_trace`` over the
    ``network.link`` events reconciles with the simulator's total."""
    from repro.apps import make_paper_app
    from repro.obs import aggregate_trace

    problem = make_problem(8, topo2, seed=3)
    app = make_paper_app("LU", 8)
    assignment = get_mapper("baseline").map(problem, seed=0).assignment
    with recording() as rec:
        result = simulate_mapping(app, problem, assignment, mode="comm")
    snap = aggregate_trace(rec.roots)
    per_link = snap.counters["link_bytes_total"]
    assert {dict(key)["src_site"] for key in per_link} == {"0", "1"}
    assert sum(per_link.values()) == result.total_bytes


def test_robustness_cells_emit_spans(topo2, topo4):
    from repro.exp import evaluate_robustness

    # The 2-site problem has infeasible cells; the 4-site one migrates.
    problems = [
        make_problem(8, topo2, seed=5),
        make_problem(16, topo4, seed=1, constraint_ratio=0.2),
    ]
    mappers = {"Greedy": get_mapper("greedy")}
    with recording() as rec:
        cells = [
            cell
            for problem in problems
            for cell in evaluate_robustness(problem, mappers, seed=0)
        ]
    assert not all(c.feasible for c in cells)
    assert sum(c.num_migrated for c in cells) > 0
    spans = [s for root in rec.roots for s in root.find_all("robustness.cell")]
    assert len(spans) == len(cells)
    assert [(s.attrs["fault"], s.attrs["mapper"]) for s in spans] == [
        (c.fault, c.mapper) for c in cells
    ]
    assert [s.attrs["feasible"] for s in spans] == [c.feasible for c in cells]
    assert sum(s.attrs.get("num_migrated", 0) for s in spans) == sum(
        c.num_migrated for c in cells
    )
