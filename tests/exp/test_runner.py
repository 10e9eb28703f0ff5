"""Unit tests for the experiment runner."""

import math

import pytest

from repro.apps import RingApp
from repro.baselines import RandomMapper
from repro.core import GeoDistributedMapper
from repro.exp import build_problem, run_comparison, simulate_mapping


def test_build_problem_profiles_and_constrains(topo4):
    app = RingApp(64, iterations=2)
    p = build_problem(app, topo4, constraint_ratio=0.25, seed=0)
    assert p.num_processes == 64
    assert p.num_constrained == 16
    assert p.CG.sum() > 0


def test_build_problem_zero_ratio_unconstrained(topo4):
    app = RingApp(16, iterations=1)
    p = build_problem(app, topo4, constraint_ratio=0.0)
    assert p.num_constrained == 0


def test_build_problem_rejects_oversubscription(topo2):
    app = RingApp(100, iterations=1)
    with pytest.raises(ValueError, match="nodes for"):
        build_problem(app, topo2)


def test_simulate_modes_differ_with_compute(topo4):
    app = RingApp(16, iterations=3, compute=1.0)
    p = build_problem(app, topo4, constraint_ratio=0.0)
    P = RandomMapper().map(p, seed=0).assignment
    full = simulate_mapping(app, p, P, mode="full")
    comm = simulate_mapping(app, p, P, mode="comm")
    assert full.makespan_s > comm.makespan_s
    with pytest.raises(ValueError, match="mode"):
        simulate_mapping(app, p, P, mode="wat")


def test_run_comparison_returns_all_mappers(topo4):
    app = RingApp(16, iterations=2)
    p = build_problem(app, topo4, seed=1)
    mappers = {"Baseline": RandomMapper(), "Geo": GeoDistributedMapper()}
    out = run_comparison(app, p, mappers, seed=0)
    assert set(out) == {"Baseline", "Geo"}
    for r in out.values():
        assert r.total_time_s > 0
        assert r.comm_time_s > 0
        assert r.total_time_s >= r.comm_time_s * 0.99


def test_run_comparison_without_simulation(topo4):
    app = RingApp(16, iterations=2)
    p = build_problem(app, topo4, seed=1)
    out = run_comparison(app, p, {"Baseline": RandomMapper()}, simulate=False)
    r = out["Baseline"]
    assert math.isnan(r.total_time_s) and math.isnan(r.comm_time_s)
    assert r.mapping.cost > 0
    assert r.mapper == "baseline"


def test_build_problem_span_says_whether_profile_was_cached(topo4):
    from repro.obs import recording

    app = RingApp(16, iterations=1)
    with recording() as rec:
        build_problem(app, topo4)
        build_problem(app, topo4)
    assert [s.attrs["profile_cached"] for s in rec.roots] == [False, True]
