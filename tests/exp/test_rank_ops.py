"""Simulation from each app's rank op tuples, built once per app.

``simulate_mapping`` runs every rank from ``Application.rank_ops()``;
these tests pin that such a run is the run a ``Simulator`` fed the
program generators gives, that the tuples are built once, and that
building them keeps the drain's op budget.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import repro.simmpi.engine as engine
from repro.apps import PAPER_APPS, RandomSparseApp, RingApp, StencilApp, UniformApp
from repro.apps.base import Application
from repro.baselines import RandomMapper
from repro.exp import build_problem, simulate_mapping
from repro.exp.scenarios import scale_scenario
from repro.faults import FaultSchedule, FaultyNetwork
from repro.faults.events import LinkDegradation, SiteOutage
from repro.simmpi import SimNetwork, Simulator, UniformNetwork
from repro.simmpi.engine import RankContext, build_rank_ops, drain
from repro.simmpi.ops import Compute, Recv, Repeat, Send, unroll
from repro.simmpi.tracing import TraceRecorder

RANKS = 32

SYNTHETIC = {
    "ring": lambda: RingApp(RANKS, iterations=3, compute=0.01),
    "stencil": lambda: StencilApp(RANKS, iterations=3),
    "random-sparse": lambda: RandomSparseApp(RANKS, iterations=3),
    "uniform": lambda: UniformApp(RANKS, iterations=2),
}
APPS = [*PAPER_APPS, *SYNTHETIC]

_cases: dict[str, tuple] = {}


def _case(name: str):
    """(app, problem, assignment) for one app, built once per session."""
    if name not in _cases:
        if name in SYNTHETIC:
            from repro.cloud import paper_topology

            app = SYNTHETIC[name]()
            problem = build_problem(app, paper_topology(seed=0), seed=0)
        else:
            sc = scale_scenario(name, RANKS, seed=0)
            app, problem = sc.app, sc.problem
        assignment = RandomMapper().map(problem, seed=0).assignment
        _cases[name] = (app, problem, assignment)
    return _cases[name]


def _fields(result) -> tuple:
    return (
        float(result.makespan_s).hex(),
        result.rank_times_s.tobytes(),
        result.total_messages,
        result.total_bytes,
        float(result.comm_wait_s).hex(),
        result.barriers,
    )


def _run(app: Application, network, program, compute_scale: float):
    result = Simulator(
        app.num_ranks, program, network, compute_scale=compute_scale
    ).run()
    return _fields(result), network.link_stats()


def _from_tuples(app: Application):
    ops = app.rank_ops()
    return lambda ctx: ops[ctx.rank]


@pytest.mark.parametrize("contention", [True, False])
@pytest.mark.parametrize("mode", ["full", "comm"])
@pytest.mark.parametrize("name", APPS)
def test_tuples_run_as_the_program_runs(name, mode, contention):
    app, problem, assignment = _case(name)
    scale = 1.0 if mode == "full" else 0.0

    def network():
        return SimNetwork(problem, assignment, contention=contention, collect_stats=True)

    want = _run(app, network(), app.program, scale)
    assert _run(app, network(), _from_tuples(app), scale) == want
    assert want[1], "link stats were not collected"
    got = simulate_mapping(app, problem, assignment, mode=mode, contention=contention)
    assert _fields(got) == want[0]


@pytest.mark.parametrize("name", APPS)
def test_tuples_run_as_the_program_runs_on_a_faulty_network(name):
    app, problem, assignment = _case(name)
    schedule = FaultSchedule(
        events=(
            SiteOutage(site=1, start_s=0.001, duration_s=0.05),
            LinkDegradation(
                src=0, dst=2, start_s=0.0, duration_s=1.0,
                bandwidth_factor=0.25, latency_factor=3.0,
            ),
        )
    )

    def network():
        net = FaultyNetwork(problem, assignment, schedule)
        net.collect_stats = True
        return net

    want = _run(app, network(), app.program, 1.0)
    assert _run(app, network(), _from_tuples(app), 1.0) == want
    assert want[1], "link stats were not collected"


def test_two_simulations_run_each_program_once(topo4):
    app = RingApp(16, iterations=2)
    problem = build_problem(app, topo4, constraint_ratio=0.0)
    assignment = RandomMapper().map(problem, seed=0).assignment
    calls = []
    program = app.program

    def counting(ctx: RankContext):
        calls.append(ctx.rank)
        return program(ctx)

    app.program = counting
    first = simulate_mapping(app, problem, assignment, mode="full")
    second = simulate_mapping(app, problem, assignment, mode="full")
    assert sorted(calls) == list(range(16))
    assert _fields(first) == _fields(second)
    assert app.rank_ops() is app.rank_ops()


def test_profiling_does_not_build_the_tuples():
    app = RingApp(8, iterations=2)
    app.communication_matrices()
    assert app._ops_cache is None


class _Runaway(Application):
    name = "runaway"

    def program(self, ctx):
        while True:
            yield Compute(0.0)


class _HugeLoop(Application):
    name = "huge-loop"

    def program(self, ctx):
        yield Repeat((Compute(0.0),), 10**15)


@pytest.mark.parametrize("cls", [_Runaway, _HugeLoop])
def test_runaway_app_spends_the_budget_through_simulate_mapping(monkeypatch, topo4, cls):
    monkeypatch.setattr(engine, "MAX_OPS", 1000)
    problem = build_problem(RingApp(4, iterations=1), topo4, constraint_ratio=0.0)
    assignment = np.zeros(4, dtype=np.int64)
    with pytest.raises(RuntimeError, match=r"operation budget \(1000\) exhausted"):
        simulate_mapping(cls(4), problem, assignment)


@pytest.mark.parametrize("name", ["LU", "K-means", "ring"])
def test_building_counts_the_budget_as_the_drain_does(monkeypatch, name):
    app = _case(name)[0]
    n = app.num_ranks
    # One step per primitive op, loops unrolled, plus one per finished rank.
    cost = sum(
        sum(1 for _ in unroll(app.program(RankContext(rank=r, size=n)))) + 1
        for r in range(n)
    )
    monkeypatch.setattr(engine, "MAX_OPS", cost)
    drain(n, app.program, TraceRecorder(n))
    build_rank_ops(n, app.program)
    monkeypatch.setattr(engine, "MAX_OPS", cost - 1)
    for run in (
        lambda: drain(n, app.program, TraceRecorder(n)),
        lambda: build_rank_ops(n, app.program),
    ):
        with pytest.raises(RuntimeError, match="operation budget"):
            run()


def test_tuples_hold_what_each_rank_yields():
    app = _case("SP")[0]
    ops = app.rank_ops()
    assert len(ops) == app.num_ranks
    for rank in (0, app.num_ranks - 1):
        ctx = RankContext(rank=rank, size=app.num_ranks)
        mine, theirs = ops[rank], tuple(app.program(ctx))
        assert all(
            type(a) is type(b) and a == b
            for a, b in itertools.zip_longest(mine, theirs)
        )


def test_items_are_checked_when_reached_not_when_built():
    def program(ctx):
        if ctx.rank == 0:
            yield Send(dst=0, nbytes=8)
        else:
            yield Recv(src=0)

    ops = build_rank_ops(2, program)
    assert ops == ((Send(dst=0, nbytes=8),), (Recv(src=0),))
    with pytest.raises(ValueError, match="attempted to send to itself"):
        Simulator(2, lambda ctx: ops[ctx.rank], UniformNetwork()).run()
    with pytest.raises(ValueError, match="num_ranks must be positive"):
        build_rank_ops(0, program)
