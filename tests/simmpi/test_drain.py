"""The profiling drain records what a simulated run records.

The oracle is the simulator itself: a comm-only run on the uniform
network with a recorder that sees every message one by one.  The drain
must give the same matrices, CSR arrays, totals and pair counts for
every application, and reject bad programs with the exceptions the
simulator raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    PAPER_APPS,
    Application,
    RandomSparseApp,
    RingApp,
    StencilApp,
    UniformApp,
)
from repro.exp.scenarios import scale_app
from repro.simmpi import Simulator, TraceRecorder, UniformNetwork
from repro.simmpi import engine
from repro.simmpi.engine import DeadlockError, drain
from repro.simmpi.ops import Barrier, Compute, Recv, Repeat, Send

SIZES = (1, 2, 7, 64)
SYNTHETIC = {
    "ring": RingApp,
    "stencil": StencilApp,
    "random-sparse": RandomSparseApp,
    "uniform": UniformApp,
}


def _make(name: str, n: int) -> Application:
    if name in SYNTHETIC:
        return SYNTHETIC[name](n)
    return scale_app(name, n)


def _simulated(app: Application) -> TraceRecorder:
    recorder = TraceRecorder(app.num_ranks)
    Simulator(
        app.num_ranks,
        app.program,
        UniformNetwork(),
        compute_scale=0.0,
        tracer=recorder,
    ).run()
    return recorder


def _csr_arrays(recorder: TraceRecorder) -> list[np.ndarray]:
    cg, ag = recorder.communication_matrices(dense_limit=1)
    return [a for m in (cg, ag) for a in (m.data, m.indices, m.indptr)]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", PAPER_APPS + tuple(SYNTHETIC))
def test_drain_matches_simulated_profile(name, n):
    app = _make(name, n)
    cg, ag, drained = app.profile()
    oracle = _simulated(app)
    want_cg, want_ag = oracle.communication_matrices()
    np.testing.assert_array_equal(cg, want_cg)
    np.testing.assert_array_equal(ag, want_ag)
    assert drained.total_messages == oracle.total_messages
    assert drained.total_bytes == oracle.total_bytes
    assert drained.nonzero_pairs() == oracle.nonzero_pairs()
    for got, want in zip(_csr_arrays(drained), _csr_arrays(oracle)):
        np.testing.assert_array_equal(got, want)


class _ProgramApp(Application):
    """An application running a given program function."""

    name = "test-program"

    def __init__(self, num_ranks, program) -> None:
        super().__init__(num_ranks)
        self._program = program

    def program(self, ctx):
        return self._program(ctx)


def _self_send(ctx):
    yield Send(dst=ctx.rank, nbytes=8)


def _self_recv(ctx):
    yield Recv(src=ctx.rank)


def _send_out_of_range(ctx):
    if ctx.rank == 1:
        yield Send(dst=ctx.size, nbytes=8)


def _recv_out_of_range(ctx):
    if ctx.rank == 1:
        yield Recv(src=ctx.size + 3, tag=2)


def _not_an_op(ctx):
    yield Compute(0.1)
    if ctx.rank == 2:
        yield "send 8 bytes"


def _unanswered_recv(ctx):
    if ctx.rank == 0:
        yield Send(dst=1, nbytes=100, tag=5)
    elif ctx.rank == 1:
        yield Recv(src=0, tag=5)
        yield Recv(src=0, tag=5)


BAD_PROGRAMS = {
    "self-send": (_self_send, ValueError),
    "self-recv": (_self_recv, ValueError),
    "dst-out-of-range": (_send_out_of_range, ValueError),
    "src-out-of-range": (_recv_out_of_range, ValueError),
    "not-an-op": (_not_an_op, TypeError),
    "recv-without-send": (_unanswered_recv, DeadlockError),
}


@pytest.mark.parametrize("case", sorted(BAD_PROGRAMS))
def test_bad_program_fails_alike_in_profile_and_simulation(case):
    program, exc = BAD_PROGRAMS[case]
    with pytest.raises(exc) as simulated:
        Simulator(3, program, UniformNetwork()).run()
    with pytest.raises(exc) as profiled:
        _ProgramApp(3, program).profile()
    assert type(profiled.value) is type(simulated.value)
    if exc is not DeadlockError:
        assert str(profiled.value) == str(simulated.value)


def test_deadlock_names_the_starved_channel():
    with pytest.raises(DeadlockError, match="rank 1 waits on 1 more messages from rank 0 tag 5") as err:
        _ProgramApp(3, _unanswered_recv).profile()
    assert err.value.rank_states == {}


def test_surplus_sends_are_accepted_and_recorded():
    def program(ctx):
        if ctx.rank == 0:
            yield Send(dst=1, nbytes=10, tag=1)
            yield Send(dst=1, nbytes=20, tag=1)
        else:
            yield Recv(src=0, tag=1)

    Simulator(2, program, UniformNetwork()).run()
    cg, ag, rec = _ProgramApp(2, program).profile()
    assert cg[0, 1] == 30 and ag[0, 1] == 2
    assert rec.total_messages == 2


def test_ordering_deadlock_is_not_detected_by_a_profile():
    """Deliberate gap: counts balance, so the drain accepts the program;
    only the simulator sees that both ranks receive first."""

    def program(ctx):
        peer = 1 - ctx.rank
        yield Recv(src=peer, tag=3)
        yield Send(dst=peer, nbytes=64, tag=3)

    cg, _, _ = _ProgramApp(2, program).profile()
    assert cg[0, 1] == cg[1, 0] == 64
    with pytest.raises(DeadlockError):
        Simulator(2, program, UniformNetwork()).run()


def test_barriers_do_not_change_the_profile():
    def program(ctx):
        yield Barrier()
        yield Send(dst=(ctx.rank + 1) % ctx.size, nbytes=16)
        yield Barrier()
        yield Recv(src=(ctx.rank - 1) % ctx.size)

    cg, ag, rec = _ProgramApp(4, program).profile()
    oracle = _simulated(_ProgramApp(4, program))
    want_cg, want_ag = oracle.communication_matrices()
    np.testing.assert_array_equal(cg, want_cg)
    np.testing.assert_array_equal(ag, want_ag)
    assert rec.total_messages == oracle.total_messages == 4
    assert cg.sum() == 64


def _ops(k):
    def program(ctx):
        for _ in range(k):
            yield Compute(0.0)

    return program


def _folded_ops(k):
    """``_ops(k)`` with its loop declared as data (k = 5)."""
    assert k == 5

    def program(ctx):
        yield Compute(0.0)
        yield Repeat((Compute(0.0), Compute(0.0)), 2)
        yield Repeat((Compute(0.0),), 0)
        yield Repeat((), 3)

    return program


def test_operation_budget_is_counted_alike(monkeypatch):
    """n ranks of k ops spend n * (k + 1) steps in both engines, whether
    the ops are yielded one by one or as ``Repeat`` items, which spend
    nothing themselves."""
    n, k = 3, 5
    budget = n * (k + 1)
    for make in (_ops, _folded_ops):
        monkeypatch.setattr(engine, "MAX_OPS", budget)
        Simulator(n, make(k), UniformNetwork(), max_ops=budget).run()
        drain(n, make(k), TraceRecorder(n))
        monkeypatch.setattr(engine, "MAX_OPS", budget - 1)
        with pytest.raises(RuntimeError) as simulated:
            Simulator(n, make(k), UniformNetwork(), max_ops=budget - 1).run()
        with pytest.raises(RuntimeError) as drained:
            drain(n, make(k), TraceRecorder(n))
        assert str(drained.value) == str(simulated.value)


def test_drain_rejects_bad_arguments():
    with pytest.raises(ValueError, match="num_ranks"):
        drain(0, _ops(1), TraceRecorder(1))
