"""Unit tests for the discrete-event simulator engine."""

import numpy as np
import pytest

from repro.core import MappingProblem
from repro.simmpi import (
    Barrier,
    Repeat,
    Compute,
    DeadlockError,
    Recv,
    Send,
    SimNetwork,
    Simulator,
    TraceRecorder,
    UniformNetwork,
)


def two_site_problem(n=4, alpha=0.1, beta=1e6):
    lt = np.array([[1e-4, alpha], [alpha, 1e-4]])
    bt = np.array([[1e9, beta], [beta, 1e9]])
    cg = np.ones((n, n))
    np.fill_diagonal(cg, 0)
    ag = cg.copy()
    return MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=[n, n])


def test_single_message_timing():
    p = two_site_problem(2)
    P = np.array([0, 1])

    def program(ctx):
        if ctx.rank == 0:
            yield Send(dst=1, nbytes=1_000_000, tag=1)
        else:
            yield Recv(src=0, tag=1)

    res = Simulator(2, program, SimNetwork(p, P)).run()
    # alpha + n/beta = 0.1 + 1.0
    assert res.makespan_s == pytest.approx(1.1)
    assert res.total_messages == 1
    assert res.total_bytes == 1_000_000


def test_compute_advances_clock_and_scale():
    def program(ctx):
        yield Compute(2.0)
        yield Compute(3.0)

    full = Simulator(1, program, UniformNetwork()).run()
    assert full.makespan_s == pytest.approx(5.0)
    comm = Simulator(1, program, UniformNetwork(), compute_scale=0.0).run()
    assert comm.makespan_s == pytest.approx(0.0)
    half = Simulator(1, program, UniformNetwork(), compute_scale=0.5).run()
    assert half.makespan_s == pytest.approx(2.5)


def test_receive_waits_for_sender_compute():
    p = two_site_problem(2)
    P = np.array([0, 1])

    def program(ctx):
        if ctx.rank == 0:
            yield Compute(5.0)
            yield Send(dst=1, nbytes=1_000_000, tag=1)
        else:
            yield Recv(src=0, tag=1)

    res = Simulator(2, program, SimNetwork(p, P)).run()
    assert res.makespan_s == pytest.approx(5.0 + 1.1)
    # The receiver waited the whole time.
    assert res.comm_wait_s == pytest.approx(6.1)


def test_fifo_ordering_per_channel():
    """Two same-tag messages must be received in send order."""
    p = two_site_problem(2, alpha=0.0 + 1e-9, beta=1e6)
    P = np.array([0, 1])
    sizes = [1_000_000, 500_000]

    def program(ctx):
        if ctx.rank == 0:
            for s in sizes:
                yield Send(dst=1, nbytes=s, tag=1)
        else:
            yield Recv(src=0, tag=1)
            yield Recv(src=0, tag=1)

    tr = TraceRecorder(2)
    res = Simulator(2, program, SimNetwork(p, P), tracer=tr).run()
    # Big message transfers first (1.0s), small second (0.5s): with link
    # serialization the second completes at ~1.5s.
    assert res.makespan_s == pytest.approx(1.5, rel=1e-3)


def test_symmetric_exchange_does_not_deadlock():
    def program(ctx):
        other = 1 - ctx.rank
        yield Send(dst=other, nbytes=100, tag=1)
        yield Recv(src=other, tag=1)

    res = Simulator(2, program, UniformNetwork()).run()
    assert res.total_messages == 2


def test_deadlock_detection():
    def program(ctx):
        yield Recv(src=1 - ctx.rank, tag=1)  # nobody ever sends

    with pytest.raises(DeadlockError, match="cannot progress"):
        Simulator(2, program, UniformNetwork()).run()


def test_barrier_synchronizes_clocks():
    def program(ctx):
        yield Compute(float(ctx.rank))
        yield Barrier()
        yield Compute(1.0)

    res = Simulator(4, program, UniformNetwork()).run()
    assert res.barriers == 1
    np.testing.assert_allclose(res.rank_times_s, 3.0 + 1.0)


def test_barrier_then_message():
    def program(ctx):
        yield Barrier()
        if ctx.rank == 0:
            yield Send(dst=1, nbytes=10, tag=1)
        elif ctx.rank == 1:
            yield Recv(src=0, tag=1)

    res = Simulator(3, program, UniformNetwork()).run()
    assert res.barriers == 1


def test_transfers_claim_links_in_time_order():
    """A transfer ready at t=0 must not queue behind transfers that only
    become ready later, regardless of rank processing order (regression
    test for the scheduling-order bug)."""
    p = two_site_problem(3, alpha=0.0 + 1e-12, beta=1e6)
    P = np.array([0, 1, 1])

    def program(ctx):
        if ctx.rank == 0:
            # Message for rank 2 available immediately...
            yield Send(dst=2, nbytes=1_000_000, tag=2)
            yield Compute(100.0)
            yield Send(dst=1, nbytes=1_000_000, tag=1)
        elif ctx.rank == 1:
            yield Recv(src=0, tag=1)
        else:
            # ...but rank 2 is processed after rank 1 in the worklist.
            yield Recv(src=0, tag=2)

    res = Simulator(3, program, SimNetwork(p, P)).run()
    # Rank 2 finishes at ~1.0 (its transfer used the idle link at t=0),
    # rank 1 at ~101.0; the bug made rank 2 finish at ~102.
    assert res.rank_times_s[2] == pytest.approx(1.0, rel=1e-3)
    assert res.rank_times_s[1] == pytest.approx(101.0, rel=1e-3)


def test_self_send_rejected():
    def program(ctx):
        yield Send(dst=ctx.rank, nbytes=1, tag=0)

    with pytest.raises(ValueError, match="itself"):
        Simulator(2, program, UniformNetwork()).run()


def test_out_of_range_peer_rejected():
    def program(ctx):
        yield Send(dst=5, nbytes=1, tag=0)

    with pytest.raises(ValueError, match="invalid rank"):
        Simulator(2, program, UniformNetwork()).run()


def test_non_operation_yield_rejected():
    def program(ctx):
        yield "hello"

    with pytest.raises(TypeError, match="not a simulator operation"):
        Simulator(1, program, UniformNetwork()).run()


class _LoudSend(Send):
    pass


class _LoudRecv(Recv):
    pass


class _LoudCompute(Compute):
    pass


class _LoudBarrier(Barrier):
    pass


class _LoudRepeat(Repeat):
    pass


def _exchange(send, recv, compute, barrier, block):
    def program(ctx):
        other = ctx.rank ^ 1
        yield compute(0.5 * (ctx.rank + 1))
        yield send(dst=other, nbytes=1000 * (ctx.rank + 1), tag=3)
        yield recv(src=other, tag=3)
        yield barrier()
        yield block((send(dst=other, nbytes=64, tag=4), recv(src=other, tag=4)), 3)
        yield recv(src=other, tag=5)

    return program


def test_operation_subclasses_run_as_their_base():
    p = two_site_problem(2)
    P = np.array([0, 1])
    runs = []
    for ops in (
        (Send, Recv, Compute, Barrier, Repeat),
        (_LoudSend, _LoudRecv, _LoudCompute, _LoudBarrier, _LoudRepeat),
    ):
        tr = TraceRecorder(2)
        with pytest.raises(DeadlockError) as info:
            Simulator(2, _exchange(*ops), SimNetwork(p, P), tracer=tr).run()
        states = info.value.rank_states
        runs.append(
            (tr.communication_matrices()[0].tolist(), tr.total_messages,
             [(s.reason, s.peer, s.tag, s.bytes_outstanding) for s in states.values()],
             states[0].last_op)
        )
    assert runs[0][:3] == runs[1][:3]
    assert runs[0][3] == "Recv(src=1, tag=5)"
    # The post-mortem names the op the program yielded, subclass and all.
    assert runs[1][3] == "_LoudRecv(src=1, tag=5)"

    def sends(ctx):
        if ctx.rank == 0:
            yield _LoudSend(dst=1, nbytes=10**6, tag=1)
        else:
            yield Recv(src=0, tag=1)

    res = Simulator(2, sends, SimNetwork(p, P)).run()
    assert res.total_messages == 1
    assert res.makespan_s == pytest.approx(1.1, rel=1e-3)


def test_ops_budget_guard():
    def program(ctx):
        while True:
            yield Compute(1.0)

    with pytest.raises(RuntimeError, match="budget"):
        Simulator(1, program, UniformNetwork(), max_ops=100).run()


def test_determinism():
    p = two_site_problem(4)
    P = np.array([0, 0, 1, 1])

    def program(ctx):
        for step in range(3):
            other = ctx.rank ^ 1
            yield Send(dst=other, nbytes=1000 * (ctx.rank + 1), tag=step)
            yield Recv(src=other, tag=step)

    a = Simulator(4, program, SimNetwork(p, P)).run()
    b = Simulator(4, program, SimNetwork(p, P)).run()
    np.testing.assert_array_equal(a.rank_times_s, b.rank_times_s)


def test_tracer_sees_every_send():
    tr = TraceRecorder(3)

    def program(ctx):
        if ctx.rank == 0:
            yield Send(dst=1, nbytes=10, tag=1)
            yield Send(dst=2, nbytes=20, tag=1)
        elif ctx.rank == 1:
            yield Recv(src=0, tag=1)
        else:
            yield Recv(src=0, tag=1)

    Simulator(3, program, UniformNetwork(), tracer=tr).run()
    cg, ag = tr.communication_matrices()
    assert cg[0, 1] == 10 and cg[0, 2] == 20
    assert ag[0, 1] == 1 and ag[0, 2] == 1


def test_constructor_validation():
    def program(ctx):
        yield Compute(0.0)

    with pytest.raises(ValueError):
        Simulator(0, program, UniformNetwork())
    with pytest.raises(ValueError):
        Simulator(1, program, UniformNetwork(), compute_scale=-1.0)
    with pytest.raises(ValueError):
        Simulator(1, program, UniformNetwork(), max_ops=0)
