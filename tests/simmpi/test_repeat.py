"""A program that declares its loops as ``Repeat`` means its unrolled form.

The oracle is the same program expanded by :func:`repro.simmpi.ops.unroll`.
Random programs mix primitive ops with ``Repeat`` blocks (counts of 0, 1
and many, barriers inside blocks, an op object held twice by one body,
one block object shared by every rank), and may be broken on purpose: a
dropped send, a self or out-of-range peer, a tight op budget.  Folded
and unrolled, each must give the same profile (drain) and the same
simulated run, down to the bit, or fail with the same error.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import BTApp, SPApp
from repro.core import MappingProblem
from repro.simmpi import SimNetwork, Simulator, TraceRecorder
from repro.simmpi import engine
from repro.simmpi.engine import drain
from repro.simmpi.ops import Barrier, Compute, Recv, Repeat, Send, unroll

# ------------------------------------------------------------------ the op


def test_repeat_stores_a_tuple_and_accepts_empty_loops():
    body = [Send(dst=1, nbytes=8), Recv(src=1)]
    block = Repeat(body, 3)
    assert block.ops == tuple(body)
    assert Repeat((), 2).ops == ()
    assert Repeat(body, 0).count == 0
    assert Repeat(body, np.int64(4)).count == 4


@pytest.mark.parametrize(
    "ops, count, exc, match",
    [
        ((Repeat((Compute(0.0),), 2),), 1, TypeError, "another Repeat"),
        ((Compute(0.0), "send 8 bytes"), 1, TypeError, "not an operation"),
        ((Compute(0.0),), -1, ValueError, "count must be >= 0"),
        ((Compute(0.0),), 2.0, TypeError, "integer"),
    ],
)
def test_repeat_rejects_bad_bodies_and_counts(ops, count, exc, match):
    with pytest.raises(exc, match=match):
        Repeat(ops, count)


def test_unroll_expands_loops_in_order():
    a, b, c = Compute(1.0), Send(dst=1, nbytes=8), Recv(src=1)
    program = [a, Repeat((b, c), 2), Repeat((a,), 0), Repeat((), 5), c]
    assert list(unroll(program)) == [a, b, c, b, c, c]


# ---------------------------------------------------------- random programs


def _lower(steps, n):
    """Per-rank op lists of a step list; in global order nothing blocks."""
    bodies = [[] for _ in range(n)]
    for step in steps:
        if step[0] == "msg":
            _, src, dst, nbytes, tag = step
            bodies[src].append(Send(dst=dst, nbytes=nbytes, tag=tag))
            bodies[dst].append(Recv(src=src, tag=tag))
        elif step[0] == "compute":
            bodies[step[1]].append(Compute(step[2]))
        else:
            for body in bodies:
                body.append(Barrier())
    return bodies


def _steps(n):
    msg = st.tuples(
        st.just("msg"),
        st.integers(0, n - 1),
        st.integers(1, n - 1),
        st.integers(1, 5000),
        st.integers(0, 2),
    ).map(lambda t: ("msg", t[1], (t[1] + t[2]) % n, t[3], t[4]))
    compute = st.tuples(
        st.just("compute"), st.integers(0, n - 1), st.sampled_from([0.0, 1e-4, 3e-3])
    )
    return st.lists(
        st.one_of(msg, msg, compute, st.just(("barrier",))), max_size=5
    )


def _break(draw, programs, n):
    """Break one rank's program: drop a send or give an op a bad peer."""
    how = draw(st.sampled_from(["drop", "self", "range"]))
    rank = draw(st.integers(0, n - 1))
    items = programs[rank]
    if not items:
        return
    at = draw(st.integers(0, len(items) - 1))
    item = items[at]
    body = list(item.ops) if isinstance(item, Repeat) else [item]
    if not body:
        return
    pos = draw(st.integers(0, len(body) - 1))
    if how == "drop":
        if not isinstance(body[pos], Send):
            return
        del body[pos]
    else:
        body[pos] = Send(dst=rank if how == "self" else n + 1, nbytes=8)
    if isinstance(item, Repeat):
        items[at] = Repeat(body, item.count)
    else:
        items[at : at + 1] = body


@st.composite
def folded_programs(draw):
    n = draw(st.integers(2, 4))
    programs = [[] for _ in range(n)]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["plain", "repeat", "repeat", "shared"]))
        count = draw(st.sampled_from([0, 1, 2, 3, 7]))
        if kind == "shared":
            # One block object yielded by every rank.
            body = draw(
                st.sampled_from(
                    [(Compute(2e-3),), (Compute(1e-3), Barrier()), (Barrier(),), ()]
                )
            )
            block = Repeat(body, count)
            for items in programs:
                items.append(block)
            continue
        bodies = _lower(draw(_steps(n)), n)
        if kind == "plain":
            for items, body in zip(programs, bodies):
                items.extend(body)
            continue
        # Holding the body twice repeats its op objects within one pass.
        twice = draw(st.booleans())
        for items, body in zip(programs, bodies):
            items.append(Repeat(tuple(body) * (2 if twice else 1), count))
    if draw(st.booleans()):
        _break(draw, programs, n)
    length = sum(1 for items in programs for _ in unroll(items)) + n
    max_ops = draw(st.one_of(st.none(), st.integers(1, length + 1)))
    seed = draw(st.integers(0, 10_000))
    return n, programs, max_ops, seed


def _failure(exc):
    states = sorted(getattr(exc, "rank_states", {}).items())
    return (type(exc).__name__, str(exc), repr(states))


def _profile(n, program, max_ops):
    recorder = TraceRecorder(n)
    try:
        with mock.patch.object(engine, "MAX_OPS", max_ops or engine.MAX_OPS):
            drain(n, program, recorder)
    except (ValueError, TypeError, RuntimeError) as exc:
        return _failure(exc)
    cg, ag = recorder.communication_matrices()
    csr = recorder.communication_matrices(dense_limit=1)
    return (
        cg.tobytes(),
        ag.tobytes(),
        [(m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes()) for m in csr],
        recorder.total_messages,
        recorder.total_bytes,
        recorder.nonzero_pairs(),
    )


def _problem(n, seed):
    rng = np.random.default_rng(seed)
    m = 3
    return MappingProblem(
        CG=np.ones((n, n)) - np.eye(n),
        AG=np.ones((n, n)) - np.eye(n),
        LT=rng.uniform(1e-4, 1e-2, size=(m, m)),
        BT=rng.uniform(1e6, 1e8, size=(m, m)),
        capacities=np.full(m, n),
    ), rng.integers(0, m, size=n)


def _simulate(n, program, max_ops, seed):
    problem, assignment = _problem(n, seed)
    net = SimNetwork(problem, assignment, collect_stats=True)
    kwargs = {} if max_ops is None else {"max_ops": max_ops}
    try:
        result = Simulator(n, program, net, **kwargs).run()
    except (ValueError, TypeError, RuntimeError) as exc:
        return _failure(exc)
    return (
        float(result.makespan_s).hex(),
        result.rank_times_s.tobytes(),
        float(result.comm_wait_s).hex(),
        result.total_messages,
        result.total_bytes,
        result.barriers,
        net.link_stats(),
    )


@settings(max_examples=150, deadline=None)
@given(folded_programs())
def test_folded_program_profiles_like_its_unrolled_form(case):
    n, programs, max_ops, _ = case

    def folded(ctx):
        return iter(programs[ctx.rank])

    def unrolled(ctx):
        return unroll(programs[ctx.rank])

    assert _profile(n, folded, max_ops) == _profile(n, unrolled, max_ops)


@settings(max_examples=150, deadline=None)
@given(folded_programs())
def test_folded_program_simulates_like_its_unrolled_form(case):
    n, programs, max_ops, seed = case

    def folded(ctx):
        return iter(programs[ctx.rank])

    def unrolled(ctx):
        return unroll(programs[ctx.rank])

    assert _simulate(n, folded, max_ops, seed) == _simulate(n, unrolled, max_ops, seed)


def _block_with(bad, count):
    def program(ctx):
        yield Send(dst=(ctx.rank + 1) % ctx.size, nbytes=16, tag=4)
        yield Repeat(
            (Recv(src=(ctx.rank - 1) % ctx.size, tag=4), Compute(0.0), bad(ctx),
             Send(dst=(ctx.rank + 1) % ctx.size, nbytes=16, tag=4)),
            count,
        )
        yield Recv(src=(ctx.rank - 1) % ctx.size, tag=4)

    return program


BAD_OPS = {
    "self-send": lambda ctx: Send(dst=ctx.rank, nbytes=8),
    "self-recv": lambda ctx: Recv(src=ctx.rank),
    "dst-out-of-range": lambda ctx: Send(dst=ctx.size, nbytes=8),
    "src-out-of-range": lambda ctx: Recv(src=ctx.size + 2),
}


@pytest.mark.parametrize("count", [0, 1, 4])
@pytest.mark.parametrize("case", sorted(BAD_OPS))
def test_bad_op_inside_a_block_fails_as_unrolled(case, count):
    folded = _block_with(BAD_OPS[case], count)

    def unrolled(ctx):
        return unroll(folded(ctx))

    for budget in (None, 2, 3, 4):
        assert _profile(3, folded, budget) == _profile(3, unrolled, budget)
        assert _simulate(3, folded, budget, 0) == _simulate(3, unrolled, budget, 0)
    if count:
        assert _profile(3, folded, None)[0] == "ValueError"


# ---------------------------------------------------------- drain work


class _CountingTracer:
    def __init__(self) -> None:
        self.calls = 0
        self.messages = 0

    def record(self, src, dst, nbytes, tag, times=1):
        self.calls += 1
        self.messages += times


@pytest.mark.parametrize("app_cls, messages", [(BTApp, 200 * 10), (SPApp, 400 * 14)])
def test_profiling_records_each_distinct_send_once(app_cls, messages):
    """At 64 ranks (8 x 8) a BT or SP body holds 4 distinct face sends
    plus 6 allreduce sends; SP holds its face sends twice.  The drain
    records each distinct send once per rank, whatever the iteration
    count, while the messages still add up to every iteration's."""
    app = app_cls(64)
    tracer = _CountingTracer()
    drain(64, app.program, tracer)
    assert tracer.calls == 64 * 10
    assert tracer.messages == 64 * messages
    unrolled = _CountingTracer()
    drain(64, lambda ctx: unroll(app.program(ctx)), unrolled)
    assert unrolled.calls == unrolled.messages == tracer.messages
