"""The discrete-event simulator driving simulated MPI programs.

Each rank runs a stream of :mod:`repro.simmpi.ops` operations: its
program's generator, or a tuple of what that generator yields (see
below).  The engine advances ranks until they block (on a receive or a
barrier), matches messages FIFO per ``(src, dst, tag)`` channel, and
executes matched transfers **in global ready-time order** through the
network model, so link serialization reflects simulated time rather than
scheduling order.  Makespan and communication statistics are reported at
the end.

Semantics (see :mod:`repro.simmpi.ops`): eager sends, blocking receives,
ideal barriers.  Execution is fully deterministic for a fixed program —
ranks are advanced in a fixed worklist order, channel queues are FIFO,
and ties in the transfer heap break on a monotonically increasing
sequence number — so simulated results are exactly reproducible.

The event loop runs once per operation, so it is kept lean: hot names
are bound to locals, an op is dispatched on its exact class (a subclass
falls back to ``isinstance`` after the chain), a channel queue is
allocated only when its key is new, and a completed transfer wakes its
receiver directly.  The network models answer ``transfer`` from
Python-list snapshots of the mapping and the LT/BT tables (see
:mod:`repro.simmpi.network`), so every rank clock stays a Python float
and the loop never falls into numpy-scalar arithmetic; the values are
the same IEEE doubles either way.

:func:`drain` is the engine's timeless twin for profiling: it runs each
rank's program to exhaustion, rank by rank, and hands every send to a
tracer, with no event loop, heap or network.  Programs cannot observe
time or received data (the engine only ever calls ``next`` on them), so
each rank's send stream is the same under any interleaving, and the
drain leaves a tracer the per-pair sums and totals a simulated run
leaves it.

A program may yield a :class:`~repro.simmpi.ops.Repeat` (a loop
declared as data).  The drain visits each op of its body once and
weights the send records, the op budget and the channel balance by the
count; the simulator walks the body from a per-rank cursor (an
``itertools`` chain over the body ``count`` times) instead of taking
every op from the rank's stream.  Either way a folded program and its
unrolled form are indistinguishable: the ``Repeat`` item itself spends
no budget.

Profiling drains the program generators themselves.  Simulation reads
each rank's ops built once per application: :func:`build_rank_ops` runs
every program to its end and keeps what each rank yields as a tuple
(see :meth:`~repro.apps.base.Application.rank_ops`), so a later run of
the same application object reuses those op objects.  Since programs
cannot observe time, a simulator fed the tuples runs exactly as one
fed the programs.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from itertools import chain, repeat
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol

import numpy as np

from .ops import Barrier, Compute, Operation, Recv, Repeat, Send

__all__ = [
    "RankContext",
    "Simulator",
    "SimResult",
    "DeadlockError",
    "RankBlockState",
    "Program",
]

#: Cap on interpreted operations: the simulator's default and the drain's budget.
MAX_OPS = 50_000_000


@dataclass(frozen=True, slots=True)
class RankBlockState:
    """Post-mortem of one blocked rank at deadlock time.

    Attributes
    ----------
    rank:
        The blocked rank.
    reason:
        ``"barrier"`` (waiting in a barrier) or ``"recv"`` (blocked on an
        unmatched receive).
    last_op:
        ``repr`` of the last operation the engine interpreted for this
        rank, or ``None`` if it blocked before yielding anything.
    peer / tag:
        For ``"recv"``, the sender rank and message tag the receive is
        waiting on; ``None`` for barriers.
    bytes_outstanding:
        Bytes this rank has sent that no receiver has matched yet — the
        traffic stuck in its outgoing channels.
    """

    rank: int
    reason: str
    last_op: str | None
    peer: int | None
    tag: int | None
    bytes_outstanding: int


class DeadlockError(RuntimeError):
    """No rank can make progress but the program has not finished.

    When the simulator raises it, ``rank_states`` carries the per-rank
    post-mortem (a dict mapping each blocked rank to its
    :class:`RankBlockState`), so callers can diagnose mismatched
    sends/receives programmatically instead of parsing the message.
    When :func:`drain` raises it, ``rank_states`` is empty: no rank ever
    blocks there, and the message names the starved channel instead.
    """

    def __init__(
        self,
        message: str,
        rank_states: dict[int, RankBlockState] | None = None,
    ) -> None:
        super().__init__(message)
        self.rank_states: dict[int, RankBlockState] = dict(rank_states or {})


@dataclass(frozen=True, slots=True)
class RankContext:
    """What a simulated program knows about its execution environment."""

    rank: int
    size: int


Program = Callable[[RankContext], Iterable[Operation | Repeat]]


class Tracer(Protocol):
    """Message-stream observer (see :mod:`repro.simmpi.tracing`).

    ``record`` observes ``times`` identical messages.  The simulator
    passes 1, once per message, and so does the drain outside a
    ``Repeat``; inside one, the drain calls once per distinct send and
    passes the count times the send's multiplicity in the body.
    A tracer that sums per pair ends with the same sums and totals
    either way; the order and grouping of the calls differ.
    """

    def record(self, src: int, dst: int, nbytes: int, tag: int, times: int = 1) -> None: ...


def _budget_error(max_ops: int) -> RuntimeError:
    return RuntimeError(
        f"operation budget ({max_ops}) exhausted; "
        "the simulated program is likely non-terminating"
    )


def _peer_error(rank: int, peer: int, n: int, *, send: bool) -> ValueError:
    if peer == rank:
        verb = "send to" if send else "receive from"
        return ValueError(f"rank {rank} attempted to {verb} itself")
    verb = "sends to" if send else "receives from"
    return ValueError(f"rank {rank} {verb} invalid rank {peer} (size {n})")


def _op_error(rank: int, op: object) -> TypeError:
    return TypeError(
        f"rank {rank} yielded {op!r}, which is not a simulator operation"
    )


#: What ``next`` returns from an exhausted feed in the simulator's loop.
_END = object()


def _base_kind(rank: int, op: object) -> type:
    """The operation class ``op`` is an instance of, for a subclass."""
    for kind in (Send, Recv, Compute, Barrier, Repeat):
        if isinstance(op, kind):
            return kind
    raise _op_error(rank, op)


def _drain_block(
    rank: int,
    n: int,
    block: Repeat,
    budget: int,
    max_ops: int,
    record: Callable[[int, int, int, int, int], None],
    balance: dict[tuple[int, int, int], int],
) -> int:
    """Drain one :class:`Repeat` of ``rank``; returns the budget left.

    A body often holds one op object several times (an inner loop
    unrolled into it), so each distinct object is checked and recorded
    once, in first-occurrence order, weighted by ``count`` times its
    multiplicity.  A bad peer raises what the unrolled stream raises on
    the body's first pass: the peer error, or the budget error if the
    budget runs out before that op is reached.
    """
    count = block.count
    ops = block.ops
    if not count:
        return budget
    multiplicity = Counter(map(id, ops))
    distinct = dict(zip(map(id, ops), ops))
    weighted: list[tuple[Send, int]] = []
    for key_id, op in distinct.items():
        if isinstance(op, Send):
            peer, key, weight = op.dst, (rank, op.dst, op.tag), count
        elif isinstance(op, Recv):
            peer, key, weight = op.src, (op.src, rank, op.tag), -count
        else:
            continue
        if peer == rank or not 0 <= peer < n:
            step = next(i for i, other in enumerate(ops, 1) if other is op)
            if budget < step:
                raise _budget_error(max_ops)
            raise _peer_error(rank, peer, n, send=isinstance(op, Send))
        weight *= multiplicity[key_id]
        balance[key] = balance.get(key, 0) + weight
        if weight > 0:
            weighted.append((op, weight))
    budget -= len(ops) * count
    if budget < 0:
        raise _budget_error(max_ops)
    for op, weight in weighted:
        record(rank, op.dst, op.nbytes, op.tag, weight)
    return budget


def drain(num_ranks: int, program: Program, tracer: Tracer) -> None:
    """Run every rank's program to exhaustion and record each send.

    Ranks run one after another, and every :class:`Send` goes to
    ``tracer.record``, so a tracer that sums per pair ends up holding
    what a :class:`Simulator` run with it would hold: the same byte and
    message sums per pair and the same totals.  :class:`Compute` and
    :class:`Barrier` are skipped.  A :class:`~repro.simmpi.ops.Repeat`
    is visited once per op of its body, and each distinct send in it is
    recorded once, weighted by the count (see :class:`Tracer`).

    On a program that breaks one rule, raises what the simulator raises:
    ``ValueError`` for a self or out-of-range peer, ``TypeError`` for a
    yield that is not an operation, ``RuntimeError`` once the
    module's :data:`MAX_OPS` budget (read at call time, counted as the
    simulator counts its default) is spent, and :class:`DeadlockError`,
    with empty ``rank_states``, naming a ``(src, dst, tag)`` channel with
    more receives than sends.  Surplus sends are accepted, as the
    simulator accepts them.  An ordering deadlock (counts balance but
    the order blocks) is not detected; only :meth:`Simulator.run`
    raises on it.  The drain runs every rank to its end, past receives
    that would never match, so on a program that breaks several rules
    the error it reports can differ from the simulator's: an unmatched
    receive followed by a self-send gives ``ValueError`` here, and
    followed by an endless loop gives ``RuntimeError`` only once the
    budget is spent.
    """
    if num_ranks <= 0:
        raise ValueError(f"num_ranks must be positive, got {num_ranks}")
    n = int(num_ranks)
    record = tracer.record
    # Sends minus receives per (src, dst, tag) channel.
    balance: dict[tuple[int, int, int], int] = {}
    max_ops = MAX_OPS
    budget = max_ops
    for rank in range(n):
        for op in program(RankContext(rank=rank, size=n)):
            budget -= 1
            if budget < 0:
                raise _budget_error(max_ops)
            if isinstance(op, Send):
                dst = op.dst
                if dst == rank or not 0 <= dst < n:
                    raise _peer_error(rank, dst, n, send=True)
                tag = op.tag
                record(rank, dst, op.nbytes, tag)
                key = (rank, dst, tag)
                balance[key] = balance.get(key, 0) + 1
            elif isinstance(op, Recv):
                src = op.src
                if src == rank or not 0 <= src < n:
                    raise _peer_error(rank, src, n, send=False)
                key = (src, rank, op.tag)
                balance[key] = balance.get(key, 0) - 1
            elif not isinstance(op, (Compute, Barrier)):
                if not isinstance(op, Repeat):
                    raise _op_error(rank, op)
                # The item itself spends nothing; its body is charged in full.
                budget = _drain_block(
                    rank, n, op, budget + 1, max_ops, record, balance
                )
        # The simulator also spends one step on the call that finishes a rank.
        budget -= 1
        if budget < 0:
            raise _budget_error(max_ops)
    starved = sorted(key for key, surplus in balance.items() if surplus < 0)
    if starved:
        src, dst, tag = starved[0]
        raise DeadlockError(
            f"receives outnumber sends on {len(starved)} channel(s); first: "
            f"rank {dst} waits on {-balance[starved[0]]} more messages from "
            f"rank {src} tag {tag} than are ever sent"
        )


def build_rank_ops(
    num_ranks: int, program: Program
) -> tuple[tuple[Operation | Repeat, ...], ...]:
    """Every rank's program, run to its end and kept as a tuple of its items.

    ``result[rank]`` is what ``program`` yields for ``rank``, unchecked
    and in order, so a :class:`Simulator` whose program returns it runs
    exactly as one fed ``program``; the simulator checks each item when
    it reaches it.  The items are counted against the module's
    :data:`MAX_OPS` (read at call time) as :func:`drain` counts them: a
    ``Repeat`` by its unrolled length, plus one step to finish each
    rank.  A runaway program raises the drain's budget ``RuntimeError``
    instead of filling memory.
    """
    if num_ranks <= 0:
        raise ValueError(f"num_ranks must be positive, got {num_ranks}")
    n = int(num_ranks)
    max_ops = MAX_OPS
    budget = max_ops
    streams = []
    for rank in range(n):
        items: list[Operation | Repeat] = []
        for op in program(RankContext(rank=rank, size=n)):
            budget -= 1
            if budget < 0:
                raise _budget_error(max_ops)
            if isinstance(op, Repeat):
                budget += 1 - len(op.ops) * op.count
                if budget < 0:
                    raise _budget_error(max_ops)
            items.append(op)
        budget -= 1
        if budget < 0:
            raise _budget_error(max_ops)
        streams.append(tuple(items))
    return tuple(streams)


@dataclass
class SimResult:
    """Outcome of one simulated execution.

    Attributes
    ----------
    makespan_s:
        Maximum finish time over all ranks — the simulated execution time.
    rank_times_s:
        (N,) per-rank finish times.
    total_messages / total_bytes:
        Message-stream volume (every point-to-point message counted once).
    comm_wait_s:
        Sum over all receives of the time between posting the receive and
        holding the data — a receiver-side congestion indicator.
    barriers:
        Number of ideal barriers executed.
    """

    makespan_s: float
    rank_times_s: np.ndarray
    total_messages: int
    total_bytes: int
    comm_wait_s: float
    barriers: int


class _RankState:
    __slots__ = (
        "gen",
        "feed",
        "time",
        "finished",
        "waiting_channel",
        "in_barrier",
        "comm_wait",
        "last_op",
    )

    def __init__(self, gen: Iterator[Operation | Repeat]) -> None:
        # The rank's stream: an iterator over what its program returned.
        self.gen = gen
        # Where the next op comes from: the stream itself, or a cursor
        # over the Repeat it yielded last (its body, count times).
        self.feed: Iterator[Operation | Repeat] = gen
        self.time = 0.0
        self.finished = False
        self.waiting_channel: tuple[int, int, int] | None = None
        self.in_barrier = False
        self.comm_wait = 0.0
        # The operation object last interpreted for this rank — kept for
        # the deadlock post-mortem (formatting deferred to failure time).
        self.last_op: Operation | None = None


class Simulator:
    """Run a program on every rank against a network model.

    Parameters
    ----------
    num_ranks:
        Number of simulated processes.
    program:
        Factory invoked once per rank with its :class:`RankContext`; it
        returns the rank's operations, where a
        :class:`~repro.simmpi.ops.Repeat` stands for its unrolled body.
        It may be the application's generator function, or a lookup
        into the tuples :func:`build_rank_ops` built once from it, as
        :func:`~repro.exp.runner.simulate_mapping` passes; both run the
        same.  Ops are dispatched on their exact class; an instance of a
        subclass of one runs as that operation.
    network:
        Object with ``transfer(src, dst, nbytes, ready) -> completion`` and
        ``reset()`` (see :mod:`repro.simmpi.network`).  ``transfer`` is
        called exactly once per message, in non-decreasing ready-time
        order, which is what lets the network model maintain FIFO link
        occupancy correctly.
    compute_scale:
        Multiplier applied to every :class:`Compute` duration.  ``1.0``
        simulates the full application; ``0.0`` reproduces the paper's
        communication-only simulations (Section 5.4).
    tracer:
        Optional message observer; receives every send exactly once.
    max_ops:
        Safety cap on total interpreted operations.

    Profiling does not need this class: :func:`drain` records the same
    message stream straight from the program generators, without
    simulating it.  ``Simulator.run`` is the one source of makespans.
    """

    def __init__(
        self,
        num_ranks: int,
        program: Program,
        network,
        *,
        compute_scale: float = 1.0,
        tracer: Tracer | None = None,
        max_ops: int = MAX_OPS,
    ) -> None:
        if num_ranks <= 0:
            raise ValueError(f"num_ranks must be positive, got {num_ranks}")
        if compute_scale < 0:
            raise ValueError(f"compute_scale must be >= 0, got {compute_scale}")
        if max_ops <= 0:
            raise ValueError(f"max_ops must be positive, got {max_ops}")
        self.num_ranks = int(num_ranks)
        self.program = program
        self.network = network
        self.compute_scale = float(compute_scale)
        self.tracer = tracer
        self.max_ops = int(max_ops)

    # -------------------------------------------------------------------- run

    def run(self) -> SimResult:
        """Execute the program to completion and return the statistics.

        The run executes under a ``simulate.run`` observability span
        carrying the aggregate statistics; when the network model
        collects per-site-pair stats (see
        :class:`~repro.simmpi.network.SimNetwork`), each pair lands on
        the span as a ``network.link`` event with its transfer count,
        bytes, and contention stall time.
        """
        from ..obs import get_recorder

        obs = get_recorder()
        with obs.span(
            "simulate.run",
            num_ranks=self.num_ranks,
            compute_scale=self.compute_scale,
        ) as root:
            result = self._run()
            root.set(
                makespan_s=result.makespan_s,
                total_messages=result.total_messages,
                total_bytes=result.total_bytes,
                comm_wait_s=result.comm_wait_s,
                barriers=result.barriers,
            )
            if obs.enabled:
                link_stats = getattr(self.network, "link_stats", None)
                for entry in link_stats() if link_stats is not None else ():
                    obs.event("network.link", **entry)
            return result

    def _run(self) -> SimResult:
        n = self.num_ranks
        max_ops = self.max_ops
        compute_scale = self.compute_scale
        tracer = self.tracer
        transfer = self.network.transfer
        heappush, heappop = heapq.heappush, heapq.heappop
        self.network.reset()
        states = [
            _RankState(iter(self.program(RankContext(rank=r, size=n))))
            for r in range(n)
        ]
        # FIFO message queues per channel (src, dst, tag): (post_time, nbytes).
        channels: dict[tuple[int, int, int], deque[tuple[float, int]]] = {}
        # Matched transfers awaiting execution, ordered by ready time:
        # (ready, seq, src, dst, nbytes, recv_post_time).
        transfers: list[tuple[float, int, int, int, int, float]] = []
        seq = 0
        barrier_waiting: list[int] = []
        runnable: deque[int] = deque(range(n))

        total_messages = 0
        total_bytes = 0
        barriers = 0
        ops_budget = max_ops

        def advance(rank: int) -> None:
            """Run one rank until it blocks or finishes.

            The rank's clock and its last operation live in locals while
            it runs and are written back once when it stops; an exception
            aborts the whole run, so nothing is written back then.  Ops
            are dispatched on their exact type, sends and receives first;
            a ``Repeat`` only swaps the rank's feed for a cursor over its
            body.  The end of a feed and an op of a subclass fall through
            the chain: a subclass is dispatched again as the operation it
            is an instance of.
            """
            nonlocal seq, total_messages, total_bytes, ops_budget
            st = states[rank]
            feed = st.feed
            now = st.time
            resolved = None
            while True:
                if resolved is None:
                    ops_budget -= 1
                    if ops_budget < 0:
                        raise _budget_error(max_ops)
                    op = next(feed, _END)
                    kind = type(op)
                else:
                    kind, resolved = resolved, None

                if kind is Send:
                    dst = op.dst
                    nbytes = op.nbytes
                    if dst == rank or not 0 <= dst < n:
                        raise _peer_error(rank, dst, n, send=True)
                    if tracer is not None:
                        tracer.record(rank, dst, nbytes, op.tag)
                    total_messages += 1
                    total_bytes += nbytes
                    key = (rank, dst, op.tag)
                    dst_state = states[dst]
                    if dst_state.waiting_channel == key:
                        # Receiver already blocked on this channel: match now.
                        recv_post = dst_state.time
                        # max(now, recv_post), without the call.
                        ready = recv_post if recv_post > now else now
                        heappush(
                            transfers, (ready, seq, rank, dst, nbytes, recv_post)
                        )
                        seq += 1
                        dst_state.waiting_channel = None  # matched, still blocked
                    else:
                        queue = channels.get(key)
                        if queue is None:
                            queue = channels[key] = deque()
                        queue.append((now, nbytes))
                    continue

                if kind is Recv:
                    src = op.src
                    if src == rank or not 0 <= src < n:
                        raise _peer_error(rank, src, n, send=False)
                    key = (src, rank, op.tag)
                    queue = channels.get(key)
                    if queue:
                        post_time, nbytes = queue.popleft()
                        if not queue:
                            del channels[key]
                        ready = now if now > post_time else post_time
                        heappush(transfers, (ready, seq, src, rank, nbytes, now))
                        seq += 1
                        # Blocked until the transfer executes (no channel
                        # marker: the transfer will wake us).
                    else:
                        st.waiting_channel = key
                    break

                if kind is Compute:
                    now += op.seconds * compute_scale
                    continue

                if kind is Barrier:
                    st.in_barrier = True
                    barrier_waiting.append(rank)
                    break

                if kind is Repeat:
                    # The item itself spends no budget; its ops do.
                    ops_budget += 1
                    feed = st.feed = chain.from_iterable(repeat(op.ops, op.count))
                    continue

                if op is _END:
                    if feed is st.gen:
                        # Only blocked ranks report their last op.
                        st.finished = True
                        st.time = now
                        return
                    # The block is done, and this step took no op from it.
                    ops_budget += 1
                    feed = st.feed = st.gen
                    continue

                resolved = _base_kind(rank, op)

            st.time = now
            st.last_op = op

        while True:
            # Phase 1: drain the worklist — advance every runnable rank.
            while runnable:
                rank = runnable.popleft()
                if not states[rank].finished:
                    advance(rank)

            # Phase 2: a full barrier releases once every unfinished rank
            # arrived and no transfer is in flight.
            if (
                barrier_waiting
                and not transfers
                and len(barrier_waiting) == sum(1 for s in states if not s.finished)
            ):
                sync_time = max(states[r].time for r in barrier_waiting)
                for r in barrier_waiting:
                    states[r].time = sync_time
                    states[r].in_barrier = False
                    runnable.append(r)
                barrier_waiting.clear()
                barriers += 1
                continue

            # Phase 3: execute the earliest-ready matched transfer.  New
            # matches created by the woken receiver always have ready >=
            # this completion, so link occupancy is claimed in
            # non-decreasing time order.  The worklist is empty here, so
            # waking the receiver directly keeps the event order.
            if transfers:
                ready, _, src, dst, nbytes, recv_post = heappop(transfers)
                completion = transfer(src, dst, nbytes, ready)
                st = states[dst]
                st.comm_wait += completion - recv_post
                st.time = completion
                advance(dst)
                continue

            break  # nothing runnable, no barrier release, no transfers

        unfinished = [r for r, s in enumerate(states) if not s.finished]
        if unfinished:
            # Bytes each rank sent that no receive ever matched.
            outstanding: dict[int, int] = {}
            for (src, _dst, _tag), queue in channels.items():
                outstanding[src] = outstanding.get(src, 0) + sum(
                    nbytes for _, nbytes in queue
                )
            rank_states: dict[int, RankBlockState] = {}
            for r in unfinished:
                st = states[r]
                if st.in_barrier:
                    reason, peer, tag = "barrier", None, None
                else:
                    reason = "recv"
                    key = st.waiting_channel
                    peer = key[0] if key is not None else None
                    tag = key[2] if key is not None else None
                rank_states[r] = RankBlockState(
                    rank=r,
                    reason=reason,
                    last_op=repr(st.last_op) if st.last_op is not None else None,
                    peer=peer,
                    tag=tag,
                    bytes_outstanding=outstanding.get(r, 0),
                )
            detail = "; ".join(
                (
                    f"rank {s.rank}: in barrier"
                    if s.reason == "barrier"
                    else f"rank {s.rank}: recv from {s.peer} tag {s.tag}"
                )
                + f", last op {s.last_op}, {s.bytes_outstanding} bytes unmatched"
                for s in list(rank_states.values())[:8]
            )
            raise DeadlockError(
                f"{len(unfinished)} ranks cannot progress; blocked on: {detail}",
                rank_states,
            )

        rank_times = np.array([s.time for s in states])
        return SimResult(
            makespan_s=float(rank_times.max()),
            rank_times_s=rank_times,
            total_messages=total_messages,
            total_bytes=total_bytes,
            comm_wait_s=float(sum(s.comm_wait for s in states)),
            barriers=barriers,
        )
