"""Operations a simulated process can yield.

A simulated MPI program is a Python generator that yields these operation
objects; the simulator interprets them against the network model.  The
semantics are deliberately simple and deterministic:

* :class:`Send` is **eager/buffered** — the sender deposits the message
  and continues immediately (no rendezvous), so symmetric neighbor
  exchanges cannot deadlock.
* :class:`Recv` blocks until the matching message (same source and tag,
  FIFO per channel) has been transferred; the transfer is timed with the
  alpha-beta link model, including cross-site link serialization.
* :class:`Compute` advances the local clock by a given amount of work
  time; the comm-only simulation mode scales these to zero (that is how
  we mirror the paper's "simulation focuses on communication time").
* :class:`Barrier` is an ideal synchronization: all ranks resume at the
  maximum of their arrival times.  Realistic barriers built from messages
  live in :mod:`repro.simmpi.collectives`.

A program may also yield a :class:`Repeat`: a loop declared as data, a
tuple of the operations above run ``count`` times in a row.  It means
exactly its unrolled form (:func:`unroll`), but lets the profiling drain
visit each op of the body once and weight it by ``count``, the way
CYPRESS folds a loop instead of replaying it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["Send", "Recv", "Compute", "Barrier", "Operation", "Repeat", "unroll"]


@dataclass(frozen=True, slots=True)
class Send:
    """Deposit ``nbytes`` for ``dst`` under ``tag`` and continue."""

    dst: int
    nbytes: int
    tag: int = 0

    def __post_init__(self) -> None:
        if self.dst < 0:
            raise ValueError(f"dst must be >= 0, got {self.dst}")
        if self.nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {self.nbytes}")


@dataclass(frozen=True, slots=True)
class Recv:
    """Block until the next message from ``src`` with ``tag`` arrives."""

    src: int
    tag: int = 0

    def __post_init__(self) -> None:
        if self.src < 0:
            raise ValueError(f"src must be >= 0, got {self.src}")


@dataclass(frozen=True, slots=True)
class Compute:
    """Local computation taking ``seconds`` of simulated time."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")


@dataclass(frozen=True, slots=True)
class Barrier:
    """Ideal global synchronization point."""


Operation = Send | Recv | Compute | Barrier
_PRIMITIVES = frozenset((Send, Recv, Compute, Barrier))


@dataclass(frozen=True, slots=True)
class Repeat:
    """The operations ``ops`` run ``count`` times in a row.

    ``ops`` is stored as a tuple of primitive operations; a nested
    :class:`Repeat` or a non-operation raises ``TypeError`` and a
    negative count ``ValueError``.  A count of 0 or an empty body is
    allowed and runs nothing.
    """

    ops: tuple[Operation, ...]
    count: int

    def __post_init__(self) -> None:
        ops = self.ops
        if type(ops) is not tuple:
            ops = tuple(ops)
            object.__setattr__(self, "ops", ops)
        if not _PRIMITIVES.issuperset(map(type, ops)):
            for op in ops:
                if isinstance(op, Repeat):
                    raise TypeError("a Repeat cannot contain another Repeat")
                if not isinstance(op, (Send, Recv, Compute, Barrier)):
                    raise TypeError(f"Repeat body holds {op!r}, which is not an operation")
        count = self.count
        if type(count) is not int:
            count = operator.index(count)
            object.__setattr__(self, "count", count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")


def unroll(program: Iterable[Operation | Repeat]) -> Iterator[Operation]:
    """The primitive operation stream a program means, loops expanded."""
    for op in program:
        if isinstance(op, Repeat):
            for _ in range(op.count):
                yield from op.ops
        else:
            yield op
