"""Application interface for simulated workloads.

An :class:`Application` owns a rank count and emits, per rank, the
generator of simulator operations that *is* the application (its
communication skeleton plus :class:`~repro.simmpi.ops.Compute` phases).
Profiling an application — the CYPRESS substitute — drains every rank's
program generator into a trace recorder (no simulation, no network) and
returns its CG/AG matrices.  Simulation instead reads each rank's ops
from a tuple built once per application (:meth:`Application.rank_ops`).
"""

from __future__ import annotations

import abc
from typing import Generator

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_int, freeze_matrix
from ..simmpi.engine import RankContext, build_rank_ops, drain
from ..simmpi.ops import Operation, Repeat
from ..simmpi.tracing import TraceRecorder

__all__ = ["Application", "grid_shape"]


def grid_shape(num_ranks: int) -> tuple[int, int]:
    """Most-square 2-D factorization of a rank count (rows, cols).

    NPB-style grid codes decompose their domain over a near-square process
    grid; 64 -> (8, 8), 32 -> (4, 8), 13 -> (1, 13).
    """
    check_positive_int(num_ranks, "num_ranks")
    rows = int(np.sqrt(num_ranks))
    while rows > 1 and num_ranks % rows != 0:
        rows -= 1
    return rows, num_ranks // rows


class Application(abc.ABC):
    """A simulated parallel application.

    Subclasses define :attr:`name`, set ``num_ranks`` in ``__init__`` and
    implement :meth:`program`.  The base class provides profiling, which
    drains the program generators, and caches the resulting
    communication matrices.  For simulation it keeps each rank's ops as
    a tuple built on first use (:meth:`rank_ops`); a second simulation
    of the same application object reuses those op objects instead of
    running the programs again, and a single simulation gains nothing.
    """

    #: Display / registry name, overridden by subclasses.
    name: str = "abstract"

    def __init__(self, num_ranks: int) -> None:
        self.num_ranks = check_positive_int(num_ranks, "num_ranks")
        self._profile_cache: tuple | None = None
        self._ops_cache: tuple[tuple[Operation | Repeat, ...], ...] | None = None

    @abc.abstractmethod
    def program(self, ctx: RankContext) -> Generator[Operation | Repeat, None, None]:
        """The operation stream executed by rank ``ctx.rank``.

        Loops may be declared as :class:`~repro.simmpi.ops.Repeat` items,
        which profiling visits once per body op instead of once per
        iteration.
        """

    # ------------------------------------------------------------- profiling

    def profile(
        self,
    ) -> tuple["np.ndarray | sp.csr_matrix", "np.ndarray | sp.csr_matrix", TraceRecorder]:
        """Record (CG, AG, recorder) by draining every rank's program.

        :func:`~repro.simmpi.engine.drain` runs the programs rank by rank
        without simulating them; programs cannot observe time, so the
        recorder holds the per-pair sums and totals a simulated run
        would leave it.  A program that breaks one rule fails here as it
        fails in the simulator, except an *ordering* deadlock, where
        every channel's send and receive counts balance but the order
        blocks: that profiles cleanly here, and only
        :meth:`Simulator.run <repro.simmpi.engine.Simulator.run>` raises
        :class:`~repro.simmpi.engine.DeadlockError` on it.  A program
        that breaks several rules may fail with another error than the
        simulator's (see :func:`~repro.simmpi.engine.drain`).
        """
        recorder = TraceRecorder(self.num_ranks)
        drain(self.num_ranks, self.program, recorder)
        cg, ag = recorder.communication_matrices()
        return cg, ag, recorder

    def communication_matrices(
        self,
    ) -> tuple["np.ndarray | sp.csr_matrix", "np.ndarray | sp.csr_matrix"]:
        """(CG, AG) for this application, profiled once and cached.

        The cached matrices are read-only (for CSR, their ``data``,
        ``indices`` and ``indptr``): every later caller gets the same
        arrays, so a write by one would change the profile for all.
        """
        if self._profile_cache is None:
            cg, ag, _ = self.profile()
            freeze_matrix(cg)
            freeze_matrix(ag)
            self._profile_cache = (cg, ag)
        return self._profile_cache

    def rank_ops(self) -> tuple[tuple[Operation | Repeat, ...], ...]:
        """Each rank's program as the tuple of its items, built once and cached.

        ``rank_ops()[rank]`` holds what :meth:`program` yields for
        ``rank`` (see :func:`~repro.simmpi.engine.build_rank_ops`); a
        simulator fed these tuples runs exactly as one fed the program.
        Profiling does not build them, so an application that is only
        profiled never holds them.
        """
        if self._ops_cache is None:
            self._ops_cache = build_rank_ops(self.num_ranks, self.program)
        return self._ops_cache

    @property
    def profiled(self) -> bool:
        """Whether :meth:`communication_matrices` has a cached profile."""
        return self._profile_cache is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, num_ranks={self.num_ranks})"
