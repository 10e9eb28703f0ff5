"""NPB-style pseudo applications: LU, BT and SP (paper Section 5.1).

The paper evaluates on the NAS Parallel Benchmarks 2.4 pseudo
applications at CLASS C on 64 processes.  We reproduce their
*communication structure* — which is all the mapping problem consumes —
rather than their Fortran numerics:

* **LU** (SSOR solver): ranks form a near-square 2-D grid; each SSOR
  iteration runs a lower-triangular wavefront sweep (receive from north
  and west, compute, send to south and east) and the mirrored upper
  sweep.  Exactly two message sizes appear, 43 KB east-west and 83 KB
  north-south — the two sizes the paper reads off Fig. 3 — and each
  process talks only to its grid neighbors (process 1 with 2 and 8 on
  the 8x8 grid).
* **BT / SP** (ADI solvers, multipartition): per iteration, forward and
  backward line sweeps run along each grid dimension with *cyclic*
  neighbor communication; BT moves fewer, larger faces and SP more,
  smaller ones.

Message sizes scale with ``class_scale`` (1.0 = CLASS C-like) and
compute phases use per-iteration compute times representative of the
paper's m4.xlarge runs.

Every iteration of a rank runs the same operations, so each
``program`` builds its iteration body once as a tuple (collective
included) and yields it as a :class:`~repro.simmpi.ops.Repeat`: the
loop is declared as data, and profiling visits the body once.
"""

from __future__ import annotations

from typing import Generator

from .._validation import check_positive_int
from ..simmpi.collectives import allreduce_recursive_doubling
from ..simmpi.engine import RankContext
from ..simmpi.ops import Compute, Operation, Recv, Repeat, Send
from .base import Application, grid_shape

__all__ = ["LUApp", "BTApp", "SPApp"]

#: LU's two message sizes on the process grid (bytes), per the paper.
LU_EW_BYTES = 43 * 1024
LU_NS_BYTES = 83 * 1024

_TAG_SWEEP_DOWN = 11
_TAG_SWEEP_UP = 12
_TAG_HALO = 13
_TAG_SWEEP_X = 14
_TAG_SWEEP_Y = 15


class _GridApp(Application):
    """Shared 2-D grid plumbing for the NPB-style apps."""

    def __init__(self, num_ranks: int, iterations: int, class_scale: float) -> None:
        super().__init__(num_ranks)
        self.iterations = check_positive_int(iterations, "iterations")
        if class_scale <= 0:
            raise ValueError(f"class_scale must be positive, got {class_scale}")
        self.class_scale = float(class_scale)
        self.rows, self.cols = grid_shape(num_ranks)

    def _coords(self, rank: int) -> tuple[int, int]:
        return divmod(rank, self.cols)

    def _rank(self, i: int, j: int) -> int:
        return i * self.cols + j


class LUApp(_GridApp):
    """LU: pipelined SSOR wavefront sweeps on a 2-D process grid.

    Parameters
    ----------
    num_ranks:
        Process count (any value; the grid is the most-square
        factorization).
    iterations:
        SSOR iterations; the default 250 matches NPB CLASS C.  Benchmarks
        that only need the (iteration-invariant) pattern pass fewer.
    class_scale:
        Multiplier on the two message sizes (problem-class knob).
    compute_per_sweep:
        Seconds of local work per rank per triangular sweep.
    residual_every:
        An allreduce of the residual norm runs every this many
        iterations, as in the original code.
    """

    name = "LU"

    def __init__(
        self,
        num_ranks: int = 64,
        *,
        iterations: int = 250,
        class_scale: float = 1.0,
        compute_per_sweep: float = 0.01,
        residual_every: int = 5,
    ) -> None:
        super().__init__(num_ranks, iterations, class_scale)
        if compute_per_sweep < 0:
            raise ValueError("compute_per_sweep must be >= 0")
        self.compute_per_sweep = float(compute_per_sweep)
        self.residual_every = check_positive_int(residual_every, "residual_every")
        self.ew_bytes = max(1, int(LU_EW_BYTES * self.class_scale))
        self.ns_bytes = max(1, int(LU_NS_BYTES * self.class_scale))

    def program(self, ctx: RankContext) -> Generator[Operation | Repeat, None, None]:
        i, j = self._coords(ctx.rank)
        north = self._rank(i - 1, j) if i > 0 else None
        south = self._rank(i + 1, j) if i < self.rows - 1 else None
        west = self._rank(i, j - 1) if j > 0 else None
        east = self._rank(i, j + 1) if j < self.cols - 1 else None

        compute = Compute(self.compute_per_sweep)
        body: list[Operation] = []
        # Lower-triangular sweep: the wavefront flows south-east.
        if north is not None:
            body.append(Recv(src=north, tag=_TAG_SWEEP_DOWN))
        if west is not None:
            body.append(Recv(src=west, tag=_TAG_SWEEP_DOWN))
        body.append(compute)
        if south is not None:
            body.append(Send(dst=south, nbytes=self.ns_bytes, tag=_TAG_SWEEP_DOWN))
        if east is not None:
            body.append(Send(dst=east, nbytes=self.ew_bytes, tag=_TAG_SWEEP_DOWN))

        # Upper-triangular sweep: the wavefront flows north-west.
        if south is not None:
            body.append(Recv(src=south, tag=_TAG_SWEEP_UP))
        if east is not None:
            body.append(Recv(src=east, tag=_TAG_SWEEP_UP))
        body.append(compute)
        if north is not None:
            body.append(Send(dst=north, nbytes=self.ns_bytes, tag=_TAG_SWEEP_UP))
        if west is not None:
            body.append(Send(dst=west, nbytes=self.ew_bytes, tag=_TAG_SWEEP_UP))

        sweeps = tuple(body)
        residual = tuple(allreduce_recursive_doubling(ctx, nbytes=40, tag=900))
        # Every residual_every-th iteration ends with the residual allreduce.
        periods, rest = divmod(self.iterations, self.residual_every)
        yield Repeat(sweeps * self.residual_every + residual, periods)
        yield Repeat(sweeps, rest)


class _ADIApp(_GridApp):
    """Shared body of BT and SP: cyclic forward/backward line sweeps."""

    #: Face-message size in bytes before class scaling; set by subclass.
    face_bytes_base: int = 0
    #: Line sweeps per dimension per iteration; SP substeps more often.
    sweeps_per_dim: int = 1

    def __init__(
        self,
        num_ranks: int,
        *,
        iterations: int,
        class_scale: float,
        compute_per_sweep: float,
    ) -> None:
        super().__init__(num_ranks, iterations, class_scale)
        if compute_per_sweep < 0:
            raise ValueError("compute_per_sweep must be >= 0")
        self.compute_per_sweep = float(compute_per_sweep)
        self.face_bytes = max(1, int(self.face_bytes_base * self.class_scale))

    def program(self, ctx: RankContext) -> Generator[Operation | Repeat, None, None]:
        i, j = self._coords(ctx.rank)
        east = self._rank(i, (j + 1) % self.cols)
        west = self._rank(i, (j - 1) % self.cols)
        south = self._rank((i + 1) % self.rows, j)
        north = self._rank((i - 1) % self.rows, j)

        compute = Compute(self.compute_per_sweep)
        # x-dimension: forward sweep east, backward sweep west.
        # Multipartition lets every rank start on its own diagonal
        # block, hence compute + eager send before the receive.
        sweep: list[Operation] = [compute]
        if self.cols > 1:
            sweep += [
                Send(dst=east, nbytes=self.face_bytes, tag=_TAG_SWEEP_X),
                Recv(src=west, tag=_TAG_SWEEP_X),
                Send(dst=west, nbytes=self.face_bytes, tag=_TAG_SWEEP_X + 10),
                Recv(src=east, tag=_TAG_SWEEP_X + 10),
            ]
        # y-dimension.
        sweep.append(compute)
        if self.rows > 1:
            sweep += [
                Send(dst=south, nbytes=self.face_bytes, tag=_TAG_SWEEP_Y),
                Recv(src=north, tag=_TAG_SWEEP_Y),
                Send(dst=north, nbytes=self.face_bytes, tag=_TAG_SWEEP_Y + 10),
                Recv(src=south, tag=_TAG_SWEEP_Y + 10),
            ]
        body = tuple(sweep) * self.sweeps_per_dim + tuple(
            allreduce_recursive_doubling(ctx, nbytes=40, tag=901)
        )
        yield Repeat(body, self.iterations)


class BTApp(_ADIApp):
    """BT (Block Tri-diagonal): fewer, larger face exchanges."""

    name = "BT"
    face_bytes_base = 120 * 1024
    sweeps_per_dim = 1

    def __init__(
        self,
        num_ranks: int = 64,
        *,
        iterations: int = 200,
        class_scale: float = 1.0,
        compute_per_sweep: float = 0.03,
    ) -> None:
        super().__init__(
            num_ranks,
            iterations=iterations,
            class_scale=class_scale,
            compute_per_sweep=compute_per_sweep,
        )


class SPApp(_ADIApp):
    """SP (Scalar Penta-diagonal): more frequent, smaller exchanges."""

    name = "SP"
    face_bytes_base = 60 * 1024
    sweeps_per_dim = 2

    def __init__(
        self,
        num_ranks: int = 64,
        *,
        iterations: int = 400,
        class_scale: float = 1.0,
        compute_per_sweep: float = 0.015,
    ) -> None:
        super().__init__(
            num_ranks,
            iterations=iterations,
            class_scale=class_scale,
            compute_per_sweep=compute_per_sweep,
        )
