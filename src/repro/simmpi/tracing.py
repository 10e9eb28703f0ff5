"""Application profiling: summing message streams into CG/AG.

This is the reproduction's stand-in for CYPRESS [Zhai et al., SC'14],
which the paper uses only to obtain the communication matrices that its
mapper consumes.  Loops are declared as data
(:class:`~repro.simmpi.ops.Repeat`), and :func:`~repro.simmpi.engine.drain`
runs every rank's program to the end without simulating it, recording
each distinct send of a loop body once, weighted by the loop's count.
The recorder keeps only per-pair sums, so the communication pattern
matrix ``CG`` (bytes) and count matrix ``AG`` (messages) fall out.  A
:class:`~repro.simmpi.engine.Simulator` given a recorder as its
``tracer`` records message by message and ends with the same sums.

Matrices are returned dense for small N and as CSR for large N, because
the structured applications (NPB, ring allreduce) have O(N) nonzeros and
the mapping algorithms handle sparse input natively.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_int

__all__ = ["TraceRecorder", "DENSE_LIMIT"]

#: Below this many ranks, communication matrices are returned dense.
DENSE_LIMIT = 256


class TraceRecorder:
    """Sums the messages of one drained or simulated run per rank pair.

    Parameters
    ----------
    num_ranks:
        N, fixed up front so matrix shapes are unambiguous.
    """

    def __init__(self, num_ranks: int) -> None:
        self.num_ranks = check_positive_int(num_ranks, "num_ranks")
        self._volume: dict[tuple[int, int], float] = defaultdict(float)
        self._count: dict[tuple[int, int], int] = defaultdict(int)
        self.total_messages = 0
        self.total_bytes = 0

    def record(
        self, src: int, dst: int, nbytes: int, tag: int, times: int = 1
    ) -> None:
        """Observe ``times`` identical messages (see
        :class:`~repro.simmpi.engine.Tracer`)."""
        key = (src, dst)
        self._volume[key] += nbytes * times
        self._count[key] += times
        self.total_messages += times
        self.total_bytes += nbytes * times

    def communication_matrices(
        self, *, dense_limit: int = DENSE_LIMIT
    ) -> tuple["np.ndarray | sp.csr_matrix", "np.ndarray | sp.csr_matrix"]:
        """(CG, AG) built from everything recorded so far.

        Dense below ``dense_limit`` ranks, CSR at or above it.
        """
        n = self.num_ranks
        if not self._count:
            if n < dense_limit:
                return np.zeros((n, n)), np.zeros((n, n))
            empty = sp.csr_matrix((n, n))
            return empty, empty.copy()
        pairs = list(self._count)
        keys = np.array(pairs, dtype=np.int64)
        rows, cols = keys[:, 0], keys[:, 1]
        vols = np.array([self._volume[k] for k in pairs])
        cnts = np.array(list(self._count.values()), dtype=np.float64)
        if n < dense_limit:
            cg = np.zeros((n, n))
            ag = np.zeros((n, n))
            cg[rows, cols] = vols
            ag[rows, cols] = cnts
            return cg, ag
        cg = sp.csr_matrix((vols, (rows, cols)), shape=(n, n))
        ag = sp.csr_matrix((cnts, (rows, cols)), shape=(n, n))
        return cg, ag

    def nonzero_pairs(self) -> int:
        """Number of distinct communicating (src, dst) pairs."""
        return len(self._count)
