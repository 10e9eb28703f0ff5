"""Application profiling: recording message streams into CG/AG.

This is the reproduction's stand-in for CYPRESS [Zhai et al., SC'14]:
:func:`~repro.simmpi.engine.drain` runs every rank's program to the end
without simulating it, every message is recorded, and the communication
pattern matrix ``CG`` (bytes) and count matrix ``AG`` (messages) fall
out.  A :class:`~repro.simmpi.engine.Simulator` given a recorder as its
``tracer`` records the same stream.  Per-rank event streams are optionally
kept so :mod:`repro.simmpi.compression` can demonstrate CYPRESS-style
loop-folding trace compression on the same data.

Matrices are returned dense for small N and as CSR for large N, because
the structured applications (NPB, ring allreduce) have O(N) nonzeros and
the mapping algorithms handle sparse input natively.

Since the repro.obs span schema became the repo's one trace format, a
profile can be exported onto it: :meth:`TraceRecorder.to_span` bridges
the aggregated message stream into a ``profile.messages`` span (one
``profile.pair`` event per communicating rank pair), and
:meth:`TraceRecorder.write_trace` writes a schema-valid trace file that
``repro trace-report`` / ``repro metrics`` consume directly.  The raw
per-rank streams are read through :meth:`event_streams` /
:meth:`rank_events`.
"""

from __future__ import annotations

import contextvars
from collections import defaultdict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_int

if TYPE_CHECKING:
    from ..obs import Span

__all__ = ["TraceRecorder", "DENSE_LIMIT"]

#: Below this many ranks, communication matrices are returned dense.
DENSE_LIMIT = 256


class TraceRecorder:
    """Accumulates the message stream of one drained or simulated run.

    Parameters
    ----------
    num_ranks:
        N, fixed up front so matrix shapes are unambiguous.
    keep_events:
        When True, every send is also appended to the per-source event
        stream (tuples ``(dst, nbytes, tag)``), enabling trace
        compression; off by default because large runs emit millions of
        messages.
    """

    def __init__(self, num_ranks: int, *, keep_events: bool = False) -> None:
        self.num_ranks = check_positive_int(num_ranks, "num_ranks")
        self.keep_events = bool(keep_events)
        self._volume: dict[tuple[int, int], float] = defaultdict(float)
        self._count: dict[tuple[int, int], int] = defaultdict(int)
        self._events: list[list[tuple[int, int, int]]] = [
            [] for _ in range(num_ranks)
        ]
        self.total_messages = 0
        self.total_bytes = 0

    def record(
        self, src: int, dst: int, nbytes: int, tag: int, times: int = 1
    ) -> None:
        """Observe ``times`` identical messages in a row.

        The drain passes a ``Repeat`` body's weight here, or replays the
        loop when ``keep_events`` is on (see
        :class:`~repro.simmpi.engine.Tracer`).
        """
        key = (src, dst)
        self._volume[key] += nbytes * times
        self._count[key] += times
        self.total_messages += times
        self.total_bytes += nbytes * times
        if self.keep_events:
            self._events[src].extend([(dst, nbytes, tag)] * times)

    # --------------------------------------------------------- event access

    def event_streams(self) -> list[list[tuple[int, int, int]]]:
        """Per-source-rank message streams (``(dst, nbytes, tag)`` tuples).

        Empty lists unless the recorder was built with
        ``keep_events=True``.
        """
        return self._events

    def rank_events(self, rank: int) -> list[tuple[int, int, int]]:
        """One rank's outgoing message stream."""
        return self._events[rank]

    # --------------------------------------------------------- span bridge

    def _build_span(self) -> "Span":
        from ..obs import SpanRecorder

        rec = SpanRecorder(clock=lambda: 0.0)
        with rec.span(
            "profile.messages",
            num_ranks=self.num_ranks,
            kept_events=self.keep_events,
        ) as span:
            span.add("messages", self.total_messages)
            span.add("bytes", self.total_bytes)
            span.add("pairs", self.nonzero_pairs())
            for src, dst in sorted(self._count):
                rec.event(
                    "profile.pair",
                    src_rank=src,
                    dst_rank=dst,
                    messages=self._count[(src, dst)],
                    bytes=self._volume[(src, dst)],
                )
        return rec.roots[0]

    def to_span(self) -> "Span":
        """The aggregated profile as one repro.obs span.

        The span is named ``profile.messages`` with ``messages`` /
        ``bytes`` / ``pairs`` counters and one ``profile.pair`` event
        per communicating ``(src, dst)`` rank pair.  The profiler has no
        meaningful clock, so all timestamps are zero.

        Built in an isolated :mod:`contextvars` context so an ambient
        trace in progress (e.g. under ``--trace``) never adopts the
        bridge span into its own tree.
        """
        return contextvars.Context().run(self._build_span)

    def write_trace(self, path: "str | Path") -> Path:
        """Write the profile as a trace JSON file.

        The output loads back through :func:`repro.obs.load_trace` and
        feeds ``repro trace-report`` / ``repro metrics`` directly.
        """
        from ..obs import write_trace

        return write_trace(path, [self.to_span()])

    # ------------------------------------------------------------- matrices

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
