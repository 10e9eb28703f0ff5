"""Network timing model for the simulator (the ns-2 substitute).

Transfers are timed with the same alpha-beta model the optimizer reasons
about (Section 3.1): sending n bytes from site k to site l takes
``LT[k, l] + n / BT[k, l]`` seconds.  On top of that, each *directed
cross-site link* is a FIFO resource: concurrent transfers over the same
site pair serialize their bandwidth terms, which is how scarce WAN
bandwidth actually behaves and what makes bad mappings hurt more than the
additive cost model alone predicts.  Intra-site transfers do not contend
(each node drives its own NIC through a non-blocking switch).

The network owns a snapshot of the mapping: it copies the assignment at
construction, so later changes to the caller's array do not reach it.
``transfer`` runs once per message, so it reads that snapshot and the
LT/BT tables as Python lists.  Indexing a numpy array would hand back
``np.float64`` scalars, and every rank clock the engine derives from them
would then run numpy-scalar arithmetic; Python floats are the same IEEE
doubles, so the timings are bit-identical either way.
"""

from __future__ import annotations

import numpy as np

from ..core.mapping import validate_assignment
from ..core.problem import MappingProblem

__all__ = ["SimNetwork", "UniformNetwork"]


class SimNetwork:
    """Timing + contention model for a mapped application.

    Parameters
    ----------
    problem:
        Supplies LT/BT and capacities (only LT/BT are used here).
    assignment:
        (N,) process -> site mapping; transfers are timed by the sites the
        endpoints live on.  The network keeps its own read-only copy
        (``self.assignment``), so mutating the caller's array afterwards
        does not change later transfers.
    contention:
        If True (default), serialize cross-site transfers per directed
        site pair; if False, links have infinite parallelism and the model
        reduces to pure alpha-beta.
    collect_stats:
        Accumulate per-directed-site-pair transfer counts, bytes, and
        contention stall time (readable via :meth:`link_stats`).  The
        default ``None`` defers the decision to :meth:`reset`: stats are
        collected exactly when the ambient observability recorder is
        enabled, so plain simulations pay nothing.
    """

    def __init__(
        self,
        problem: MappingProblem,
        assignment: np.ndarray,
        *,
        contention: bool = True,
        collect_stats: bool | None = None,
    ) -> None:
        self.assignment = validate_assignment(problem, assignment).copy()
        self.assignment.flags.writeable = False
        self.latency = problem.LT
        self.bandwidth = problem.BT
        # List snapshots for the per-message lookups in ``transfer``.
        self._site: list[int] = self.assignment.tolist()
        self._lt: list[list[float]] = problem.LT.tolist()
        self._bt: list[list[float]] = problem.BT.tolist()
        self.contention = bool(contention)
        self.collect_stats = collect_stats
        self._link_free: dict[tuple[int, int], float] = {}
        self._stats_on = False
        # Per directed site pair: [transfers, bytes, stall_s].
        self._pair_stats: dict[tuple[int, int], list[float]] = {}

    def reset(self) -> None:
        """Clear link occupancy and stats (e.g. between repeated runs)."""
        self._link_free.clear()
        self._pair_stats.clear()
        if self.collect_stats is None:
            from ..obs import get_recorder

            self._stats_on = get_recorder().enabled
        else:
            self._stats_on = bool(self.collect_stats)

    def _record(self, key: tuple[int, int], nbytes: int, stall: float) -> None:
        entry = self._pair_stats.get(key)
        if entry is None:
            entry = self._pair_stats[key] = [0, 0, 0.0]
        entry[0] += 1
        entry[1] += nbytes
        entry[2] += stall

    def link_stats(self) -> list[dict]:
        """Per-directed-site-pair totals since the last :meth:`reset`.

        Each entry is ``{"src_site", "dst_site", "transfers", "bytes",
        "stall_s"}``; pairs are sorted for deterministic output.  Empty
        unless stats collection was on for the run (see
        ``collect_stats``).
        """
        return [
            {
                "src_site": a,
                "dst_site": b,
                "transfers": int(entry[0]),
                "bytes": int(entry[1]),
                "stall_s": float(entry[2]),
            }
            for (a, b), entry in sorted(self._pair_stats.items())
        ]

    def transfer(self, src: int, dst: int, nbytes: int, ready: float) -> float:
        """Completion time of an ``nbytes`` transfer ready at ``ready``.

        Returns the absolute simulated time at which the receiver holds
        the data.  Updates the link occupancy as a side effect.
        """
        a, b = self._site[src], self._site[dst]
        alpha = self._lt[a][b]
        busy = nbytes / self._bt[a][b]
        if a == b or not self.contention:
            if self._stats_on:
                self._record((a, b), nbytes, 0.0)
            return ready + alpha + busy
        key = (a, b)
        start = max(ready, self._link_free.get(key, 0.0))
        self._link_free[key] = start + busy
        if self._stats_on:
            self._record(key, nbytes, start - ready)
        return start + alpha + busy


class UniformNetwork:
    """Timing-free, contention-free network for the simulator tests.

    Every transfer takes the same small constant time and nothing ever
    contends, so a test can drive :class:`~repro.simmpi.engine.Simulator`
    without a topology or a mapping.  Profiling does not use it:
    ``Application.profile`` drains programs with no network at all.
    """

    def __init__(self, transfer_time: float = 1e-6) -> None:
        if transfer_time <= 0:
            raise ValueError(f"transfer_time must be positive, got {transfer_time}")
        self.transfer_time = float(transfer_time)

    def reset(self) -> None:  # interface parity with SimNetwork
        """No state to clear."""

    def transfer(self, src: int, dst: int, nbytes: int, ready: float) -> float:
        return ready + self.transfer_time
