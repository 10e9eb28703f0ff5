"""Mid-run fault injection for the discrete-event simulator.

:class:`FaultyNetwork` is a drop-in replacement for
:class:`~repro.simmpi.network.SimNetwork` whose per-transfer timing
consults a :class:`~repro.faults.schedule.FaultSchedule` at the
transfer's ready time:

* **site outages** stall transfers touching the dark site until the
  outage clears (transfers into a *permanently* dark site raise
  :class:`SiteDownError` — the simulated run is lost, which is exactly
  the failure mode the sweep fabric records as a ``failed`` shard);
* **link events** (degradation, latency spike, flapping window) scale
  the alpha-beta terms of the affected transfer.

Because the simulator executes transfers in non-decreasing ready-time
order and the schedule is a pure function of time, a faulty run is just
as deterministic as a healthy one.

Link stats (:meth:`SimNetwork.link_stats`) are collected as in the
healthy network, so a traced faulty run reports its ``network.link``
events; a transfer's ``stall_s`` runs from its ready time to the moment
its link starts sending, so it includes the outage wait as well as
contention.
"""

from __future__ import annotations

import numpy as np

from ..core.problem import MappingProblem
from ..simmpi.network import SimNetwork
from .schedule import FaultSchedule

__all__ = ["FaultyNetwork", "SiteDownError"]


class SiteDownError(RuntimeError):
    """A transfer needs a site that a permanent outage has removed."""


class FaultyNetwork(SimNetwork):
    """A :class:`SimNetwork` perturbed by a fault schedule.

    Parameters
    ----------
    problem:
        Supplies the healthy LT/BT matrices (original site indexing).
    assignment:
        (N,) process -> site mapping, validated against ``problem``.
    schedule:
        The fault schedule evaluated per transfer.
    contention:
        As in :class:`SimNetwork`: serialize cross-site transfers per
        directed site pair.
    """

    def __init__(
        self,
        problem: MappingProblem,
        assignment: np.ndarray,
        schedule: FaultSchedule,
        *,
        contention: bool = True,
    ) -> None:
        super().__init__(problem, assignment, contention=contention)
        schedule.validate_sites(problem.num_sites)
        self.schedule = schedule

    def transfer(self, src: int, dst: int, nbytes: int, ready: float) -> float:
        a, b = self._site[src], self._site[dst]

        # Wait out site outages on either endpoint (fixed point over both
        # sites: coming back up at one site may land inside an outage of
        # the other).
        t = ready
        while True:
            up = max(self.schedule.site_up_from(a, t),
                     self.schedule.site_up_from(b, t))
            if up == float("inf"):
                raise SiteDownError(
                    f"transfer {src}->{dst} ({nbytes} bytes) needs site "
                    f"{a if self.schedule.site_up_from(a, t) == float('inf') else b}, "
                    f"which is permanently down at t={t:.6g}"
                )
            if up == t:
                break
            t = up

        lat_mult, lat_add, bw_mult = self.schedule.link_factors(a, b, t)
        alpha = self._lt[a][b] * lat_mult + lat_add
        busy = nbytes / (self._bt[a][b] * bw_mult)
        if a == b or not self.contention:
            if self._stats_on:
                self._record((a, b), nbytes, t - ready)
            return t + alpha + busy
        key = (a, b)
        start = max(t, self._link_free.get(key, 0.0))
        self._link_free[key] = start + busy
        if self._stats_on:
            self._record(key, nbytes, start - ready)
        return start + alpha + busy
