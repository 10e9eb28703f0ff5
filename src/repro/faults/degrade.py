"""Deterministic topology/problem degradation under a fault schedule.

Given a :class:`~repro.core.problem.MappingProblem` and a
:class:`~repro.faults.schedule.FaultSchedule`, produce the *degraded*
problem at a point in simulated time: dead sites removed, shrunk
capacities debited, link matrices scaled by the active degradations.
The result carries the index bookkeeping (original <-> reduced site
indices) the incremental repair mapper needs to translate assignments
back and forth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.problem import UNCONSTRAINED, InfeasibleProblemError, MappingProblem
from .schedule import FaultSchedule

__all__ = ["DegradedProblem", "degrade_problem"]


@dataclass(frozen=True)
class DegradedProblem:
    """A fault-degraded problem plus the original<->reduced index maps.

    Attributes
    ----------
    problem:
        The reduced :class:`MappingProblem` over the surviving sites,
        with degraded LT/BT and capacities.
    alive_sites:
        (M_alive,) original site index of each reduced site.
    site_map:
        (M_original,) reduced index of each original site, ``-1`` for
        dead sites.
    unpinned:
        Process indices whose constraint pin was released because it
        pointed at a dead/overfull site (only with ``on_lost_pin="unpin"``).
    at_time:
        The simulated time the degradation was evaluated at.
    """

    problem: MappingProblem
    alive_sites: np.ndarray
    site_map: np.ndarray
    unpinned: np.ndarray
    at_time: float

    @property
    def num_dead_sites(self) -> int:
        return int(self.site_map.shape[0] - self.alive_sites.shape[0])

    def to_original(self, assignment: np.ndarray) -> np.ndarray:
        """Translate a reduced-index assignment to original site indices."""
        P = np.asarray(assignment, dtype=np.int64)
        return self.alive_sites[P]

    def from_original(self, assignment: np.ndarray) -> np.ndarray:
        """Translate an original-index assignment to reduced indices.

        Processes sitting on dead sites come back as ``-1`` (the repair
        mapper's ``UNPLACED`` sentinel).
        """
        P = np.asarray(assignment, dtype=np.int64)
        if np.any((P < 0) | (P >= self.site_map.shape[0])):
            raise ValueError("assignment references sites outside the topology")
        return self.site_map[P]


def _released_pins(
    constraints: np.ndarray,
    caps_t: np.ndarray,
    alive: np.ndarray,
    on_lost_pin: str,
    context: str,
) -> tuple[np.ndarray, np.ndarray]:
    """(new_constraints, unpinned_processes) after dropping impossible pins.

    A pin is impossible when its site is dead, or when the site's shrunk
    capacity cannot hold all its pinned processes (excess pins released
    highest-process-index-first, deterministically).
    """
    cons = constraints.copy()
    released: list[int] = []
    pinned = np.flatnonzero(cons != UNCONSTRAINED)

    dead_pins = pinned[~alive[cons[pinned]]]
    if dead_pins.size:
        if on_lost_pin == "error":
            raise InfeasibleProblemError(
                f"{context}: processes {dead_pins[:10].tolist()} are pinned "
                "to dead sites; pass on_lost_pin='unpin' to release them"
            )
        cons[dead_pins] = UNCONSTRAINED
        released.extend(int(i) for i in dead_pins)

    # Shrunk sites: release excess pins (largest process index first).
    pinned = np.flatnonzero(cons != UNCONSTRAINED)
    if pinned.size:
        counts = np.bincount(cons[pinned], minlength=caps_t.shape[0])
        for site in np.flatnonzero(counts > caps_t):
            here = pinned[cons[pinned] == site]
            excess = int(counts[site] - caps_t[site])
            if on_lost_pin == "error":
                raise InfeasibleProblemError(
                    f"{context}: site {site} has {int(counts[site])} pinned "
                    f"processes but only {int(caps_t[site])} surviving nodes; "
                    "pass on_lost_pin='unpin' to release the excess"
                )
            drop = here[-excess:]
            cons[drop] = UNCONSTRAINED
            released.extend(int(i) for i in drop)

    return cons, np.array(sorted(released), dtype=np.int64)


def degrade_problem(
    problem: MappingProblem,
    schedule: FaultSchedule,
    at_time: float = 0.0,
    *,
    on_lost_pin: str = "error",
) -> DegradedProblem:
    """Evaluate ``schedule`` at ``at_time`` and reduce ``problem`` accordingly.

    Parameters
    ----------
    problem:
        The healthy problem.
    schedule:
        The fault schedule; site indices are validated against the problem.
    at_time:
        Simulated time to evaluate the schedule at.
    on_lost_pin:
        ``"error"`` (default) raises :class:`InfeasibleProblemError` when a
        constraint pin points at a dead or overfull site; ``"unpin"``
        releases such pins and records them in ``unpinned``.

    Raises
    ------
    InfeasibleProblemError
        When the surviving capacity cannot host all processes (the
        message names the deficit), or on impossible pins with
        ``on_lost_pin="error"``.
    """
    if on_lost_pin not in ("error", "unpin"):
        raise ValueError(
            f"on_lost_pin must be 'error' or 'unpin', got {on_lost_pin!r}"
        )
    m = problem.num_sites
    n = problem.num_processes
    schedule.validate_sites(m)

    caps_t = schedule.capacities_at(problem.capacities, at_time)
    down = schedule.sites_down(m, at_time)
    caps_t[down] = 0
    alive = caps_t > 0
    if not np.any(alive):
        raise InfeasibleProblemError(
            f"fault schedule leaves no site alive at t={at_time}"
        )
    surviving = int(caps_t.sum())
    if surviving < n:
        raise InfeasibleProblemError(
            f"fault schedule leaves capacity {surviving} for {n} processes "
            f"at t={at_time} (deficit: {n - surviving} nodes)"
        )

    alive_sites = np.flatnonzero(alive)
    site_map = np.full(m, -1, dtype=np.int64)
    site_map[alive_sites] = np.arange(alive_sites.shape[0])

    lat_mult, lat_add, bw_mult = schedule.link_effect_matrices(m, at_time)
    lt = problem.LT * lat_mult + lat_add
    bt = problem.BT * bw_mult
    ix = np.ix_(alive_sites, alive_sites)

    cons, unpinned = _released_pins(
        problem.constraints, caps_t, alive, on_lost_pin, "fault degradation"
    )
    cons_reduced = cons.copy()
    live_pin = cons_reduced != UNCONSTRAINED
    cons_reduced[live_pin] = site_map[cons_reduced[live_pin]]

    reduced = MappingProblem(
        CG=problem.CG,
        AG=problem.AG,
        LT=lt[ix].copy(),
        BT=bt[ix].copy(),
        capacities=caps_t[alive_sites].copy(),
        constraints=cons_reduced,
        coordinates=problem.coordinates[alive_sites].copy()
        if problem.coordinates is not None
        else None,
    )
    return DegradedProblem(
        problem=reduced,
        alive_sites=alive_sites,
        site_map=site_map,
        unpinned=unpinned,
        at_time=float(at_time),
    )
