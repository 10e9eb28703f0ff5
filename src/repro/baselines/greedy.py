"""The Greedy baseline (Hoefler & Snir, ICS'11).

The paper describes the state-of-the-art heuristic for heterogeneous
networks as: "the task with the largest data volume to transfer is mapped
to the machines with the highest total bandwidth of all its associated
links".  Concretely:

* sites are ranked once by their static *total bandwidth* — the sum of the
  bandwidths of every link touching the site (intra-site links dominate
  this score, so well-provisioned sites rank first);
* processes are placed heaviest-first onto the best-ranked site with free
  slots.  The default process order is *affinity growth* ("most traffic
  with the already-placed set", the neighbor-aware member of the greedy
  family); ``affinity_growth=False`` switches to a purely static
  descending-volume order, the most literal reading of the one-liner.

The *site* choice is static either way: Greedy never looks at which sites
its communication partners landed on, which is why it exploits locality on
diagonal NPB patterns but cannot align complex patterns (K-means, DNN)
with the heterogeneous links — the gap the paper's Geo-distributed
algorithm closes.
"""

from __future__ import annotations

import numpy as np

from ..core.constraints import constrained_sites_available
from ..core.geodist import _affinity_row, _symmetric_traffic
from ..core.mapping import Mapper, register_mapper
from ..core.problem import UNCONSTRAINED, MappingProblem

__all__ = ["GreedyMapper", "site_total_bandwidth"]


def site_total_bandwidth(problem: MappingProblem) -> np.ndarray:
    """Static per-site score: total bandwidth of all associated links.

    ``score[j] = sum_l BT[j, l] + BT[l, j]`` (both directions, including
    the intra-site link, which is what makes fat-NIC sites attractive).
    """
    bt = problem.BT
    return bt.sum(axis=1) + bt.sum(axis=0)


class GreedyMapper(Mapper):
    """Greedy heuristic for heterogeneous network architectures.

    Parameters
    ----------
    affinity_growth:
        When True (default), each step places the process with the most
        traffic to the already-placed set — the neighbor-aware member of
        the Hoefler-Snir greedy family, and the strongest Greedy we can
        build.  When False, processes are placed in static
        descending-volume order (the most literal reading of the paper's
        one-line description); the ablation benchmarks compare both.
        Because the default is the stronger variant, our Greedy does
        better on complex patterns than the paper's Greedy — a deviation
        EXPERIMENTS.md calls out.
    """

    name = "greedy"

    def __init__(self, *, affinity_growth: bool = True) -> None:
        self.affinity_growth = bool(affinity_growth)

    def _solve(
        self, problem: MappingProblem, rng: np.random.Generator
    ) -> tuple[np.ndarray, dict]:
        n = problem.num_processes
        P = problem.constraints.copy()
        selected = P != UNCONSTRAINED
        avail = constrained_sites_available(problem.constraints, problem.capacities).copy()

        score = site_total_bandwidth(problem)
        quantity = problem.communication_quantity()
        neg_inf = -np.inf

        if not self.affinity_growth:
            # Static order: heaviest volume first, ties by rank index
            # (np.argsort on -quantity is stable).
            placed = 0
            order = np.argsort(-quantity, kind="stable")
            for t in order:
                if selected[t]:
                    continue
                open_sites = np.flatnonzero(avail > 0)
                site = int(open_sites[np.argmax(score[open_sites])])
                P[t] = site
                selected[t] = True
                avail[site] -= 1
                placed += 1
            return P, {"variant": "static-volume", "placed": placed}

        # Affinity-growth variant: seed from the constrained set, then
        # repeatedly pull in the process most connected to what is placed.
        sym = _symmetric_traffic(problem)
        affinity = np.zeros(n)
        for res in np.flatnonzero(selected):
            affinity += _affinity_row(sym, int(res))
        affinity_picks = fallback_picks = 0
        for _ in range(n - int(selected.sum())):
            masked = np.where(selected, neg_inf, affinity)
            t = int(np.argmax(masked))
            if masked[t] <= 0.0:
                t = int(np.argmax(np.where(selected, neg_inf, quantity)))
                fallback_picks += 1
            else:
                affinity_picks += 1
            open_sites = np.flatnonzero(avail > 0)
            site = int(open_sites[np.argmax(score[open_sites])])
            P[t] = site
            selected[t] = True
            avail[site] -= 1
            affinity += _affinity_row(sym, t)
        meta = {
            "variant": "affinity-growth",
            "affinity_picks": affinity_picks,
            "fallback_picks": fallback_picks,
        }
        return P, meta


register_mapper(GreedyMapper, GreedyMapper.name)
