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
import scipy.sparse as sp

from ..core.constraints import constrained_sites_available
from ..core.geodist import _symmetric_traffic
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
        avail = constrained_sites_available(problem.constraints, problem.capacities)
        # Stable descending orders keep ties in index order, as argmax
        # does; scores and quantities are finite sums of non-negative
        # entries, so negating them keeps their order, ties included.
        # The site choice ignores which process is placed, so the k-th
        # placement takes the k-th free slot with sites in that order:
        # the first open site of maximal score at every pick.
        by_score = np.argsort(-site_total_bandwidth(problem), kind="stable")
        slots = np.repeat(by_score, avail[by_score])
        by_quantity = np.argsort(-problem.communication_quantity(), kind="stable")

        if not self.affinity_growth:
            # Static order: heaviest volume first, ties by rank index.
            order = by_quantity[~selected[by_quantity]]
            P[order] = slots[: order.size]
            return P, {"variant": "static-volume", "placed": int(order.size)}

        # Affinity-growth variant: seed from the constrained set, then
        # repeatedly pull in the process most connected to what is placed.
        # ``masked`` is the affinity of every unselected process and -inf
        # for the selected ones, which further row additions cannot
        # revive, so each pick is one argmax plus one row addition.
        sym = _symmetric_traffic(problem)
        masked = np.zeros(n)
        if sp.issparse(sym):
            # Each row is read once, so it is sliced from the CSR arrays
            # when its process is placed; building all N row views up
            # front measured about 10% slower.
            indices, data = sym.indices.astype(np.intp), sym.data
            bounds = sym.indptr.tolist()

            def add_row(t: int) -> None:
                start, end = bounds[t], bounds[t + 1]
                masked[indices[start:end]] += data[start:end]
        else:

            def add_row(t: int) -> None:
                np.add(masked, sym[t], out=masked)

        # Residents seed the affinity in ascending index order.
        pinned = np.flatnonzero(selected).tolist()
        for t in pinned:
            add_row(t)
        neg_inf = -np.inf
        masked[selected] = neg_inf
        # The heaviest unselected process is the first unselected one
        # from cursor ``q`` on; ``selected`` only grows, so ``q`` only
        # moves forward.
        heaviest = by_quantity.tolist()
        q = affinity_picks = fallback_picks = 0
        picks = []
        for _ in range(n - len(pinned)):
            t = int(masked.argmax())
            if masked[t] <= 0.0:
                while selected[heaviest[q]]:
                    q += 1
                t = heaviest[q]
                fallback_picks += 1
            else:
                affinity_picks += 1
            picks.append(t)
            selected[t] = True
            masked[t] = neg_inf
            add_row(t)
        P[picks] = slots[: len(picks)]
        meta = {
            "variant": "affinity-growth",
            "affinity_picks": affinity_picks,
            "fallback_picks": fallback_picks,
        }
        return P, meta


register_mapper(GreedyMapper, GreedyMapper.name)
