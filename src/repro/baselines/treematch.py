"""TreeMatch-style hierarchical mapper (related work).

TreeMatch [Jeannot & Mercier] maps processes onto *hierarchical*
topologies: it groups processes bottom-up by communication affinity into
clusters matching the arity of each topology level, then assigns the
groups to subtrees.  Geo-distributed clouds are naturally two-level
(nodes inside sites, sites inside the WAN), so a TreeMatch-style
algorithm is the obvious off-the-shelf contender the paper's novelty
rests against — this implementation lets the repository measure that
comparison instead of citing it.

Algorithm here (two-level specialization):

1. **Group** the N processes into M clusters sized to the site
   capacities by affinity agglomeration: repeatedly merge the pair of
   clusters with the largest inter-cluster traffic whose combined size
   still fits some site (a faithful rendition of TreeMatch's
   arity-grouping, adapted to unequal "arities" = capacities).
2. **Assign** clusters to sites: order clusters by total external
   traffic, greedily place each on the free site minimizing the cost
   against already-placed clusters (TreeMatch's subtree assignment,
   with the geo link matrix in place of a tree distance).

Unlike the paper's algorithm it performs no global order enumeration —
which is exactly the gap the ablation bench quantifies.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..core.constraints import constrained_sites_available
from ..core.mapping import Mapper, register_mapper
from ..core.problem import UNCONSTRAINED, MappingProblem

__all__ = ["TreeMatchMapper"]


def _symmetric_dense(problem: MappingProblem) -> np.ndarray:
    cg = problem.CG
    if sp.issparse(cg):
        cg = cg.toarray()
    sym = cg + cg.T
    np.fill_diagonal(sym, 0.0)
    return sym


def _block_sum(mat, rows: np.ndarray, cols: np.ndarray) -> float:
    """``mat[rows, cols].sum()`` without densifying a sparse matrix."""
    if sp.issparse(mat):
        return float(mat[rows][:, cols].sum())
    return float(mat[np.ix_(rows, cols)].sum())


class TreeMatchMapper(Mapper):
    """Hierarchical affinity grouping + greedy subtree assignment.

    Clusters are placed in order of their external traffic, heaviest
    first.
    """

    name = "treematch"

    # ----------------------------------------------------------------- solve

    def _solve(self, problem: MappingProblem, rng: np.random.Generator) -> np.ndarray:
        n, m = problem.num_processes, problem.num_sites
        sym = _symmetric_dense(problem)
        caps = problem.capacities

        # Pinned processes pre-seed one cluster per pinned site.
        pinned_mask = problem.constraints != UNCONSTRAINED
        remaining = constrained_sites_available(problem.constraints, problem.capacities)

        # Clusters: list of (member process indices, forced site or -1).
        clusters: list[list[int]] = []
        forced: list[int] = []
        for site in range(m):
            members = np.flatnonzero(pinned_mask & (problem.constraints == site))
            if members.size:
                clusters.append(list(members))
                forced.append(site)
        for i in np.flatnonzero(~pinned_mask):
            clusters.append([int(i)])
            forced.append(-1)

        max_cap = int(caps.max())

        # Inter-cluster traffic matrix, updated as clusters merge.
        def cluster_traffic(a: list[int], b: list[int]) -> float:
            return float(sym[np.ix_(a, b)].sum())

        k = len(clusters)
        traffic = np.zeros((k, k))
        for x in range(k):
            for y in range(x + 1, k):
                traffic[x, y] = traffic[y, x] = cluster_traffic(clusters[x], clusters[y])
        alive = np.ones(k, dtype=bool)
        sizes = np.array([len(c) for c in clusters])

        def mergeable(x: int, y: int) -> bool:
            if forced[x] >= 0 and forced[y] >= 0 and forced[x] != forced[y]:
                return False
            total = sizes[x] + sizes[y]
            if forced[x] >= 0:
                return total <= caps[forced[x]]
            if forced[y] >= 0:
                return total <= caps[forced[y]]
            return total <= max_cap

        # Agglomerate until the clusters are packable onto the sites.
        while int(alive.sum()) > m:
            # Find the heaviest mergeable pair (ties by lowest indices).
            best: tuple[int, int] | None = None
            best_w = -1.0
            idx = np.flatnonzero(alive)
            for ai, x in enumerate(idx):
                for y in idx[ai + 1 :]:
                    if traffic[x, y] > best_w and mergeable(int(x), int(y)):
                        best_w = traffic[x, y]
                        best = (int(x), int(y))
            if best is None:
                break  # nothing mergeable; fall through to assignment
            x, y = best
            clusters[x].extend(clusters[y])
            if forced[y] >= 0:
                forced[x] = forced[y]
            sizes[x] += sizes[y]
            alive[y] = False
            traffic[x, :] += traffic[y, :]
            traffic[:, x] += traffic[:, y]
            traffic[x, x] = 0.0
            traffic[y, :] = traffic[:, y] = 0.0

        live = [i for i in np.flatnonzero(alive)]

        # Greedy cluster -> site assignment.  Clusters pinned to a site go
        # first so free processes can never steal their reserved slots.
        ext = [float(traffic[i, :].sum()) for i in live]
        order = [live[i] for i in np.argsort(-np.asarray(ext), kind="stable")]
        order = [c for c in order if forced[c] >= 0] + [
            c for c in order if forced[c] < 0
        ]

        P = np.full(n, -1, dtype=np.int64)
        free = caps.copy()
        # LT/1/BT contraction for placement scoring.
        inv_bt = 1.0 / problem.BT
        lt = problem.LT
        placed_sites: list[tuple[int, int]] = []  # (cluster index, site)

        # Block sums work directly on the stored matrices (sparse slicing
        # for sparse problems) — no N x N densification.
        ag = problem.AG
        cg = problem.CG

        def place_cost(cluster: list[int], site: int) -> float:
            """Cost of this cluster's traffic with already-placed ones."""
            total = 0.0
            members = np.asarray(cluster)
            for other_idx, other_site in placed_sites:
                others = np.asarray(clusters[other_idx])
                c_out = _block_sum(cg, members, others)
                c_in = _block_sum(cg, others, members)
                a_out = _block_sum(ag, members, others)
                a_in = _block_sum(ag, others, members)
                total += (
                    a_out * lt[site, other_site]
                    + c_out * inv_bt[site, other_site]
                    + a_in * lt[other_site, site]
                    + c_in * inv_bt[other_site, site]
                )
            # Internal traffic prefers fat intra-site links.
            c_int = _block_sum(cg, members, members)
            a_int = _block_sum(ag, members, members)
            total += a_int * lt[site, site] + c_int * inv_bt[site, site]
            return total

        for ci in order:
            cluster = clusters[ci]
            if forced[ci] >= 0:
                site = forced[ci]
            else:
                candidates = np.flatnonzero(free >= len(cluster))
                if candidates.size == 0:
                    # Cluster no longer fits whole: split greedily over
                    # open sites (rare; happens when agglomeration stopped
                    # early).
                    for proc in cluster:
                        s = int(np.argmax(free))
                        P[proc] = s
                        free[s] -= 1
                    continue
                costs = [place_cost(cluster, int(s)) for s in candidates]
                site = int(candidates[int(np.argmin(costs))])
            for proc in cluster:
                P[proc] = site
            free[site] -= len(cluster)
            placed_sites.append((ci, site))

        # Safety: any stragglers (should not happen) go to open slots.
        for i in np.flatnonzero(P < 0):
            s = int(np.argmax(free))
            P[i] = s
            free[s] -= 1
        return P


register_mapper(TreeMatchMapper, TreeMatchMapper.name)
