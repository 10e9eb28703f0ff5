"""The MPIPP baseline (Chen et al., ICS'06).

MPIPP is a profile-guided iterative placement toolset built on heuristic
k-way graph partitioning (Lee et al.), which it improves with iterative
pairwise exchange until no swap reduces the cost.  Our rendition:

1. **Partition** the communication graph into M parts sized to the site
   capacities (:func:`repro.baselines.kway.kway_partition`), with pinned
   processes fixed to their site's part.
2. **Assign parts to sites**: search part->site bijections compatible
   with sizes and constraints — exhaustively for small M, by greedy
   pairwise part exchange otherwise.
3. **Refine** with pairwise process exchange: compute the all-moves delta
   matrix, greedily pick non-overlapping candidate swaps, verify each with
   an exact delta before applying, and iterate until a pass yields no
   improvement (or the pass cap is hit).

The refinement passes dominate at O(N^2 * M) each, giving the cubic-ish
growth the paper observes in Fig. 4 and the reason it excludes MPIPP
beyond ~1000 processes in Fig. 7.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .._validation import check_positive_int
from ..core.cost import CostEvaluator, aggregate_site_traffic, total_cost
from ..core.mapping import Mapper, register_mapper
from ..core.problem import UNCONSTRAINED, MappingProblem
from .kway import kway_partition

__all__ = ["MPIPPMapper"]

#: Enumerate part->site assignments exhaustively up to this many sites.
_EXHAUSTIVE_SITES = 6

#: Minimum absolute gain for a part or process exchange to be applied,
#: guarding against floating-point churn.
_SWAP_TOLERANCE = 1e-9


def _part_sizes(problem: MappingProblem) -> np.ndarray:
    """Per-site process counts: proportional to capacity, honoring pins.

    In the paper's experiments N equals the total node count so sizes are
    simply the capacities; the proportional rule generalizes to slack
    deployments while never dropping below a site's pinned count.
    """
    n, caps = problem.num_processes, problem.capacities
    total = int(caps.sum())
    pinned = problem.constraints[problem.constraints != UNCONSTRAINED]
    floor = np.bincount(pinned, minlength=problem.num_sites) if pinned.size else np.zeros(
        problem.num_sites, dtype=np.int64
    )
    if total == n:
        return caps.copy()
    ideal = n * caps / total
    sizes = np.maximum(np.floor(ideal).astype(np.int64), floor)
    sizes = np.minimum(sizes, caps)
    # Distribute any remainder by largest fractional part, capacity-bound.
    while sizes.sum() < n:
        frac = np.where(sizes < caps, ideal - sizes, -np.inf)
        sizes[int(np.argmax(frac))] += 1
    while sizes.sum() > n:
        slack = np.where(sizes > floor, sizes - ideal, -np.inf)
        sizes[int(np.argmax(slack))] -= 1
    return sizes


class MPIPPMapper(Mapper):
    """MPIPP: k-way partitioning plus iterative pairwise exchange.

    Parameters
    ----------
    max_passes:
        Cap on refinement sweeps; each sweep is O(N^2 * M).
    restarts:
        Independent partition/refine trials (MPIPP evaluates several
        candidate placements and keeps the best); this is a large part of
        its overhead in Fig. 4.
    geo_aware:
        MPIPP was designed for symmetric cluster hierarchies: it models
        the network as *levels* (on-node, near, far), not as an arbitrary
        asymmetric distance-graded graph.  With the default ``False`` the
        partitions stay on their own sites, and refinement optimizes a
        symmetrized two-level view of LT/BT — it minimizes inter-site
        traffic but cannot align heavy site pairs with fast links.  This
        is why the paper sees MPIPP land mid-pack on every app.  Enabling
        ``geo_aware`` is an *extension* (refine against the true geo
        cost and search the part->site bijection) that the ablation
        benchmarks quantify.
    fast_refine:
        Replace the faithful O(N^3) exact pairwise scan with an
        O(N^2 * M) shortlist-and-verify pass (an extension; see
        ``_refine``).  Off by default so the optimization-overhead
        experiments reflect the original algorithm's complexity.

    An exchange is applied only if it gains more than ``1e-9``
    (``_SWAP_TOLERANCE``), which guards against floating-point churn.
    """

    name = "mpipp"

    def __init__(
        self,
        *,
        max_passes: int = 20,
        restarts: int = 2,
        geo_aware: bool = False,
        fast_refine: bool = False,
    ) -> None:
        self.max_passes = check_positive_int(max_passes, "max_passes")
        self.restarts = check_positive_int(restarts, "restarts")
        self.geo_aware = bool(geo_aware)
        self.fast_refine = bool(fast_refine)

    # ------------------------------------------------------- coarse network

    @staticmethod
    def _coarse_problem(problem: MappingProblem) -> MappingProblem:
        """The symmetric two-level network view MPIPP reasons about.

        Intra-site performance keeps its (averaged) value; every
        inter-site link is replaced by the mean inter-site latency and
        bandwidth.  Under this view the cost depends only on how much
        traffic crosses site boundaries — a weighted-cut objective.
        """
        m = problem.num_sites
        off = ~np.eye(m, dtype=bool)
        lt = np.full((m, m), problem.LT[off].mean() if m > 1 else 0.0)
        bt = np.full((m, m), problem.BT[off].mean() if m > 1 else problem.BT.mean())
        np.fill_diagonal(lt, np.diagonal(problem.LT).mean())
        np.fill_diagonal(bt, np.diagonal(problem.BT).mean())
        return MappingProblem(
            CG=problem.CG,
            AG=problem.AG,
            LT=lt,
            BT=bt,
            capacities=problem.capacities,
            constraints=problem.constraints,
            coordinates=problem.coordinates,
        )

    # ----------------------------------------------------------------- solve

    def _solve(
        self, problem: MappingProblem, rng: np.random.Generator
    ) -> tuple[np.ndarray, dict]:
        from ..obs import get_recorder

        obs = get_recorder()
        sizes = _part_sizes(problem)
        fixed = problem.constraints  # part index == site index by construction
        view = problem if self.geo_aware else self._coarse_problem(problem)
        best_P: np.ndarray | None = None
        best_cost = np.inf
        meta = {
            "restarts": self.restarts,
            "geo_aware": self.geo_aware,
            "fast_refine": self.fast_refine,
            "best_restart": -1,
            "refine_passes": 0,
        }
        for restart in range(self.restarts):
            with obs.span("mpipp.restart", index=restart) as sp:
                labels = kway_partition(
                    problem.CG,
                    sizes,
                    fixed=np.where(fixed == UNCONSTRAINED, -1, fixed),
                    seed=rng,
                )
                if self.geo_aware:
                    P = self._assign_parts(problem, labels, sizes)
                else:
                    P = labels.astype(np.int64)
                P, passes = self._refine(view, P)
                # Restart selection uses the cost *MPIPP believes in*.
                cost = total_cost(view, P)
                sp.set(cost=cost, refine_passes=passes)
            meta["refine_passes"] += passes
            if cost < best_cost:
                best_cost = cost
                best_P = P
                meta["best_restart"] = restart
        if best_P is None:
            raise RuntimeError(
                "MPIPP produced no candidate mapping across "
                f"{self.restarts} restart(s); this indicates a bug in the "
                "partition/refine pipeline"
            )
        return best_P, meta

    # ------------------------------------------------------- part assignment

    def _assign_parts(
        self, problem: MappingProblem, labels: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """Choose the part->site bijection minimizing the aggregate cost."""
        m = problem.num_sites
        vol, cnt = aggregate_site_traffic(problem, labels)

        # A part holding pinned processes must stay on its own site; a part
        # may only move to a site with enough capacity.
        pinned_parts = set(
            int(s) for s in problem.constraints[problem.constraints != UNCONSTRAINED]
        )
        caps = problem.capacities

        def perm_cost(perm: tuple[int, ...]) -> float:
            idx = np.asarray(perm)
            lt = problem.LT[np.ix_(idx, idx)]
            bt = problem.BT[np.ix_(idx, idx)]
            # perm[p] = site hosting part p; contract aggregates with the
            # permuted matrices.
            return float(np.sum(cnt * lt) + np.sum(vol / bt))

        def feasible(perm: tuple[int, ...]) -> bool:
            for part, site in enumerate(perm):
                if part in pinned_parts and site != part:
                    return False
                if sizes[part] > caps[site]:
                    return False
            return True

        if m <= _EXHAUSTIVE_SITES:
            best, best_cost = None, np.inf
            for perm in permutations(range(m)):
                if not feasible(perm):
                    continue
                c = perm_cost(perm)
                if c < best_cost:
                    best, best_cost = perm, c
            if best is None:  # unreachable: the identity bijection is feasible
                raise RuntimeError(
                    "no feasible part->site bijection found; the identity "
                    "assignment should always be feasible"
                )
            perm = best
        else:
            # Greedy pairwise part exchange from the identity assignment.
            perm = list(range(m))
            improved = True
            while improved:
                improved = False
                base = perm_cost(tuple(perm))
                for a in range(m):
                    for b in range(a + 1, m):
                        cand = perm.copy()
                        cand[a], cand[b] = cand[b], cand[a]
                        if not feasible(tuple(cand)):
                            continue
                        c = perm_cost(tuple(cand))
                        if c < base - _SWAP_TOLERANCE:
                            perm, base = cand, c
                            improved = True
            perm = tuple(perm)

        site_of_part = np.asarray(perm, dtype=np.int64)
        return site_of_part[labels]

    # -------------------------------------------------------------- refining

    def _refine(self, problem: MappingProblem, P: np.ndarray) -> tuple[np.ndarray, int]:
        """Iterative pairwise exchange until no swap improves the cost.

        The faithful mode scans, for every process, the exact exchange
        delta with every partner on another site — O(N) work per pair,
        O(N^3) per pass, the complexity the paper attributes to MPIPP
        (and the reason Fig. 7 drops it beyond ~1000 processes).  The
        ``fast_refine`` extension shortlists partners by the approximate
        gain from the O(N^2 * M) all-moves delta matrix
        (:meth:`CostEvaluator._swap_gains`) and verifies only the best
        candidate.  Exact deltas come from
        :meth:`CostEvaluator._swap_delta_unchecked`: every index here is
        valid by construction.

        Returns the refined assignment and the number of sweeps run
        (including the final no-improvement sweep that stopped it).
        """
        P = P.astype(np.int64).copy()
        ev = CostEvaluator(problem)
        movable = problem.constraints == UNCONSTRAINED
        n = problem.num_processes

        passes = 0
        for _ in range(self.max_passes):
            passes += 1
            applied = False
            if self.fast_refine:
                D = ev.move_delta_matrix(P)
                used = np.zeros(n, dtype=bool)
                order = np.argsort(D.min(axis=1))
                for i in order:
                    if used[i] or not movable[i]:
                        continue
                    partners = np.flatnonzero(movable & ~used & (P != P[i]))
                    if partners.size == 0:
                        continue
                    approx_gain = ev._swap_gains(D, P, i, partners)
                    j = int(partners[np.argmin(approx_gain)])
                    if approx_gain.min() >= -_SWAP_TOLERANCE:
                        continue
                    exact = ev._swap_delta_unchecked(P, int(i), j)
                    if exact < -_SWAP_TOLERANCE:
                        P[i], P[j] = P[j], P[i]
                        used[i] = used[j] = True
                        applied = True
            else:
                for i in range(n):
                    if not movable[i]:
                        continue
                    best_j, best_delta = -1, -_SWAP_TOLERANCE
                    for j in np.flatnonzero(movable & (P != P[i])).tolist():
                        delta = ev._swap_delta_unchecked(P, i, j)
                        if delta < best_delta:
                            best_j, best_delta = j, delta
                    if best_j >= 0:
                        P[i], P[best_j] = P[best_j], P[i]
                        applied = True
            if not applied:
                break
        return P, passes


register_mapper(MPIPPMapper, MPIPPMapper.name)
