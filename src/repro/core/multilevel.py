"""Multilevel process mapping: coarsen -> map -> uncoarsen + refine.

The paper's Algorithm 1 enumerates kappa! group orders with an O(N^2)
greedy fill, which caps practical problem size near N=4096 even after
vectorization.  Multilevel coarsening is the established route to large
sparse process mapping (Schulz & Traff, "Better Process Mapping and
Sparse Quadratic Assignment"): contract the communication graph until it
is small enough for the direct solver, map the coarse graph, then
project the solution back level by level, repairing capacities and
locally refining at each step.

Pipeline of :class:`MultilevelMapper`:

1. **Coarsen** — seeded heavy-edge matching on ``CG + CG^T``
   (vectorized mutual-best rounds, deterministic tie-breaking by a
   seeded priority permutation), then contract matched pairs into
   super-vertices with summed traffic and merged edges.  Rounds run
   until one pairs nothing (at most ``match_rounds``), so each level
   pairs all it can; why coarsening stopped is recorded as
   ``meta["coarsen_stop"]``.  Each round's
   proposals cost O(live edges) with no sort: the edge list, shrunk
   after every round to the edges between unmatched vertices, is
   grouped by source vertex, so a vertex's heaviest edge is a segmented
   max (``np.maximum.reduceat``) and its tie-break a second segmented
   max over the priorities of the edges that reach that weight.  Self-loops
   created by contraction are dropped from the matrices but accounted
   (``internal_volume``/``internal_count``) so conservation is testable.
   A pinned vertex only ever matches a vertex pinned to the *same*
   site, so every super-vertex is either fully unpinned or entirely
   pinned to one site — pins survive contraction exactly and the pinned
   node-load per site never exceeds the fine problem's.
2. **Solve** — map the coarsest graph with
   :class:`~repro.core.geodist.GeoDistributedMapper`, falling back to
   the Greedy baseline above ``INNER_FALLBACK_SIZE`` vertices.  The
   inner mapper sees vertex-unit capacities scaled as
   ``max(ceil(cap * N_c / N), pinned_vertices)`` — feasible by
   construction; the node-unit capacities are enforced afterwards by
   the evict-and-place pass incremental repair also runs
   (:mod:`repro.core.repair`), with super-vertex sizes as node demands.
   Super-vertices too large for any remaining site are deferred
   ``UNPLACED`` and placed by the same pass at a finer level, where
   they have split; at level 0 every vertex has size 1 and placement
   always succeeds.
3. **Uncoarsen + refine** — project each coarse assignment onto the
   finer level (children inherit their parent's site, which preserves
   node-unit loads exactly) and run a bounded, gain-based refinement:
   one :meth:`CostEvaluator.move_delta_matrix` per round proposes
   moves, each verified against the live assignment with an exact
   O(row nnz) delta before acceptance, capacities tracked in node
   units, pinned vertices immovable.  Deterministic, hence bit-identical
   across same-seed runs.

Everything rides the sparse-first cost core: contraction and deltas
touch only stored entries, so N=65536 problems never materialize an
N x N dense array.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .._validation import (
    InputError,
    check_nonnegative_int,
    check_positive_int,
    check_vector,
    coerce,
)
from ..obs import get_recorder
from .cost import CostEvaluator
from .geodist import _symmetric_traffic
from .mapping import Mapper, register_mapper
from .problem import UNCONSTRAINED, MappingProblem
from .repair import UNPLACED, _evict_overflow, _place_heaviest_first

__all__ = ["Level", "MultilevelMapper", "heavy_edge_matching", "contract"]

#: Gain threshold mirroring repair's: strict improvement beyond float noise.
_EPS = -1e-12

#: Largest coarsest graph the inner geodist solve is trusted with; a
#: larger one is mapped by the Greedy baseline.
INNER_FALLBACK_SIZE = 4096


class Level:
    """One rung of the coarsening hierarchy.

    Attributes
    ----------
    problem:
        The contracted :class:`MappingProblem` at this level.  Sites are
        untouched by coarsening, so LT/BT/capacities/coordinates are the
        original ones; only the process side shrinks.
    sizes:
        (N_l,) fine processes inside each super-vertex (all ones at
        level 0).  A vertex mapped to site ``s`` consumes ``sizes[v]``
        of ``s``'s node capacity.
    fine_to_coarse:
        (N_{l},) parent index of each of this level's vertices in the
        *next coarser* level, or ``None`` for the coarsest level.
    internal_volume / internal_count:
        CG / AG weight absorbed into super-vertices when this level was
        contracted into the next (self-loops dropped from the coarse
        matrices).  Zero for the coarsest level.
    """

    __slots__ = ("problem", "sizes", "fine_to_coarse", "internal_volume", "internal_count")

    def __init__(self, problem: MappingProblem, sizes: np.ndarray) -> None:
        self.problem = problem
        self.sizes = sizes
        self.fine_to_coarse: np.ndarray | None = None
        self.internal_volume = 0.0
        self.internal_count = 0.0


def _affinity_edges(sym) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, w) arrays of all directed affinity edges, zero-free, grouped by u.

    Both branches read row-major (a canonical CSR or ``np.nonzero``), so
    ``u`` comes out ascending; the segmented max in
    :func:`heavy_edge_matching` relies on that order.
    """
    if sp.issparse(sym):
        coo = sym.tocoo()
        return (
            coo.row.astype(np.int64),
            coo.col.astype(np.int64),
            coo.data.astype(np.float64),
        )
    u, v = np.nonzero(sym)
    return u.astype(np.int64), v.astype(np.int64), sym[u, v].astype(np.float64)


def heavy_edge_matching(
    problem: MappingProblem,
    rng: np.random.Generator,
    *,
    rounds: int = 16,
) -> np.ndarray:
    """Seeded heavy-edge matching on the symmetric communication graph.

    Returns ``mate``: (N,) partner index per vertex, ``-1`` for
    singletons.  Each round every unmatched vertex proposes to its
    heaviest-edge unmatched neighbor (ties broken by a seeded priority
    permutation, so the result is deterministic for a given generator
    state) and mutual proposals become matches — the classic
    vectorized local-max scheme.

    Rounds run until one pairs nothing, at most ``rounds`` of them.
    Stopping early is exact: a round that pairs nothing leaves ``mate``
    unchanged, so every later round would make the same proposals.  The
    cap still matters, since a monotone-weight path pairs only one pair
    per round.  After each round the edge list shrinks to the edges
    between still-unmatched vertices, so a round costs O(live edges).

    A vertex pinned by the constraint vector only matches a vertex
    pinned to the same site; unpinned vertices only match unpinned
    ones.  This keeps every super-vertex's pin well-defined and the
    pinned node-load per site invariant across levels.
    """
    n = problem.num_processes
    mate = np.full(n, -1, dtype=np.int64)
    rounds = check_positive_int(rounds, "rounds")
    u, v, w = _affinity_edges(_symmetric_traffic(problem))
    if u.size == 0:
        return mate
    pins = problem.constraints
    allowed = pins[u] == pins[v]
    u, v, w = u[allowed], v[allowed], w[allowed]
    prio = rng.permutation(n)
    by_prio = np.argsort(prio)  # inverse permutation: priority -> vertex

    for _ in range(rounds):
        if u.size == 0:
            break
        # Edges stay grouped by ascending u, so u's heaviest edge
        # (highest-priority partner on ties) is a segmented max.
        head = np.diff(u, prepend=-1) != 0
        starts = np.flatnonzero(head)
        seg = np.cumsum(head) - 1
        top = np.maximum.reduceat(w, starts)
        best = np.maximum.reduceat(np.where(w == top[seg], prio[v], -1), starts)
        cand = u[starts]
        pref = np.full(n, -1, dtype=np.int64)
        pref[cand] = by_prio[best]
        mutual = cand[(pref[pref[cand]] == cand) & (pref[cand] != cand)]
        pair = mutual[mutual < pref[mutual]]
        if pair.size == 0:
            break
        mate[pair] = pref[pair]
        mate[pref[pair]] = pair
        live = (mate[u] == -1) & (mate[v] == -1)
        u, v, w = u[live], v[live], w[live]
    return mate


def contract(
    problem: MappingProblem, sizes: np.ndarray, mate: np.ndarray
) -> tuple[MappingProblem, np.ndarray, np.ndarray, float, float]:
    """Contract matched pairs into a coarse problem.

    Returns ``(coarse, f2c, coarse_sizes, internal_volume,
    internal_count)`` where ``f2c`` maps each fine vertex to its coarse
    index, coarse vertex quantities are the sums over merged fine
    vertices, merged parallel edges are summed, and self-loops created
    by contraction are dropped from CG/AG but returned as the
    ``internal_*`` totals (conservation:
    ``coarse.CG.sum() + internal_volume == fine.CG.sum()``).

    Site-side data (LT/BT/capacities/coordinates) passes through
    untouched; the coarse capacity semantics stay *node units*, which
    the solver-side scaling in :class:`MultilevelMapper` adapts.
    """
    n = problem.num_processes
    sizes = check_vector(sizes, "sizes", size=n).astype(np.int64)
    mate = check_vector(mate, "mate", size=n).astype(np.int64)
    # Canonical representative: min(v, mate[v]); singletons represent
    # themselves.  Dense rank over sorted representatives gives 0..Nc-1.
    rep = np.where(mate >= 0, np.minimum(np.arange(n), mate), np.arange(n))
    uniq, f2c = np.unique(rep, return_inverse=True)
    nc = uniq.shape[0]
    coarse_sizes = np.bincount(f2c, weights=sizes.astype(np.float64), minlength=nc)
    coarse_sizes = coarse_sizes.astype(np.int64)

    def _contract_mat(mat):
        if sp.issparse(mat):
            csr = problem.cg_csr() if mat is problem.CG else problem.ag_csr()
            ci = f2c[csr.rows]
            cj = f2c[csr.indices]
            keep = ci != cj
            internal = float(csr.data[~keep].sum())
            coarse = sp.csr_matrix(
                (csr.data[keep], (ci[keep], cj[keep])), shape=(nc, nc)
            )
            coarse.sum_duplicates()
            return coarse, internal
        S = np.zeros((nc, n))
        S[f2c, np.arange(n)] = 1.0
        dense = S @ mat @ S.T
        internal = float(np.trace(dense))
        np.fill_diagonal(dense, 0.0)
        return dense, internal

    cg_c, internal_vol = _contract_mat(problem.CG)
    ag_c, internal_cnt = _contract_mat(problem.AG)

    # Per the matching rule all members of a super-vertex share one pin
    # (or none), so the representative's pin is the super-vertex's.
    cons_c = problem.constraints[uniq].copy()
    coarse = MappingProblem(
        CG=cg_c,
        AG=ag_c,
        LT=problem.LT,
        BT=problem.BT,
        capacities=problem.capacities,
        constraints=cons_c,
        coordinates=problem.coordinates,
    )
    return coarse, f2c, coarse_sizes, internal_vol, internal_cnt


class MultilevelMapper(Mapper):
    """Coarsen -> map -> uncoarsen + refine (see module docs).

    Parameters
    ----------
    kappa:
        Group count handed to the inner :class:`GeoDistributedMapper`.
    coarsest_size:
        Stop coarsening once the graph has at most this many vertices.
    max_levels:
        Hard cap on coarsening depth (safety against degenerate graphs).
    min_shrink:
        Abort coarsening early when a level shrinks the vertex count by
        less than this factor (e.g. 0.05 -> stop below 5% reduction);
        matching has degenerated and further levels would only add cost.
    match_rounds:
        Most mutual-proposal rounds per matching.  Matching stops
        earlier, at the first round that pairs nothing; the cap only
        bounds degenerate graphs (a monotone-weight path pairs one pair
        per round).
    refine_rounds:
        Gain-based refinement rounds per uncoarsening step; each round
        is one ``move_delta_matrix`` plus exact re-verification of the
        accepted moves.  0 disables refinement.
    grouping_seed:
        Forwarded to the inner geodist mapper's site grouping.
    """

    name = "multilevel"

    def __init__(
        self,
        kappa: int = 4,
        *,
        coarsest_size: int = 1024,
        max_levels: int = 20,
        min_shrink: float = 0.05,
        match_rounds: int = 16,
        refine_rounds: int = 2,
        grouping_seed: int = 0,
    ) -> None:
        self.kappa = check_positive_int(kappa, "kappa")
        self.coarsest_size = check_positive_int(coarsest_size, "coarsest_size")
        self.max_levels = check_positive_int(max_levels, "max_levels")
        self.min_shrink = coerce("min_shrink", float, min_shrink)
        if not 0.0 <= self.min_shrink < 1.0:
            raise InputError(f"min_shrink must be in [0, 1), got {min_shrink}")
        self.match_rounds = check_positive_int(match_rounds, "match_rounds")
        self.refine_rounds = check_nonnegative_int(refine_rounds, "refine_rounds")
        self.grouping_seed = grouping_seed

    # ----------------------------------------------------------------- solve

    def _solve(
        self, problem: MappingProblem, rng: np.random.Generator
    ) -> tuple[np.ndarray, dict]:
        obs = get_recorder()

        # ---- 1. coarsen.
        with obs.span("multilevel.coarsen") as span:
            levels, coarsen_stop = self._coarsen(problem, rng)
            span.set(
                num_levels=len(levels),
                level_sizes=[lv.problem.num_processes for lv in levels],
                stop=coarsen_stop,
            )

        # ---- 2. coarse solve + node-unit legalization.
        coarsest = levels[-1]
        with obs.span(
            "multilevel.solve", coarse_n=coarsest.problem.num_processes
        ) as span:
            # One evaluator per level: the coarse solve's legalization
            # and the coarsest level's refinement share theirs.
            evaluator = CostEvaluator(coarsest.problem)
            P, solve_meta = self._solve_coarsest(coarsest, evaluator, rng)
            deferred = int(np.count_nonzero(P == UNPLACED))
            span.set(inner=solve_meta["inner"], deferred=deferred)

        # ---- 3. uncoarsen + refine, coarsest-to-finest.
        refine_meta: list[dict] = []
        for depth in range(len(levels) - 1, -1, -1):
            level = levels[depth]
            if depth < len(levels) - 1:
                P = P[level.fine_to_coarse]  # project: children inherit sites
            with obs.span(
                "multilevel.refine", level=depth, n=level.problem.num_processes
            ) as span:
                if level is not coarsest:
                    evaluator = CostEvaluator(level.problem)
                P, stats = self._legalize_and_refine(level, evaluator, P)
                span.set(**stats)
                refine_meta.append({"level": depth, **stats})

        meta = {
            "levels": [
                {
                    "n": lv.problem.num_processes,
                    "nnz": int(lv.problem.CG.nnz)
                    if lv.problem.is_sparse
                    else int(np.count_nonzero(lv.problem.CG)),
                    "internal_volume": lv.internal_volume,
                    "internal_count": lv.internal_count,
                }
                for lv in levels
            ],
            "coarsen_stop": coarsen_stop,
            "coarse_deferred": deferred,
            **solve_meta,
            "refine": refine_meta,
        }
        return P, meta

    # --------------------------------------------------------------- coarsen

    def _coarsen(
        self, problem: MappingProblem, rng: np.random.Generator
    ) -> tuple[list[Level], str]:
        """Build the hierarchy, finest first.  Always at least one level.

        Also returns why coarsening stopped: ``"size"`` (at most
        ``coarsest_size`` vertices left), ``"max_levels"``,
        ``"no_match"`` (matching paired nothing) or ``"min_shrink"``
        (a level shrank too little and was discarded).
        """
        levels = [Level(problem, np.ones(problem.num_processes, dtype=np.int64))]
        while levels[-1].problem.num_processes > self.coarsest_size:
            if len(levels) > self.max_levels:
                return levels, "max_levels"
            fine = levels[-1]
            mate = heavy_edge_matching(
                fine.problem, rng, rounds=self.match_rounds
            )
            if not np.any(mate >= 0):
                return levels, "no_match"
            coarse_p, f2c, coarse_sizes, ivol, icnt = contract(
                fine.problem, fine.sizes, mate
            )
            shrink = 1.0 - coarse_p.num_processes / fine.problem.num_processes
            if shrink < self.min_shrink:
                return levels, "min_shrink"
            fine.fine_to_coarse = f2c
            fine.internal_volume = ivol
            fine.internal_count = icnt
            levels.append(Level(coarse_p, coarse_sizes))
        return levels, "size"

    # ---------------------------------------------------------- coarse solve

    def _inner_for(self, coarse: MappingProblem) -> Mapper:
        if coarse.num_processes > INNER_FALLBACK_SIZE:
            from ..baselines.greedy import GreedyMapper

            return GreedyMapper()
        from .geodist import GeoDistributedMapper

        return GeoDistributedMapper(
            kappa=self.kappa, grouping_seed=self.grouping_seed
        )

    def _solve_coarsest(
        self, level: Level, evaluator: CostEvaluator, rng: np.random.Generator
    ) -> tuple[np.ndarray, dict]:
        """Inner-solve the coarsest graph, then legalize node units.

        The inner mapper treats every vertex as one unit, so it runs on
        scaled vertex-unit capacities ``max(ceil(cap * Nc / N), pinned
        vertices)`` — their sum is >= Nc, so the scaled problem is
        always feasible.  The node-unit capacities are then enforced by
        eviction (least-affinity unpinned vertices leave overfull
        sites) and best-site re-placement; vertices too large for every
        remaining site defer to a finer level as ``UNPLACED``.
        """
        problem, sizes = level.problem, level.sizes
        nc = problem.num_processes
        total_nodes = int(sizes.sum())
        m = problem.num_sites

        pins = problem.constraints
        pinned = pins != UNCONSTRAINED
        pinned_per_site = np.bincount(pins[pinned], minlength=m)
        caps_units = np.maximum(
            np.ceil(problem.capacities * nc / total_nodes).astype(np.int64),
            pinned_per_site,
        )
        solver_problem = MappingProblem(
            CG=problem.CG,
            AG=problem.AG,
            LT=problem.LT,
            BT=problem.BT,
            capacities=caps_units,
            constraints=pins,
            coordinates=problem.coordinates,
        )
        inner = self._inner_for(solver_problem)
        mapping = inner.map(solver_problem, seed=rng)
        P = mapping.assignment.astype(np.int64).copy()

        # Node-unit legalization against the *real* capacities.
        placed = np.ones(nc, dtype=bool)
        free = _evict_overflow(problem, P, placed, sizes)
        evicted = np.flatnonzero(~placed)
        _place_heaviest_first(evaluator, P, placed, sizes, free, evicted)
        meta = {
            "inner": inner.name,
            "inner_cost_vertex_units": mapping.cost,
            "coarse_evicted": int(evicted.shape[0]),
        }
        return P, meta

    # ------------------------------------------------------------ refinement

    def _legalize_and_refine(
        self, level: Level, evaluator: CostEvaluator, P: np.ndarray
    ) -> tuple[np.ndarray, dict]:
        """Place any deferred vertices, then run bounded gain refinement.

        Runs the same evict-and-place pass as the coarse solve and
        repair.  Projection preserves node-unit loads exactly (children
        occupy their parent's site with the same total size), so the
        eviction finds nothing to evict and only deferred ``UNPLACED``
        vertices must find a site.  At level 0 all sizes are 1 and total
        capacity covers N, so placement always completes and the final
        assignment is fully valid.
        """
        problem, sizes = level.problem, level.sizes
        n, m = problem.num_processes, problem.num_sites
        pinned = problem.constraints != UNCONSTRAINED
        P = P.copy()

        placed = P != UNPLACED
        free = _evict_overflow(problem, P, placed, sizes)
        deferred = np.flatnonzero(~placed)
        _, left = _place_heaviest_first(evaluator, P, placed, sizes, free, deferred)
        still_deferred = int(left.size)

        stats = {
            "placed_deferred": int(deferred.size) - still_deferred,
            "still_deferred": still_deferred,
            "rounds": 0,
            "moves": 0,
        }
        if still_deferred or self.refine_rounds == 0:
            # move_delta needs a complete assignment; with vertices still
            # deferred (only possible above level 0), skip refinement and
            # let the finer level handle both.
            return P, stats

        move_cap = max(64, n // 4)
        for _ in range(self.refine_rounds):
            stats["rounds"] += 1
            D = evaluator.move_delta_matrix(P)
            D[pinned, :] = np.inf
            D[np.arange(n), P] = np.inf
            D[sizes[:, None] > free[None, :]] = np.inf
            flat = np.flatnonzero(D.ravel() < _EPS)
            if flat.size == 0:
                break
            order = flat[np.argsort(D.ravel()[flat], kind="stable")]
            accepted = 0
            for code in order[: 4 * n]:
                if accepted >= move_cap:
                    break
                v, s = divmod(int(code), m)
                if free[s] < sizes[v]:
                    continue
                # D went stale after the first accepted move; re-verify
                # exactly in O(row nnz) against the live assignment.
                if evaluator._move_delta_unchecked(P, v, s) >= _EPS:
                    continue
                free[int(P[v])] += sizes[v]
                free[s] -= sizes[v]
                P[v] = s
                accepted += 1
            stats["moves"] += accepted
            if accepted == 0:
                break
        return P, stats


register_mapper(MultilevelMapper, MultilevelMapper.name)
