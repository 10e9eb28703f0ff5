"""Incremental mapping repair after topology faults.

When a site fails or shrinks, re-running the full kappa! enumeration of
Algorithm 1 throws away the surviving placement and migrates processes
wholesale.  The :class:`IncrementalRepairMapper` instead takes the old
assignment with the *displaced* processes marked :data:`UNPLACED` and
moves only those, choosing each target site to minimize the new
alpha-beta cost given everything that stayed put — so migration volume
is (by construction) bounded by the displaced set, and the repaired cost
stays close to a from-scratch re-map.

Steps 1 and 2 are one placement pass — Algorithm 1's greedy fill
restricted to the processes that need a site — which the multilevel
mapper's node-unit legalization runs too, with super-vertex sizes where
repair uses all ones (:func:`_evict_overflow`,
:func:`_place_heaviest_first`):

1. evict overflow: if a surviving site's load now exceeds its (possibly
   reduced) capacity, the residents with the *least* affinity to the
   rest of the site are displaced until the load fits — pinned
   processes are never evicted;
2. place the displaced processes heaviest-communication-first, each on
   the feasible site minimizing its exact incremental alpha-beta cost
   against the current partial placement (one
   :meth:`CostEvaluator._site_costs` call per process);
3. optionally polish with a bounded best-move refinement that again
   touches only the displaced processes, preserving the migration bound;
4. with an ``extra_moves`` budget, spend it on kept processes: each
   round prices every move once (:meth:`CostEvaluator.move_delta_matrix`)
   and takes the best improving one, or else the best exactly-verified
   improving swap shortlisted from the same matrix (:func:`_best_swap`,
   row-blocked, so memory stays O(N * M) plus one block).

This module is deliberately independent of :mod:`repro.faults` — it
operates on any :class:`MappingProblem` plus a partial assignment, so
the fault layer (which knows how a schedule degrades a topology) builds
the partial assignment and calls in.
"""

from __future__ import annotations

from dataclasses import dataclass
import time

import numpy as np
import scipy.sparse as sp

from .._validation import InputError, check_nonnegative_int, check_vector
from .constraints import ensure_feasible
from .cost import CostEvaluator, total_cost
from .geodist import _symmetric_traffic
from .mapping import Mapping, validate_assignment
from .problem import UNCONSTRAINED, InfeasibleProblemError, MappingProblem

__all__ = ["UNPLACED", "RepairResult", "IncrementalRepairMapper", "repair_mapping"]

#: Sentinel in a partial assignment meaning "this process must be re-placed".
UNPLACED = -1


@dataclass(frozen=True)
class RepairResult:
    """Outcome of one incremental repair.

    Attributes
    ----------
    mapping:
        The repaired, validated :class:`Mapping` on the (degraded)
        problem the repair ran against.
    displaced:
        Process indices that had to be re-placed: the ones handed in as
        :data:`UNPLACED` plus any evicted to fit shrunk capacities.
    migrated:
        Process indices whose site actually changed relative to the
        partial assignment's non-``UNPLACED`` entries, plus all
        ``UNPLACED`` ones — the processes a deployment would move.
    """

    mapping: Mapping
    displaced: np.ndarray
    migrated: np.ndarray

    @property
    def num_migrated(self) -> int:
        return int(self.migrated.shape[0])


def _evict_overflow(
    problem: MappingProblem, P: np.ndarray, placed: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Least-affinity eviction: shrink every overfull site's load to fit.

    On each site whose load (in units of ``sizes``) exceeds its
    capacity, the unpinned residents leave in ascending order of their
    affinity (``CG + CG^T``) to all of the site's residents — a stable
    sort, so ties go by index — until the load fits.  Evicted vertices
    become :data:`UNPLACED` in ``P`` and drop out of ``placed`` (both
    updated in place).  Returns each site's free capacity, negative
    only where pinned residents alone overfill a site.
    """
    caps = problem.capacities.astype(np.int64)
    loads = np.bincount(
        P[placed], weights=sizes[placed].astype(np.float64), minlength=caps.shape[0]
    ).astype(np.int64)
    over = np.flatnonzero(loads > caps)
    if over.size == 0:
        return caps - loads
    sym = _symmetric_traffic(problem)
    pinned = problem.constraints != UNCONSTRAINED
    for site in over:
        residents = np.flatnonzero(P == site)
        movable = residents[~pinned[residents]]
        if sp.issparse(sym):
            aff = np.asarray(sym[movable][:, residents].sum(axis=1)).ravel()
        else:
            aff = sym[np.ix_(movable, residents)].sum(axis=1)
        leave = movable[np.argsort(aff, kind="stable")]
        # The fewest least-attached vertices whose sizes cover the excess.
        k = np.searchsorted(np.cumsum(sizes[leave]), loads[site] - caps[site]) + 1
        P[leave[:k]] = UNPLACED
        placed[leave[:k]] = False
        loads[site] -= sizes[leave[:k]].sum()
    return caps - loads


def _place_heaviest_first(
    evaluator: CostEvaluator,
    P: np.ndarray,
    placed: np.ndarray,
    sizes: np.ndarray,
    free: np.ndarray,
    vertices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 1's greedy fill restricted to the ``UNPLACED`` ``vertices``.

    Largest first, then heaviest communication (stable, ties by index):
    big vertices have the fewest feasible sites, so they pick before
    space fragments.  A pinned vertex goes to its pin site; any other
    to the site with room (``free >= sizes[v]``) of least exact
    incremental alpha-beta cost against the current placement
    (:meth:`CostEvaluator._site_costs`), lowest index on ties.  A vertex
    with nowhere to go stays ``UNPLACED``.  ``P``, ``placed`` and
    ``free`` are updated in place.  Returns ``(order, unplaced)``: the
    placement order and the vertices left out, in that order.
    """
    if vertices.size == 0:
        return vertices, vertices
    problem = evaluator.problem
    pins = problem.constraints
    quantity = problem.communication_quantity()
    order = vertices[np.lexsort((-quantity[vertices], -sizes[vertices]))]
    unplaced = []
    for v in order:
        if pins[v] != UNCONSTRAINED:
            target = int(pins[v])
            fits = free[target] >= sizes[v]
        else:
            cost = evaluator._site_costs(P, placed, int(v))
            cost[free < sizes[v]] = np.inf
            target = int(np.argmin(cost))
            fits = np.isfinite(cost[target])
        if not fits:
            unplaced.append(v)
            continue
        P[v] = target
        placed[v] = True
        free[target] -= sizes[v]
    return order, np.array(unplaced, dtype=np.int64)


def _best_swap(
    evaluator: CostEvaluator,
    P: np.ndarray,
    D: np.ndarray,
    movable: np.ndarray,
    billed: np.ndarray,
    budget: int,
) -> tuple[int, int] | None:
    """The best exactly-verified improving swap, or ``None``.

    Pairs ``i < j`` of movable processes on different sites are ranked
    by their approximate gain (:meth:`CostEvaluator._swap_gains` over
    the all-moves delta matrix ``D`` at ``P``); a swap bills budget for
    each participant in ``billed``, and pairs exceeding the remaining
    ``budget`` are excluded.  The 4N best negative gains, in ascending
    (gain, i, j) order, are verified exactly with
    :meth:`CostEvaluator._swap_delta_unchecked` — the first exact
    improvement wins.  Gains are scanned in row blocks of at most
    ``_DENSE_CHUNK_ELEMS`` pairs, merged into a running best, so memory
    is O(N * M + block), never N x N.
    """
    keep = 4 * P.shape[0]
    idx = np.flatnonzero(movable)
    bill, cap = billed[idx].astype(np.int8), min(budget, 2)
    best_g = np.empty(0)
    best_i = best_j = np.empty(0, dtype=np.int64)
    step = max(1, evaluator._DENSE_CHUNK_ELEMS // max(1, idx.size))
    for lo in range(0, idx.size, step):
        rows, cols = idx[lo : lo + step], idx[lo + 1 :]
        gain = evaluator._swap_gains(D, P, rows, cols)
        gain[
            (cols <= rows[:, None])
            | (P[rows][:, None] == P[cols])
            | (bill[lo : lo + step, None] + bill[lo + 1 :] > cap)
        ] = np.inf
        # Once the shortlist is full, a later pair must beat its last
        # entry outright: on a tie its larger i sorts after it.
        ok = gain < (best_g[-1] if best_g.size == keep else 0.0)
        if np.count_nonzero(ok) > keep:
            ok &= gain <= np.partition(gain, keep - 1, axis=None)[keep - 1]
        r, c = np.nonzero(ok)
        best_g = np.concatenate([best_g, gain[r, c]])
        best_i = np.concatenate([best_i, rows[r]])
        best_j = np.concatenate([best_j, cols[c]])
        order = np.lexsort((best_j, best_i, best_g))[:keep]
        best_g, best_i, best_j = best_g[order], best_i[order], best_j[order]
    for i, j in zip(best_i.tolist(), best_j.tolist()):
        if evaluator._swap_delta_unchecked(P, i, j) < -1e-12:
            return i, j
    return None


class IncrementalRepairMapper:
    """Migrate only displaced processes after a fault (see module docs).

    Parameters
    ----------
    refine_rounds:
        Number of best-move polish passes over the displaced set after
        the initial greedy placement.  Each pass is O(D * (N + M^2));
        0 disables polishing.
    extra_moves:
        Migration budget beyond the displaced set: up to this many
        *additional* processes (kept ones) may be relocated when doing
        so lowers the cost — the knob that trades migration volume for
        repair quality.  0 (default) moves only displaced processes.
    """

    name = "incremental-repair"

    def __init__(self, *, refine_rounds: int = 2, extra_moves: int = 0) -> None:
        self.refine_rounds = check_nonnegative_int(refine_rounds, "refine_rounds")
        self.extra_moves = check_nonnegative_int(extra_moves, "extra_moves")

    # ------------------------------------------------------------------ repair

    def repair(self, problem: MappingProblem, partial: np.ndarray) -> RepairResult:
        """Complete ``partial`` into a feasible mapping, moving minimally.

        ``partial`` is an (N,) integer vector: a site index for every
        process that should stay put, :data:`UNPLACED` for every process
        that must move.  Kept pinned processes must sit on their pinned
        site; an ``UNPLACED`` process that still carries a pin is placed
        on that site (if it has room) or the repair is infeasible.
        """
        from ..obs import get_recorder

        obs = get_recorder()
        with obs.span(
            "repair.run",
            mapper=self.name,
            refine_rounds=self.refine_rounds,
            extra_moves=self.extra_moves,
        ) as root:
            result = self._repair(problem, partial, obs)
            root.set(
                cost=result.mapping.cost,
                num_displaced=int(result.displaced.shape[0]),
                num_migrated=result.num_migrated,
            )
            return result

    def _repair(
        self, problem: MappingProblem, partial: np.ndarray, obs
    ) -> RepairResult:
        start = time.perf_counter()
        ensure_feasible(problem, context=self.name)
        n, m = problem.num_processes, problem.num_sites

        P = check_vector(partial, "partial", size=n).astype(np.int64)
        if np.any((P != UNPLACED) & ((P < 0) | (P >= m))):
            raise InputError("partial references sites outside 0..M-1")

        pins = problem.constraints
        pinned = pins != UNCONSTRAINED
        kept = P != UNPLACED
        broken = pinned & kept & (P != pins)
        if np.any(broken):
            raise InputError(
                f"partial contradicts the constraint vector for processes "
                f"{np.flatnonzero(broken)[:10].tolist()}"
            )

        placed = kept.copy()
        sizes = np.ones(n, dtype=np.int64)

        # ---- 1. evict overflow from shrunk sites (least-affinity first).
        with obs.span("repair.evict") as span:
            free = _evict_overflow(problem, P, placed, sizes)
            displaced_mask = ~placed
            displaced = np.flatnonzero(displaced_mask)
            evicted = int(displaced.shape[0] - np.count_nonzero(~kept))
            span.set(evicted=evicted)

        # ---- 2. greedy placement, heaviest communication first.
        evaluator = CostEvaluator(problem)
        with obs.span("repair.place", num_displaced=int(displaced.shape[0])):
            order, unplaced = _place_heaviest_first(
                evaluator, P, placed, sizes, free, displaced
            )
            # MappingProblem rejects pins that overfill a site and total
            # capacity below N, so the one process placement can leave
            # over is a pinned one whose site kept processes have filled.
            if unplaced.size:
                i = int(unplaced[0])
                raise InfeasibleProblemError(
                    f"{self.name}: process {i} is pinned to site {int(pins[i])}, "
                    "which has no free node left"
                )

        # ---- 3. bounded best-move polish, displaced processes only.
        polish_rounds = 0
        with obs.span("repair.polish") as span:
            for _ in range(self.refine_rounds):
                polish_rounds += 1
                improved = False
                for i in order:
                    if pinned[i]:
                        continue
                    cur = int(P[i])
                    cost_vec = evaluator._site_costs(P, placed, int(i))
                    candidates = cost_vec.copy()
                    candidates[(free <= 0) & (np.arange(m) != cur)] = np.inf
                    best = int(np.argmin(candidates))
                    # Strict improvement beyond float noise keeps the pass
                    # deterministic and terminating.
                    if best != cur and candidates[best] < cost_vec[cur] * (1 - 1e-12):
                        P[i] = best
                        free[cur] += 1
                        free[best] -= 1
                        improved = True
                if not improved:
                    break
            span.set(rounds=polish_rounds)

        # ---- 4. budgeted global polish: spend up to ``extra_moves``
        # additional migrations on *kept* processes when relocating them
        # strictly lowers the cost.  Each round takes the single best
        # improving move from the exact all-moves delta matrix; when no
        # single move improves, it falls back to the best improving swap
        # (exact-verified).  Cost strictly decreases every round, so the
        # loop terminates.
        moved_extra = np.zeros(n, dtype=bool)
        if self.extra_moves > 0:
            with obs.span("repair.global_polish", budget=self.extra_moves) as span:
                for _ in range(2 * n):
                    budget = self.extra_moves - int(np.count_nonzero(moved_extra))
                    # Processes allowed to move this round without / within
                    # the remaining budget.
                    billed = ~displaced_mask & ~moved_extra
                    can_move = ~pinned & (~billed | (budget > 0))
                    if not np.any(can_move):
                        break
                    D = evaluator.move_delta_matrix(P)
                    moves = D.copy()
                    moves[~can_move, :] = np.inf
                    moves[:, free <= 0] = np.inf
                    moves[np.arange(n), P] = 0.0
                    i, s = np.unravel_index(int(np.argmin(moves)), moves.shape)
                    if moves[i, s] < -1e-12:
                        free[int(P[i])] += 1
                        free[s] -= 1
                        P[i] = s
                        moved_extra[i] |= billed[i]
                        continue
                    # No improving single move: look for an improving swap,
                    # shortlisted from the same (unmasked) delta matrix.
                    pair = _best_swap(evaluator, P, D, ~pinned, billed, budget)
                    if pair is None:
                        break
                    i, j = pair
                    P[i], P[j] = P[j], P[i]
                    moved_extra[[i, j]] |= billed[[i, j]]
                span.set(extra_moves_used=int(np.count_nonzero(moved_extra)))

        assignment = validate_assignment(problem, P)
        old = np.asarray(partial).astype(np.int64)
        migrated = np.flatnonzero((old == UNPLACED) | (old != assignment))
        mapping = Mapping(
            assignment=assignment,
            cost=total_cost(problem, assignment),
            mapper=self.name,
            elapsed_s=time.perf_counter() - start,
            meta={
                "displaced": displaced.tolist(),
                "migrated": migrated.tolist(),
                "evicted": evicted,
                "polish_rounds": polish_rounds,
                "extra_moves_used": int(np.count_nonzero(moved_extra)),
            },
        )
        return RepairResult(
            mapping=mapping, displaced=displaced, migrated=migrated
        )


def repair_mapping(
    problem: MappingProblem,
    partial: np.ndarray,
    *,
    refine_rounds: int = 2,
    extra_moves: int = 0,
) -> RepairResult:
    """Functional convenience wrapper over :class:`IncrementalRepairMapper`."""
    partial = check_vector(partial, "partial", size=problem.num_processes)
    return IncrementalRepairMapper(
        refine_rounds=refine_rounds, extra_moves=extra_moves
    ).repair(problem, partial)
