"""Incremental mapping repair after topology faults.

When a site fails or shrinks, re-running the full kappa! enumeration of
Algorithm 1 throws away the surviving placement and migrates processes
wholesale.  The :class:`IncrementalRepairMapper` instead takes the old
assignment with the *displaced* processes marked :data:`UNPLACED` and
moves only those, choosing each target site to minimize the new
alpha-beta cost given everything that stayed put — so migration volume
is (by construction) bounded by the displaced set, and the repaired cost
stays close to a from-scratch re-map.

The algorithm mirrors Algorithm 1's greedy fill restricted to the
displaced set:

1. evict overflow: if a surviving site's load now exceeds its (possibly
   reduced) capacity, the residents with the *least* affinity to the
   rest of the site are displaced until the load fits — pinned
   processes are never evicted;
2. place the displaced processes heaviest-communication-first, each on
   the feasible site minimizing its exact incremental alpha-beta cost
   against the current partial placement (one vectorized (M,)-cost
   evaluation per process);
3. optionally polish with a bounded best-move refinement that again
   touches only the displaced processes, preserving the migration bound.

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

from .._validation import check_nonnegative_int, check_vector
from .constraints import ensure_feasible
from .cost import CostEvaluator, total_cost
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


def _rows(problem: MappingProblem, i: int) -> tuple[np.ndarray, ...]:
    """(cg_out, cg_in, ag_out, ag_in) dense owned rows for process i.

    Sparse problems read the cached CSR views: the out-row is an
    ``indptr`` slice, the in-column the stored entries whose column is
    ``i`` (O(nnz), no scipy submatrix machinery).
    """
    if not problem.is_sparse:
        cg, ag = problem.CG, problem.AG
        return cg[i, :].copy(), cg[:, i].copy(), ag[i, :].copy(), ag[:, i].copy()
    n = problem.num_processes
    out = []
    for csr in (problem.cg_csr(), problem.ag_csr()):
        row = np.zeros(n)
        cols, vals = csr.row_slice(i)
        row[cols] = vals
        col = np.zeros(n)
        hit = csr.indices == i
        col[csr.rows[hit]] = csr.data[hit]
        out += [row, col]
    return tuple(out)


def _site_cost_vector(
    problem: MappingProblem,
    inv_bt: np.ndarray,
    P: np.ndarray,
    placed: np.ndarray,
    i: int,
) -> np.ndarray:
    """Alpha-beta cost of process ``i`` on every site, vs the placed set.

    ``cost[s] = sum_{j placed} AG[i,j] LT[s, P[j]] + AG[j,i] LT[P[j], s]
                + CG[i,j] / BT[s, P[j]] + CG[j,i] / BT[P[j], s]``

    computed by first aggregating i's comm rows by the partners' sites
    (O(N)) and then contracting against LT / 1/BT (O(M^2)).
    """
    m = problem.num_sites
    cg_out, cg_in, ag_out, ag_in = _rows(problem, i)
    partners = placed.copy()
    partners[i] = False  # a process never pays cost against itself
    idx = P[partners]
    cgo = np.bincount(idx, weights=cg_out[partners], minlength=m)
    cgi = np.bincount(idx, weights=cg_in[partners], minlength=m)
    ago = np.bincount(idx, weights=ag_out[partners], minlength=m)
    agi = np.bincount(idx, weights=ag_in[partners], minlength=m)
    return (
        problem.LT @ ago
        + problem.LT.T @ agi
        + inv_bt @ cgo
        + inv_bt.T @ cgi
    )


def _best_swap(
    evaluator: CostEvaluator,
    P: np.ndarray,
    movable: np.ndarray,
    billed: np.ndarray,
    budget: int,
) -> tuple[int, int] | None:
    """The best exactly-verified improving swap, or ``None``.

    Pairs are shortlisted by the naive two-move sum from the all-moves
    delta matrix (which mis-charges only the (i, j) interaction), then
    verified exactly with :meth:`CostEvaluator.swap_delta` in ascending
    approximate order — the first exact improvement wins.  A swap bills
    budget for each participant in ``billed``; pairs exceeding the
    remaining ``budget`` are excluded.
    """
    n = P.shape[0]
    D = evaluator.move_delta_matrix(P)
    approx = D[np.arange(n)[:, None], P[None, :]]  # move i -> P[j]
    gain = approx + approx.T
    bill = billed[:, None].astype(np.int64) + billed[None, :].astype(np.int64)
    invalid = (
        ~movable[:, None]
        | ~movable[None, :]
        | (P[:, None] == P[None, :])
        | (bill > budget)
    )
    gain = np.where(invalid, np.inf, gain)
    gain[np.tril_indices(n)] = np.inf
    order = np.argsort(gain, axis=None, kind="stable")
    for flat in order[: 4 * n]:
        i, j = np.unravel_index(int(flat), gain.shape)
        if not np.isfinite(gain[i, j]) or gain[i, j] >= 0:
            break
        if evaluator.swap_delta(P, int(i), int(j)) < -1e-12:
            return int(i), int(j)
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
            raise ValueError("partial references sites outside 0..M-1")

        pins = problem.constraints
        pinned = pins != UNCONSTRAINED
        kept = P != UNPLACED
        broken = pinned & kept & (P != pins)
        if np.any(broken):
            raise ValueError(
                f"partial contradicts the constraint vector for processes "
                f"{np.flatnonzero(broken)[:10].tolist()}"
            )

        displaced_mask = ~kept
        placed = kept.copy()
        loads = np.bincount(P[placed], minlength=m)

        # ---- 1. evict overflow from shrunk sites (least-affinity first).
        handed_in = int(displaced_mask.sum())
        with obs.span("repair.evict") as span:
            sym = problem.CG + problem.CG.T
            if sp.issparse(sym):
                sym = sym.tocsr()
            for site in np.flatnonzero(loads > problem.capacities):
                residents = np.flatnonzero(placed & (P == site))
                movable = residents[~pinned[residents]]
                excess = int(loads[site] - problem.capacities[site])
                if movable.shape[0] < excess:
                    raise InfeasibleProblemError(
                        f"{self.name}: site {site} holds "
                        f"{int(pinned[residents].sum())} pinned processes but "
                        f"only {int(problem.capacities[site])} nodes remain"
                    )
                if sp.issparse(sym):
                    aff = np.asarray(sym[movable][:, residents].sum(axis=1)).ravel()
                else:
                    aff = sym[np.ix_(movable, residents)].sum(axis=1)
                # Stable sort: least-attached residents leave first,
                # deterministic ties by process index.
                evict = movable[np.argsort(aff, kind="stable")[:excess]]
                P[evict] = UNPLACED
                placed[evict] = False
                displaced_mask[evict] = True
                loads[site] -= excess

            displaced = np.flatnonzero(displaced_mask)
            evicted = int(displaced.shape[0]) - handed_in
            span.set(evicted=evicted)

        # ---- 2. greedy placement, heaviest communication first.
        with obs.span("repair.place", num_displaced=int(displaced.shape[0])):
            quantity = problem.communication_quantity()
            order = displaced[np.argsort(-quantity[displaced], kind="stable")]
            inv_bt = 1.0 / problem.BT
            free = problem.capacities - loads
            for i in order:
                if pinned[i]:
                    target = int(pins[i])
                    if free[target] <= 0:
                        raise InfeasibleProblemError(
                            f"{self.name}: process {i} is pinned to site {target}, "
                            "which has no free node left"
                        )
                else:
                    cost_vec = _site_cost_vector(problem, inv_bt, P, placed, int(i))
                    cost_vec[free <= 0] = np.inf
                    target = int(np.argmin(cost_vec))
                    if not np.isfinite(cost_vec[target]):
                        raise InfeasibleProblemError(
                            f"{self.name}: no site has a free node for process {i}"
                        )
                P[i] = target
                placed[i] = True
                free[target] -= 1

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
                    cost_vec = _site_cost_vector(problem, inv_bt, P, placed, int(i))
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
        moved_extra: set[int] = set()
        if self.extra_moves > 0:
            with obs.span("repair.global_polish", budget=self.extra_moves) as span:
                evaluator = CostEvaluator(problem)
                for _ in range(2 * n):
                    budget = self.extra_moves - len(moved_extra)
                    # Processes allowed to move this round without / within
                    # the remaining budget.
                    billed = np.fromiter(
                        (
                            not displaced_mask[i] and i not in moved_extra
                            for i in range(n)
                        ),
                        dtype=bool,
                        count=n,
                    )
                    can_move = ~pinned & (~billed | (budget > 0))
                    if not np.any(can_move):
                        break
                    D = evaluator.move_delta_matrix(P)
                    D[~can_move, :] = np.inf
                    D[:, free <= 0] = np.inf
                    D[np.arange(n), P] = 0.0
                    i, s = np.unravel_index(int(np.argmin(D)), D.shape)
                    if D[i, s] < -1e-12:
                        free[int(P[i])] += 1
                        free[s] -= 1
                        P[i] = s
                        if billed[i]:
                            moved_extra.add(int(i))
                        continue
                    # No improving single move: look for an improving swap.
                    # Shortlist pairs by the naive two-move sum (cheap, from
                    # D), then verify candidates exactly with swap_delta.
                    pair = _best_swap(evaluator, P, ~pinned, billed, budget)
                    if pair is None:
                        break
                    i, j = pair
                    P[i], P[j] = P[j], P[i]
                    for k in (i, j):
                        if billed[k]:
                            moved_extra.add(int(k))
                span.set(extra_moves_used=len(moved_extra))

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
                "extra_moves_used": len(moved_extra),
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
