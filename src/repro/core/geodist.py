"""The paper's Geo-distributed process mapping algorithm (Section 4).

Algorithm 1, faithfully:

1. K-means-cluster the M sites into kappa groups by physical coordinates.
2. Pin constrained processes and debit site capacities (lines 3-6).
3. For every permutation theta of the groups (kappa! of them):
   walk the groups in theta order; inside a group repeatedly open the
   unselected site with the most available nodes, seed it with the
   unselected process of heaviest total communication quantity, then fill
   its remaining slots with the unselected process communicating most with
   the processes already placed on that site (lines 7-15).
4. Return the order whose completed mapping has minimal cost (lines 16-17).

Complexity O(kappa! * N^2); with the default kappa <= 4 the kappa! factor
is a small constant, matching the Greedy baseline's O(N^2) as the paper
argues.  This implementation additionally memoizes the greedy state
shared by permutations with a common group-order prefix (the enumeration
is lexicographic, so the cache is a simple stack), which removes most of
the kappa! redundancy in practice while producing bit-identical results.

For deployments whose groups contain many sites, the *grouping
optimization* applies the same algorithm recursively: first map processes
to groups treated as merged super-sites, then solve each group's
sub-problem independently (Section 4.2, "Grouping Optimization").
"""

from __future__ import annotations

from itertools import islice, permutations
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_int
from ..obs import get_recorder
from .constraints import constrained_sites_available
from .cost import total_cost
from .grouping import SiteGroup, group_sites
from .mapping import Mapper, register_mapper
from .problem import UNCONSTRAINED, MappingProblem

__all__ = ["GeoDistributedMapper"]


def _symmetric_traffic(problem: MappingProblem):
    """CG + CG^T, precomputed once so per-process affinity rows are O(row).

    For sparse problems this avoids the O(nnz) CSR column slice that a
    naive ``CG[:, proc]`` would cost on every greedy step.
    """
    cg = problem.CG
    if sp.issparse(cg):
        return (cg + cg.T).tocsr()
    return cg + cg.T


def _affinity_rows_sum(sym, procs: np.ndarray) -> np.ndarray:
    """Summed affinity rows of ``procs`` in one gather + bincount.

    Replaces a per-resident loop of densified row additions when a site
    is (re)opened.  The sparse path slices the CSR arrays directly — no
    intermediate ``sym[procs]`` matrix is constructed.
    """
    if sp.issparse(sym):
        procs = np.asarray(procs, dtype=np.int64)
        starts = sym.indptr[procs]
        counts = sym.indptr[procs + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.zeros(sym.shape[1])
        # Concatenated per-row index ranges, fully vectorized.
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        idx = np.repeat(starts, counts) + (np.arange(total) - offsets)
        return np.bincount(
            sym.indices[idx], weights=sym.data[idx], minlength=sym.shape[1]
        )
    return sym[procs].sum(axis=0)


def _row_views(sym) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Per-process ``(indices, data)`` views of a CSR ``sym``, else None.

    Built once per flat solve so a greedy placement adds its affinity row
    with one fancy ``+=`` and no per-pick ``indptr`` lookups.  CSR rows
    are canonical (sorted, duplicate-free), so that add is exact.  The
    indices are widened to ``intp`` once here: fancy indexing with
    scipy's int32 indices would convert them again on every pick.  Dense
    problems return None and add the row ``sym[t]`` directly.
    """
    if not sp.issparse(sym):
        return None
    indices, data = sym.indices.astype(np.intp), sym.data
    bounds = sym.indptr.tolist()
    return [
        (indices[start:end], data[start:end])
        for start, end in zip(bounds[:-1], bounds[1:])
    ]


class _FillState:
    """Mutable snapshot of a partially built greedy placement.

    Snapshots are what the shared-prefix memoization caches: permutations
    of the group order that agree on their first d groups produce
    byte-identical state after those d groups, so the fill for a new
    permutation resumes from the deepest cached prefix instead of
    replaying the whole greedy walk.

    ``cursor`` indexes the processes sorted by descending communication
    quantity (stable, so ties keep index order); every process before it
    is already placed.  The "heaviest unselected process" pick is the
    first unselected entry from the cursor on, which is exactly the first
    maximum ``argmax`` would find over the quantities of the unselected
    processes.  Placements only add to ``selected``, so the cursor never
    moves back.
    """

    __slots__ = ("P", "selected", "avail", "site_done", "num_placed", "cursor")

    def __init__(
        self,
        P: np.ndarray,
        selected: np.ndarray,
        avail: np.ndarray,
        site_done: np.ndarray,
        num_placed: int,
        cursor: int,
    ) -> None:
        self.P = P
        self.selected = selected
        self.avail = avail
        self.site_done = site_done
        self.num_placed = num_placed
        self.cursor = cursor

    def clone(self) -> "_FillState":
        return _FillState(
            self.P.copy(),
            self.selected.copy(),
            self.avail.copy(),
            self.site_done.copy(),
            self.num_placed,
            self.cursor,
        )


def _initial_state(problem: MappingProblem) -> _FillState:
    """Lines 3-6 of Algorithm 1: pin constraints and debit capacities."""
    P = problem.constraints.copy()
    selected = P != UNCONSTRAINED
    avail = constrained_sites_available(problem.constraints, problem.capacities).copy()
    site_done = avail == 0
    num_placed = int(selected.sum())
    return _FillState(P, selected, avail, site_done, num_placed, 0)


def _first_admitted(
    by_quantity: list[int], cursor: int, selected: np.ndarray, admits: np.ndarray
) -> int:
    """Heaviest unselected process that admits the site, or -1 if none."""
    for k in range(cursor, len(by_quantity)):
        t = by_quantity[k]
        if admits[t] and not selected[t]:
            return t
    return -1


def _fill_group(
    state: _FillState,
    group: SiteGroup,
    sym,
    rows: list[tuple[np.ndarray, np.ndarray]] | None,
    by_quantity: list[int],
    n: int,
    allowed: np.ndarray | None = None,
) -> tuple[int, int, int]:
    """Lines 7-15 of Algorithm 1 for one group, mutating ``state`` in place.

    ``rows`` are the CSR row views of ``sym`` (None when dense) and
    ``by_quantity`` the processes in descending communication quantity
    (see :class:`_FillState`).  The masked affinity vector ``masked_w`` is
    maintained incrementally: selecting a process sets its entry to -inf
    (which further row additions cannot revive), so each placement is one
    ``argmax`` plus one in-place row addition.

    ``allowed`` is an optional (N, M) admissible-site mask (multi-site set
    constraints).  With it, a site only takes processes that admit it: the
    seed and every quantity fallback are the heaviest unselected process
    admitting the site, and non-admitting processes start at -inf in
    ``masked_w``.  A site no unselected process admits is closed empty; a
    site whose fallback finds none stops filling.

    Returns the greedy-fill pick counts of this group walk —
    ``(seed_picks, affinity_picks, fallback_picks)`` — where a fallback
    is an affinity slot decided by communication quantity because no
    unselected process communicates with the site's residents.
    """
    seed_picks = affinity_picks = fallback_picks = 0
    P = state.P
    selected = state.selected
    avail = state.avail
    site_done = state.site_done
    num_placed = state.num_placed
    cursor = state.cursor
    neg_inf = -np.inf

    group_sites_arr = np.asarray(group.sites, dtype=np.int64)
    for _ in range(group_sites_arr.shape[0]):
        if num_placed == n:
            break
        # Unselected site in this group with the most available nodes.
        open_mask = ~site_done[group_sites_arr]
        if not open_mask.any():
            break
        open_sites = group_sites_arr[open_mask]
        site = int(open_sites[avail[open_sites].argmax()])

        slots = int(avail[site])
        if slots > 0:
            admits = None if allowed is None else allowed[:, site]
            # Seed: globally heaviest unselected process.
            while selected[by_quantity[cursor]]:
                cursor += 1
            if admits is None:
                t = by_quantity[cursor]
            else:
                t = _first_admitted(by_quantity, cursor, selected, admits)
                if t < 0:
                    site_done[site] = True
                    continue
            P[t] = site
            selected[t] = True
            num_placed += 1
            placed = 1
            seed_picks += 1

            # Affinity to everything already on this site, including
            # processes pinned there by constraints, in one batched sum.
            residents = np.flatnonzero(P == site)
            w = _affinity_rows_sum(sym, residents)
            masked_w = np.where(
                selected if admits is None else selected | ~admits, neg_inf, w
            )

            for _ in range(slots - 1):
                if num_placed == n:
                    break
                t = int(masked_w.argmax())
                # Tie-break pure zeros by communication quantity so
                # isolated processes still place deterministically.
                if masked_w[t] <= 0.0:
                    while selected[by_quantity[cursor]]:
                        cursor += 1
                    if admits is None:
                        t = by_quantity[cursor]
                    else:
                        t = _first_admitted(by_quantity, cursor, selected, admits)
                        if t < 0:
                            break
                    fallback_picks += 1
                else:
                    affinity_picks += 1
                P[t] = site
                selected[t] = True
                masked_w[t] = neg_inf
                num_placed += 1
                placed += 1
                if rows is None:
                    masked_w += sym[t]
                else:
                    idx, dat = rows[t]
                    masked_w[idx] += dat
            avail[site] -= placed

        site_done[site] = True
    state.num_placed = num_placed
    state.cursor = cursor
    return seed_picks, affinity_picks, fallback_picks


def _complete(state: _FillState, allowed: np.ndarray) -> np.ndarray | None:
    """Place what a set-constrained fill left over; consumes ``state``.

    Leftovers go most-restricted first (fewest admissible sites) to their
    lowest-numbered open admissible site, else into a slot that
    :func:`_relocate_for` frees.  Returns the completed assignment, or
    None when a leftover can be placed neither way (the group order
    dead-ends).
    """
    P, avail = state.P, state.avail
    leftovers = np.flatnonzero(~state.selected)
    for i in leftovers[np.argsort(allowed[leftovers].sum(axis=1))]:
        open_sites = np.flatnonzero(allowed[i] & (avail > 0))
        if open_sites.size:
            P[i] = open_sites[0]
            avail[open_sites[0]] -= 1
        elif not _relocate_for(P, i, allowed, avail):
            return None
    return P


def _relocate_for(P: np.ndarray, i: int, allowed: np.ndarray, avail: np.ndarray) -> bool:
    """Move one resident of a site ``i`` admits to an open site the
    resident admits, and put ``i`` in the freed slot (an augmenting path
    of length 2).  False if no resident can move."""
    for site in np.flatnonzero(allowed[i]):
        for resident in np.flatnonzero(P == site):
            targets = np.flatnonzero(allowed[resident] & (avail > 0))
            if targets.size:
                P[resident] = targets[0]
                avail[targets[0]] -= 1
                P[i] = site
                return True
    return False


class GeoDistributedMapper(Mapper):
    """The paper's proposed algorithm.

    Parameters
    ----------
    kappa:
        Target number of site groups; the paper recommends <= 5 and uses
        the number of regions (4) in its experiments.  The effective group
        count is ``min(kappa, M)``.
    grouping_seed:
        Seed for the K-means Forgy initialization, independent of the
        mapper's own RNG so the grouping is stable across runs.
    max_orders:
        Optional cap on how many group permutations to evaluate (in the
        deterministic order ``itertools.permutations`` yields).  ``None``
        evaluates all kappa! orders as the paper does.
    recursive:
        Enable the grouping optimization: when any group holds more than
        ``recursion_limit`` sites, map processes to groups first and
        recurse inside each group.  With the paper's setups (few regions)
        this never triggers; it exists for the large-M regime Section 4.2
        motivates.
    recursion_limit:
        Largest group size the flat algorithm handles directly.
    memoize:
        Enable shared-prefix memoization across the kappa! group orders.
        Permutations are enumerated lexicographically, so consecutive
        orders share long prefixes; the fill state after each prefix is
        cached on a stack (a trie walk along the enumeration) and each
        order resumes from the deepest cached prefix, cutting redundant
        greedy work from O(kappa! * N^2) toward O(kappa! * N^2 / kappa).
        The result is bit-identical to the unmemoized walk; the flag
        exists for A/B equivalence testing and benchmarking.
    """

    name = "geo-distributed"

    def __init__(
        self,
        kappa: int = 4,
        *,
        grouping_seed: int = 0,
        max_orders: int | None = None,
        recursive: bool = True,
        recursion_limit: int = 8,
        memoize: bool = True,
    ) -> None:
        self.kappa = check_positive_int(kappa, "kappa")
        self.grouping_seed = grouping_seed
        if max_orders is not None:
            check_positive_int(max_orders, "max_orders")
        self.max_orders = max_orders
        self.recursive = bool(recursive)
        self.recursion_limit = check_positive_int(recursion_limit, "recursion_limit")
        self.memoize = bool(memoize)

    # ----------------------------------------------------------------- solve

    def _solve(
        self, problem: MappingProblem, rng: np.random.Generator
    ) -> tuple[np.ndarray, dict]:
        groups = self._groups(problem)
        if self.recursive and any(g.num_sites > self.recursion_limit for g in groups):
            return self._solve_recursive(problem, groups)
        return self._solve_flat(problem, groups)

    def _groups(self, problem: MappingProblem) -> list[SiteGroup]:
        """K-means site groups, or one all-sites group without coordinates.

        With a single group the algorithm enumerates nothing but still
        greedily fills sites by available nodes, which is well-defined.
        """
        if problem.coordinates is None:
            return [SiteGroup(0, tuple(range(problem.num_sites)), np.zeros(2))]
        return group_sites(problem.coordinates, self.kappa, seed=self.grouping_seed)

    # ------------------------------------------------------------- flat Alg.1

    def _solve_flat(
        self,
        problem: MappingProblem,
        groups: Sequence[SiteGroup],
        allowed: np.ndarray | None = None,
    ) -> tuple[np.ndarray | None, dict]:
        """Algorithm 1 over ``groups``; ``allowed`` adds set constraints.

        With ``allowed`` an order whose fill leaves processes unplaced is
        completed by :func:`_complete` or, if that dead-ends, skipped; the
        assignment is None only when every order dead-ends.
        """
        sym = _symmetric_traffic(problem)
        rows = _row_views(sym)
        # Stable descending order: ties keep index order, as argmax does.
        # Quantities are sums of non-negative traffic that MappingProblem
        # checked for NaN and inf, so none is NaN and negating them keeps
        # their order, ties included.
        by_quantity = np.argsort(
            -problem.communication_quantity(), kind="stable"
        ).tolist()

        orders = permutations(range(len(groups)))
        if self.max_orders is not None:
            orders = islice(orders, self.max_orders)
        best_cost, best_idx, best_P, best_order, stats = self._evaluate_orders(
            problem, groups, enumerate(orders), sym, rows, by_quantity, allowed
        )
        if best_P is None and allowed is None:
            # Unreachable: at least one order always runs.
            raise RuntimeError(
                "greedy fill evaluated no group orders; at least one "
                "permutation should always be enumerated"
            )
        meta = {
            "kappa": len(groups),
            "chosen_order": list(best_order),
            "order_index": best_idx,
            "orders_evaluated": stats["orders_evaluated"],
            "memo": {
                "enabled": self.memoize,
                "hits": stats["memo_hits"],
                "misses": stats["memo_misses"],
            },
            "fill": {
                "seed_picks": stats["seed_picks"],
                "affinity_picks": stats["affinity_picks"],
                "fallback_picks": stats["fallback_picks"],
            },
        }
        if allowed is not None:
            meta["completion"] = {
                "completed": stats["completed"],
                "dead_ends": stats["dead_ends"],
            }
        return best_P, meta

    def _evaluate_orders(
        self,
        problem: MappingProblem,
        groups: Sequence[SiteGroup],
        indexed_orders: Iterable[tuple[int, tuple[int, ...]]],
        sym,
        rows: list[tuple[np.ndarray, np.ndarray]] | None,
        by_quantity: list[int],
        allowed: np.ndarray | None = None,
    ) -> tuple[float, int, np.ndarray | None, tuple[int, ...], dict]:
        """Greedy-fill and cost every (index, order); return the best.

        ``states[d]`` holds the fill state after the first ``d`` groups of
        the most recently processed order.  Because the enumeration is
        lexicographic, the next order's longest shared prefix is always a
        stack prefix, so memoization is a truncate + extend — no explicit
        trie nodes needed.

        Returns ``(best_cost, best_idx, best_P, best_order, stats)``;
        ``stats`` counts the work actually performed — group fills
        executed (memo misses) vs resumed from the prefix cache (memo
        hits), the greedy-fill pick breakdown, and how many set-constrained
        orders were completed or dead-ended.  Each evaluated order
        additionally gets a ``geodist.order`` span when recording is on.
        """
        obs = get_recorder()
        n = problem.num_processes
        states: list[_FillState] = [_initial_state(problem)]
        prev: tuple[int, ...] = ()
        best_cost = np.inf
        best_idx = -1
        best_P: np.ndarray | None = None
        best_order: tuple[int, ...] = ()
        stats = {
            "orders_evaluated": 0,
            "memo_hits": 0,
            "memo_misses": 0,
            "seed_picks": 0,
            "affinity_picks": 0,
            "fallback_picks": 0,
            "completed": 0,
            "dead_ends": 0,
        }

        for idx, order in indexed_orders:
            with obs.span("geodist.order", index=idx, order=list(order)) as sp:
                if self.memoize:
                    d = 0
                    while d < len(prev) and prev[d] == order[d]:
                        d += 1
                else:
                    d = 0
                del states[d + 1 :]
                for g in order[d:]:
                    st = states[-1].clone()
                    seeds, affs, falls = _fill_group(
                        st, groups[g], sym, rows, by_quantity, n, allowed
                    )
                    stats["seed_picks"] += seeds
                    stats["affinity_picks"] += affs
                    stats["fallback_picks"] += falls
                    states.append(st)
                prev = order
                stats["orders_evaluated"] += 1
                stats["memo_hits"] += d
                stats["memo_misses"] += len(order) - d
                final = states[-1]
                P = final.P
                if final.num_placed != n:
                    if allowed is None:
                        raise RuntimeError(
                            "greedy fill left processes unplaced; this indicates "
                            "an infeasible problem slipped past validation"
                        )
                    # The completion works on a clone: the memo keeps the
                    # fill state this order's successors resume from.
                    P = _complete(final.clone(), allowed)
                    if P is None:
                        stats["dead_ends"] += 1
                        sp.set(dead_end=True, resumed_depth=d, groups_filled=len(order) - d)
                        continue
                    stats["completed"] += 1
                cost = total_cost(problem, P)
                sp.set(cost=cost, resumed_depth=d, groups_filled=len(order) - d)
                if cost < best_cost:
                    best_cost = cost
                    best_idx = idx
                    best_P = P.copy()
                    best_order = order
        return best_cost, best_idx, best_P, best_order, stats

    # ---------------------------------------------------------- recursive mode

    def _solve_recursive(
        self, problem: MappingProblem, groups: Sequence[SiteGroup]
    ) -> tuple[np.ndarray, dict]:
        """Grouping optimization: groups as super-sites, then recurse."""
        obs = get_recorder()
        kappa = len(groups)
        m = problem.num_sites

        # Super-site matrices: average link performance between member
        # sites (a group is "one large site" whose internal structure the
        # outer pass ignores).
        lt_g = np.empty((kappa, kappa))
        bt_g = np.empty((kappa, kappa))
        for a, ga in enumerate(groups):
            ia = np.array(ga.sites)
            for b, gb in enumerate(groups):
                ib = np.array(gb.sites)
                lt_g[a, b] = problem.LT[np.ix_(ia, ib)].mean()
                bt_g[a, b] = problem.BT[np.ix_(ia, ib)].mean()
        caps_g = np.array([problem.capacities[list(g.sites)].sum() for g in groups])
        coords_g = np.vstack([g.centroid for g in groups])

        site_to_group = np.empty(m, dtype=np.int64)
        for g in groups:
            site_to_group[list(g.sites)] = g.index
        cons_g = problem.constraints.copy()
        pinned = cons_g != UNCONSTRAINED
        cons_g[pinned] = site_to_group[cons_g[pinned]]

        outer = MappingProblem(
            CG=problem.CG,
            AG=problem.AG,
            LT=lt_g,
            BT=bt_g,
            capacities=caps_g,
            constraints=cons_g,
            coordinates=coords_g,
        )
        # Each super-site is its own group at the outer level, so the
        # order enumeration ranges over the kappa groups exactly as Alg. 1
        # prescribes.
        outer_groups = [
            SiteGroup(i, (i,), coords_g[i].copy()) for i in range(kappa)
        ]
        with obs.span("geodist.outer", num_groups=kappa):
            P_outer, outer_meta = self._solve_flat(outer, outer_groups)

        # Recurse per group on the induced sub-problem.
        meta = dict(outer_meta)
        meta["recursive"] = True
        subproblems: list[dict] = []
        meta["subproblems"] = subproblems
        P = np.empty(problem.num_processes, dtype=np.int64)
        for g in groups:
            procs = np.flatnonzero(P_outer == g.index)
            if procs.size == 0:
                continue
            sites = np.array(g.sites, dtype=np.int64)
            local_site = {int(s): k for k, s in enumerate(sites)}
            sub_cons = problem.constraints[procs].copy()
            sub_pinned = sub_cons != UNCONSTRAINED
            sub_cons[sub_pinned] = np.array(
                [local_site[int(s)] for s in sub_cons[sub_pinned]], dtype=np.int64
            )
            cg = problem.CG
            ag = problem.AG
            if sp.issparse(cg):
                sub_cg = cg[procs][:, procs]
                sub_ag = ag[procs][:, procs]
            else:
                sub_cg = cg[np.ix_(procs, procs)]
                sub_ag = ag[np.ix_(procs, procs)]
            sub = MappingProblem(
                CG=sub_cg,
                AG=sub_ag,
                LT=problem.LT[np.ix_(sites, sites)],
                BT=problem.BT[np.ix_(sites, sites)],
                capacities=problem.capacities[sites],
                constraints=sub_cons,
                coordinates=problem.coordinates[sites]
                if problem.coordinates is not None
                else None,
            )
            sub_groups = self._groups(sub)
            with obs.span(
                "geodist.subproblem",
                group=g.index,
                num_processes=int(procs.size),
                num_sites=int(sites.size),
            ):
                if self.recursive and any(
                    gg.num_sites > self.recursion_limit for gg in sub_groups
                ) and sub.num_sites < m:  # guard: recursion must shrink
                    sub_P, sub_meta = self._solve_recursive(sub, sub_groups)
                else:
                    sub_P, sub_meta = self._solve_flat(sub, sub_groups)
            subproblems.append(
                {
                    "group": g.index,
                    "num_processes": int(procs.size),
                    "chosen_order": sub_meta["chosen_order"],
                }
            )
            P[procs] = sites[sub_P]
        return P, meta


register_mapper(GeoDistributedMapper, GeoDistributedMapper.name)
