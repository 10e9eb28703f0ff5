"""Multi-site data-movement constraints (the paper's stated future work).

Section 3.1: "In this paper, we only consider the data movement
constraint on individual sites and leave the extension to multiple site
constraints in our future work."  This module builds that extension: a
process may be restricted to an arbitrary *set* of admissible sites —
e.g. "EU data may run in Ireland or Frankfurt, nowhere else".

Representation: a boolean ``allowed`` matrix of shape (N, M);
``allowed[i, j]`` means process i may run on site j.  A classic
single-site pin is a row with one True; an unconstrained process is an
all-True row.  The helpers here convert, validate, check feasibility
(via a maximum-flow argument on the bipartite process/site graph), and
construct assignments.  :class:`MultiSiteGeoMapper` runs Algorithm 1's
one greedy fill (:mod:`repro.core.geodist`) with ``allowed`` as its
admissible mask.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .._validation import as_rng, check_fraction, check_positive_int, check_vector
from .geodist import GeoDistributedMapper
from .mapping import FeasibilityError
from .problem import UNCONSTRAINED, MappingProblem

__all__ = [
    "allowed_from_constraints",
    "validate_allowed",
    "multisite_feasible",
    "random_allowed_assignment",
    "random_multisite_constraints",
    "validate_multisite_assignment",
    "MultiSiteGeoMapper",
]


def allowed_from_constraints(constraints: np.ndarray, num_sites: int) -> np.ndarray:
    """Lift a single-site constraint vector to an allowed matrix."""
    cons = check_vector(constraints, "constraints")
    num_sites = check_positive_int(num_sites, "num_sites")
    n = cons.shape[0]
    allowed = np.ones((n, num_sites), dtype=bool)
    pinned = cons != UNCONSTRAINED
    allowed[pinned, :] = False
    allowed[np.flatnonzero(pinned), cons[pinned]] = True
    return allowed


def validate_allowed(allowed: np.ndarray, n: int, m: int) -> np.ndarray:  # repro-lint: disable=RPR003
    """Shape/content checks for an allowed matrix (is itself a validator)."""
    arr = np.asarray(allowed)
    if arr.shape != (n, m):
        raise ValueError(f"allowed must be ({n}, {m}), got {arr.shape}")
    if arr.dtype != bool:
        arr = arr.astype(bool)
    empty = ~arr.any(axis=1)
    if np.any(empty):
        raise ValueError(
            f"processes {np.flatnonzero(empty)[:10].tolist()} have no admissible site"
        )
    return arr


def _types_feasible(types: np.ndarray, counts: np.ndarray, caps: np.ndarray) -> bool:
    """Max-flow test on processes grouped by their allowed set.

    ``types`` holds the distinct allowed rows (K, M) and ``counts`` how
    many processes hold each.  The flow runs source -> set type (capacity
    its count) -> admitted sites -> sink (capacity the site's), so the
    graph has K + M + 2 nodes however many processes share a type.  An
    integral flow splits into one unit per process, so all processes fit
    exactly when the per-process flow of the same instance is N.
    """
    n = int(counts.sum())
    if caps.sum() < n:
        return False

    from scipy.sparse.csgraph import maximum_flow

    k, m = types.shape
    # Node ids: 0 = source, 1..k = set types, k+1..k+m = sites, k+m+1 = sink.
    t_idx, s_idx = np.nonzero(types)
    rows = np.concatenate([np.zeros(k, dtype=np.int64), 1 + t_idx, 1 + k + np.arange(m)])
    cols = np.concatenate([1 + np.arange(k), 1 + k + s_idx, np.full(m, k + m + 1)])
    data = np.concatenate([counts, counts[t_idx], np.minimum(caps, n)]).astype(np.int32)
    size = k + m + 2
    graph = sp.csr_matrix((data, (rows, cols)), shape=(size, size))
    return int(maximum_flow(graph, 0, size - 1).flow_value) == n


def multisite_feasible(allowed: np.ndarray, capacities: np.ndarray) -> bool:
    """Whether some assignment satisfies the set constraints + capacities.

    This is a bipartite b-matching feasibility question; we answer it
    with scipy's sparse max-flow on processes grouped by their allowed
    set (see :func:`_types_feasible`).
    """
    allowed = np.asarray(allowed, dtype=bool)
    n, m = allowed.shape
    caps = check_vector(capacities, "capacities", size=m)
    if n == 0:
        return True
    types, counts = np.unique(allowed, axis=0, return_counts=True)
    return _types_feasible(types, counts, caps)


def random_multisite_constraints(
    num_processes: int,
    capacities: np.ndarray,
    ratio: float,
    *,
    sites_per_constraint: int = 2,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Random allowed matrix: a ``ratio`` share of processes is limited
    to ``sites_per_constraint`` random sites (always kept feasible).

    Processes are restricted one at a time, and a restriction that makes
    the instance infeasible is rolled back.  The check after each one
    only needs how many processes hold each distinct allowed set, which
    is kept up to date instead of re-read from the matrix.
    """
    ratio = check_fraction(ratio, "ratio")
    caps = np.asarray(capacities, dtype=np.int64)
    m = caps.shape[0]
    if not 1 <= sites_per_constraint <= m:
        raise ValueError(
            f"sites_per_constraint must be in [1, {m}], got {sites_per_constraint}"
        )
    rng = as_rng(seed)
    n = int(num_processes)
    allowed = np.ones((n, m), dtype=bool)
    k = int(round(ratio * n))
    if k == 0:
        return allowed
    # Distinct allowed sets (row 0: every site) and how many processes hold each.
    index: dict[tuple[int, ...], int] = {tuple(range(m)): 0}
    types = [np.ones(m, dtype=bool)]
    holders = [n]
    chosen = rng.choice(n, size=k, replace=False)
    for proc in chosen:
        sites = rng.choice(m, size=sites_per_constraint, replace=False)
        key = tuple(sorted(sites.tolist()))
        row = index.get(key)
        if row is None:
            row = index[key] = len(types)
            types.append(np.zeros(m, dtype=bool))
            types[row][sites] = True
            holders.append(0)
        holders[0] -= 1
        holders[row] += 1
        counts = np.array(holders)
        held = counts > 0
        if _types_feasible(np.array(types)[held], counts[held], caps):
            allowed[proc, :] = False
            allowed[proc, sites] = True
        else:
            # Roll back the restriction that broke feasibility.
            holders[row] -= 1
            holders[0] += 1
    return allowed


def validate_multisite_assignment(  # repro-lint: disable=RPR003
    problem: MappingProblem, allowed: np.ndarray, assignment: np.ndarray
) -> np.ndarray:
    """Capacity check plus the set-constraint check (is itself a validator)."""
    n, m = problem.num_processes, problem.num_sites
    allowed = validate_allowed(allowed, n, m)
    P = np.asarray(assignment)
    if P.shape != (n,) or P.dtype.kind not in "iu":
        raise FeasibilityError(f"assignment must be integer of shape ({n},)")
    P = P.astype(np.int64, copy=False)
    if np.any((P < 0) | (P >= m)):
        raise FeasibilityError("assignment references sites outside 0..M-1")
    broken = ~allowed[np.arange(n), P]
    if np.any(broken):
        raise FeasibilityError(
            f"multi-site constraints violated for processes "
            f"{np.flatnonzero(broken)[:10].tolist()}"
        )
    loads = np.bincount(P, minlength=m)
    if np.any(loads > problem.capacities):
        raise FeasibilityError("site capacities exceeded")
    return P


def random_allowed_assignment(
    allowed: np.ndarray,
    capacities: np.ndarray,
    rng: np.random.Generator,
    *,
    max_tries: int = 64,
) -> np.ndarray:
    """A random assignment satisfying set constraints and capacities.

    Places the most-restricted processes first (fewest admissible sites),
    choosing uniformly among their open sites; retries with a new
    shuffle on dead ends, which for feasible instances succeeds quickly.
    """
    allowed = np.asarray(allowed, dtype=bool)
    n, m = allowed.shape
    caps = check_vector(capacities, "capacities", size=m)
    check_positive_int(max_tries, "max_tries")
    degrees = allowed.sum(axis=1)
    for _ in range(max_tries):
        order = np.lexsort((rng.permutation(n), degrees))
        remaining = caps.copy()
        P = np.full(n, -1, dtype=np.int64)
        ok = True
        for i in order:
            open_sites = np.flatnonzero(allowed[i] & (remaining > 0))
            if open_sites.size == 0:
                ok = False
                break
            site = int(rng.choice(open_sites))
            P[i] = site
            remaining[site] -= 1
        if ok:
            return P
    raise FeasibilityError(
        "could not construct a feasible assignment; instance may be "
        "infeasible (check multisite_feasible) or extremely tight"
    )


class MultiSiteGeoMapper(GeoDistributedMapper):
    """Algorithm 1 extended to multi-site (set) constraints.

    The problem's own ``constraints`` vector must be empty; instead an
    ``allowed`` (N, M) matrix supplied at construction governs placement.
    The solve is geodist's flat Algorithm 1 with that matrix as an
    admissible mask: during the greedy fill a process may only be selected
    for a site it admits, and a completion pass places any leftovers on
    admissible sites.  If every group order dead-ends, a constrained
    random construction answers and ``meta["fallback"]`` says so.
    """

    name = "geo-distributed-multisite"

    def __init__(self, allowed: np.ndarray, **kwargs) -> None:
        super().__init__(**kwargs)
        self._allowed_input = np.asarray(allowed, dtype=bool)

    def _solve(
        self, problem: MappingProblem, rng: np.random.Generator
    ) -> tuple[np.ndarray, dict]:
        n, m = problem.num_processes, problem.num_sites
        allowed = validate_allowed(self._allowed_input, n, m)
        if np.any(problem.constraints != UNCONSTRAINED):
            raise ValueError(
                "MultiSiteGeoMapper expects the problem's single-site "
                "constraint vector to be empty; encode pins as single-True "
                "rows of `allowed` instead"
            )
        if not multisite_feasible(allowed, problem.capacities):
            raise FeasibilityError("multi-site constraints are infeasible")

        # Set-constrained solves stay flat: the recursive grouping
        # optimization has no notion of per-process site sets.
        P, meta = self._solve_flat(problem, self._groups(problem), allowed)
        if P is None:
            # Greedy dead-ended on every order; fall back to a feasible
            # random construction so the mapper never fails on feasible
            # instances.
            P = random_allowed_assignment(allowed, problem.capacities, rng)
            meta["fallback"] = "random-allowed"
        # Mapper.map only checks the (empty) single-site vector; the set
        # constraints are checked here.
        return validate_multisite_assignment(problem, allowed, P), meta
