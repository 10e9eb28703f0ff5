"""Data-movement constraint vectors (paper Section 3.1, Figure 8).

Regulations (data residency, privacy) pin some processes to the site that
holds their data.  The paper models this with a constraint vector C and
evaluates sensitivity by sweeping a *constraint ratio* — the fraction of
processes pinned — choosing the pinned processes and their sites at
random (Section 5.1).  This module provides exactly that generator plus
the capacity checks mappers run on pinned problems.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_rng, check_fraction, check_vector
from .problem import UNCONSTRAINED, InfeasibleProblemError, MappingProblem

__all__ = [
    "random_constraints",
    "constrained_sites_available",
    "ensure_feasible",
]


def random_constraints(
    num_processes: int,
    capacities: np.ndarray,
    ratio: float,
    *,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Draw a random, *feasible* constraint vector with the given ratio.

    ``round(ratio * N)`` distinct processes are pinned to sites drawn
    uniformly among the sites with remaining capacity, so the constraint
    vector never overfills a site (matching the paper's protocol of
    randomly choosing constrained processes and their mapped sites).

    Parameters
    ----------
    num_processes:
        N.
    capacities:
        (M,) nodes per site; pins per site never exceed this.
    ratio:
        Fraction of processes to pin, in [0, 1].  Ratio 1.0 fixes the
        entire mapping (no optimization space, as the paper notes).
    seed:
        RNG seed or generator.
    """
    ratio = check_fraction(ratio, "ratio")
    caps = np.asarray(capacities, dtype=np.int64)
    if caps.ndim != 1 or np.any(caps <= 0):
        raise ValueError("capacities must be a 1-D positive vector")
    n = int(num_processes)
    if n <= 0:
        raise ValueError(f"num_processes must be positive, got {num_processes}")
    if caps.sum() < n:
        raise ValueError(f"total capacity {caps.sum()} cannot host {n} processes")

    rng = as_rng(seed)
    k = int(round(ratio * n))
    constraints = np.full(n, UNCONSTRAINED, dtype=np.int64)
    if k == 0:
        return constraints

    chosen = rng.choice(n, size=k, replace=False)
    remaining = caps.copy()
    for proc in chosen:
        open_sites = np.flatnonzero(remaining > 0)
        site = int(rng.choice(open_sites))
        constraints[proc] = site
        remaining[site] -= 1
    return constraints


def constrained_sites_available(constraints: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """Remaining capacity per site after honoring the pins.

    This is Algorithm 1's line 5: ``I[j] -= count(j, C)``.
    """
    cons = check_vector(constraints, "constraints")
    caps = check_vector(capacities, "capacities")
    pinned = cons[cons != UNCONSTRAINED]
    counts = np.bincount(pinned, minlength=caps.shape[0]) if pinned.size else np.zeros_like(caps)
    remaining = caps - counts
    if np.any(remaining < 0):
        over = np.flatnonzero(remaining < 0)
        raise ValueError(f"constraints overfill sites {over.tolist()}")
    return remaining


def ensure_feasible(problem: MappingProblem, *, context: str = "") -> None:
    """Raise :class:`InfeasibleProblemError` unless an assignment can exist.

    Mappers call this up front so infeasible capacity (``sum(I) < N``, or
    not enough room left once the constraint vector's pins are debited)
    fails with a message naming the deficit instead of an opaque fill
    error deep inside the greedy walk.  ``context`` prefixes the message
    (e.g. the mapper's name).
    """
    prefix = f"{context}: " if context else ""
    n = problem.num_processes
    total = int(problem.capacities.sum())
    if total < n:
        raise InfeasibleProblemError(
            f"{prefix}total capacity {total} cannot host {n} processes "
            f"(deficit: {n - total} nodes)"
        )
    try:
        remaining = constrained_sites_available(
            problem.constraints, problem.capacities
        )
    except ValueError as exc:
        raise InfeasibleProblemError(f"{prefix}{exc}") from None
    free = int(np.count_nonzero(problem.constraints == UNCONSTRAINED))
    slack = int(remaining.sum())
    if slack < free:
        raise InfeasibleProblemError(
            f"{prefix}after honoring {n - free} pinned processes, remaining "
            f"capacity {slack} cannot host the {free} free processes "
            f"(deficit: {free - slack} nodes)"
        )

