"""Greedy's incremental fill against the loops it replaced.

The fill keeps one masked affinity vector (one ``argmax`` and one row
addition per pick), walks a cursor over the quantity order for fallback
picks and hands out the free slots in site-score order, instead of
rebuilding masked vectors and rescanning the open sites on every pick.
That is a pure speed-up: the reference below is the earlier
affinity-growth and static-volume loop, kept verbatim as the oracle, and
every generated problem must get the same assignment bytes, cost bits
and pick counters from both.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import GreedyMapper, site_total_bandwidth
from repro.core import MappingProblem
from repro.core.constraints import constrained_sites_available
from repro.core.geodist import _symmetric_traffic
from repro.core.problem import UNCONSTRAINED

# --------------------------------------------------------------- reference


def _ref_affinity_row(sym, proc):
    if sp.issparse(sym):
        out = np.zeros(sym.shape[1])
        start, end = sym.indptr[proc], sym.indptr[proc + 1]
        out[sym.indices[start:end]] = sym.data[start:end]
        return out
    return sym[proc, :]


def _ref_solve(self, problem, rng):
    n = problem.num_processes
    P = problem.constraints.copy()
    selected = P != UNCONSTRAINED
    avail = constrained_sites_available(problem.constraints, problem.capacities).copy()

    score = site_total_bandwidth(problem)
    quantity = problem.communication_quantity()
    neg_inf = -np.inf

    if not self.affinity_growth:
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

    sym = _symmetric_traffic(problem)
    affinity = np.zeros(n)
    for res in np.flatnonzero(selected):
        affinity += _ref_affinity_row(sym, int(res))
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
        affinity += _ref_affinity_row(sym, t)
    meta = {
        "variant": "affinity-growth",
        "affinity_picks": affinity_picks,
        "fallback_picks": fallback_picks,
    }
    return P, meta


class _ReferenceMapper(GreedyMapper):
    """GreedyMapper running the masked-rebuild loop."""

    _solve = _ref_solve


# ---------------------------------------------------------------- problems


@st.composite
def greedy_problems(draw):
    """Small problems built to stress the fill's tie and fallback paths.

    Integer weights from {0, 1, 2} give heavy ties in affinity and
    quantity; isolated processes force fallback picks; bandwidths from a
    two-value or one-value palette tie the site scores; some sites are
    filled to capacity by pins, so they start with no free slot.
    """
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 6))
    sparse = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    density = draw(st.sampled_from([0.1, 0.3, 0.7]))
    cg = rng.integers(0, 3, size=(n, n)).astype(np.float64)
    cg *= rng.random((n, n)) < density
    isolated = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    cg[isolated, :] = 0.0
    cg[:, isolated] = 0.0
    np.fill_diagonal(cg, 0.0)
    ag = np.minimum(cg, 1.0)

    slack = draw(st.integers(0, 2))
    spare = max(n + slack, m) - m
    capacities = rng.multinomial(spare, np.full(m, 1.0 / m)) + 1
    slots = np.repeat(np.arange(m), capacities)
    placement = rng.permutation(slots)[:n]
    pin_ratio = draw(st.sampled_from([0.0, 0.2, 0.6]))
    pinned = rng.random(n) < pin_ratio
    # Pin every process the placement puts on the full sites and cut
    # those sites' capacity to that count: they start with no free slot.
    full = rng.random(m) < draw(st.sampled_from([0.0, 0.3]))
    pinned |= full[placement]
    constraints = np.where(pinned, placement, UNCONSTRAINED)
    on_full = np.bincount(placement[full[placement]], minlength=m)
    capacities = np.where(full & (on_full > 0), on_full, capacities)
    if capacities.sum() < n:
        capacities[np.argmin(full)] += n - capacities.sum()

    palette = draw(st.sampled_from(["random", "two", "one"]))
    if palette == "random":
        bt = rng.random((m, m)) * 1e8 + 1e6
    elif palette == "two":
        bt = rng.choice([1e6, 2e6], size=(m, m))
    else:
        bt = np.full((m, m), 1e7)
    lt = rng.random((m, m)) * 0.1
    np.fill_diagonal(lt, 1e-4)
    if sparse:
        cg, ag = sp.csr_matrix(cg), sp.csr_matrix(ag)
    return MappingProblem(
        CG=cg, AG=ag, LT=lt, BT=bt, capacities=capacities,
        constraints=constraints.astype(np.int64),
    )


def _assert_same(problem, affinity_growth):
    fast = GreedyMapper(affinity_growth=affinity_growth).map(problem, seed=0)
    ref = _ReferenceMapper(affinity_growth=affinity_growth).map(problem, seed=0)
    assert fast.assignment.tobytes() == ref.assignment.tobytes()
    assert float(fast.cost).hex() == float(ref.cost).hex()
    assert fast.meta == ref.meta
    return fast


@settings(max_examples=200, deadline=None)
@given(problem=greedy_problems(), affinity_growth=st.booleans())
def test_fill_matches_masked_rebuild_loop(problem, affinity_growth):
    _assert_same(problem, affinity_growth)


def test_fallback_picks_and_score_ties_are_exercised():
    """Isolated processes take fallback picks and tied sites fill in index order."""
    rng = np.random.default_rng(5)
    n, m = 24, 3
    cg = np.zeros((n, n))
    cg[:8, :8] = rng.integers(0, 3, size=(8, 8))
    np.fill_diagonal(cg, 0.0)
    constraints = np.full(n, UNCONSTRAINED)
    constraints[[3, 20]] = [2, 0]
    ag = np.minimum(cg, 1.0)
    for as_matrix in (np.asarray, sp.csr_matrix):
        problem = MappingProblem(
            CG=as_matrix(cg), AG=as_matrix(ag),
            LT=np.full((m, m), 0.05), BT=np.full((m, m), 1e7),
            capacities=[8, 8, 8], constraints=constraints,
        )
        fast = _assert_same(problem, affinity_growth=True)
        assert fast.meta["fallback_picks"] > 0
        assert fast.meta["affinity_picks"] > 0
        static = _assert_same(problem, affinity_growth=False)
        # Every score ties, so the free slots fill site 0, then 1, then 2.
        by_quantity = np.argsort(-problem.communication_quantity(), kind="stable")
        free = [t for t in by_quantity if constraints[t] == UNCONSTRAINED]
        assert np.all(np.diff(static.assignment[free]) >= 0)


def test_sparse_problem_with_pins_matches_reference():
    """A mid-size CSR problem, as the serve layer sends, with 5% pins."""
    rng = np.random.default_rng(11)
    n, m = 640, 16
    k = 6 * n
    rows = rng.integers(0, n, k)
    cols = (rows + rng.integers(1, 64, k)) % n
    cg = sp.csr_matrix((rng.integers(1, 20, k) * 1e4, (rows, cols)), shape=(n, n))
    ag = cg.copy()
    ag.data = np.ceil(ag.data / 1e5)
    constraints = np.full(n, UNCONSTRAINED)
    pinned = rng.choice(n, n // 20, replace=False)
    constraints[pinned] = rng.integers(0, m, pinned.size)
    problem = MappingProblem(
        CG=cg, AG=ag, LT=rng.random((m, m)) * 0.1, BT=rng.random((m, m)) * 1e9 + 1e6,
        capacities=np.full(m, n // m + 8), constraints=constraints,
    )
    for affinity_growth in (True, False):
        _assert_same(problem, affinity_growth)
