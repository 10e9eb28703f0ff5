"""Geodist's greedy fill against the walk it replaced.

The fill kernel reads precomputed CSR row views and walks a quantity
cursor instead of re-running ``argmax`` over a masked quantity vector.
That is a pure speed-up: the reference below is the earlier masked-``q``
walk, kept verbatim as the oracle, and every generated problem must get
the same assignment bytes, cost bits and fill/memo counters from both.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GeoDistributedMapper, MappingProblem
from repro.core.constraints import constrained_sites_available
from repro.core.cost import total_cost
from repro.core.geodist import _affinity_rows_sum, _symmetric_traffic
from repro.core.problem import UNCONSTRAINED

# --------------------------------------------------------------- reference


class _RefState:
    __slots__ = ("P", "selected", "avail", "site_done", "num_placed", "masked_q")

    def __init__(self, P, selected, avail, site_done, num_placed, masked_q):
        self.P = P
        self.selected = selected
        self.avail = avail
        self.site_done = site_done
        self.num_placed = num_placed
        self.masked_q = masked_q

    def clone(self):
        return _RefState(
            self.P.copy(),
            self.selected.copy(),
            self.avail.copy(),
            self.site_done.copy(),
            self.num_placed,
            self.masked_q.copy(),
        )


def _ref_initial_state(problem, quantity):
    P = problem.constraints.copy()
    selected = P != UNCONSTRAINED
    avail = constrained_sites_available(problem.constraints, problem.capacities).copy()
    site_done = avail == 0
    num_placed = int(selected.sum())
    masked_q = np.where(selected, -np.inf, quantity)
    return _RefState(P, selected, avail, site_done, num_placed, masked_q)


def _ref_add_affinity_row(acc, sym, proc):
    if sp.issparse(sym):
        start, end = sym.indptr[proc], sym.indptr[proc + 1]
        acc[sym.indices[start:end]] += sym.data[start:end]
    else:
        acc += sym[proc, :]


def _ref_fill_group(state, group, sym, n):
    seed_picks = affinity_picks = fallback_picks = 0
    P = state.P
    selected = state.selected
    avail = state.avail
    site_done = state.site_done
    masked_q = state.masked_q
    neg_inf = -np.inf

    group_sites_arr = np.asarray(group.sites, dtype=np.int64)
    for _ in range(group_sites_arr.shape[0]):
        if state.num_placed == n:
            break
        open_mask = ~site_done[group_sites_arr]
        if not np.any(open_mask):
            break
        open_sites = group_sites_arr[open_mask]
        site = int(open_sites[np.argmax(avail[open_sites])])

        slots = int(avail[site])
        if slots > 0:
            t0 = int(np.argmax(masked_q))
            P[t0] = site
            selected[t0] = True
            masked_q[t0] = neg_inf
            avail[site] -= 1
            state.num_placed += 1
            seed_picks += 1

            residents = np.flatnonzero(P == site)
            w = _affinity_rows_sum(sym, residents)
            masked_w = np.where(selected, neg_inf, w)

            for _ in range(slots - 1):
                if state.num_placed == n:
                    break
                t = int(np.argmax(masked_w))
                if masked_w[t] <= 0.0:
                    t = int(np.argmax(masked_q))
                    fallback_picks += 1
                else:
                    affinity_picks += 1
                P[t] = site
                selected[t] = True
                masked_q[t] = neg_inf
                masked_w[t] = neg_inf
                avail[site] -= 1
                state.num_placed += 1
                _ref_add_affinity_row(masked_w, sym, t)

        site_done[site] = True
    return seed_picks, affinity_picks, fallback_picks


def _ref_evaluate_orders(self, problem, groups, indexed_orders, *_kernel_inputs):
    quantity = problem.communication_quantity()
    sym = _symmetric_traffic(problem)
    n = problem.num_processes
    states = [_ref_initial_state(problem, quantity)]
    prev: tuple[int, ...] = ()
    best_cost = np.inf
    best_idx = -1
    best_P = None
    best_order: tuple[int, ...] = ()
    stats = dict.fromkeys(
        (
            "orders_evaluated", "memo_hits", "memo_misses",
            "seed_picks", "affinity_picks", "fallback_picks",
        ),
        0,
    )
    for idx, order in indexed_orders:
        d = 0
        if self.memoize:
            while d < len(prev) and prev[d] == order[d]:
                d += 1
        del states[d + 1 :]
        for g in order[d:]:
            state = states[-1].clone()
            seeds, affs, falls = _ref_fill_group(state, groups[g], sym, n)
            stats["seed_picks"] += seeds
            stats["affinity_picks"] += affs
            stats["fallback_picks"] += falls
            states.append(state)
        final = states[-1]
        assert final.num_placed == n
        cost = total_cost(problem, final.P)
        stats["orders_evaluated"] += 1
        stats["memo_hits"] += d
        stats["memo_misses"] += len(order) - d
        if cost < best_cost:
            best_cost, best_idx, best_P, best_order = cost, idx, final.P.copy(), order
        prev = order
    return best_cost, best_idx, best_P, best_order, stats


class _ReferenceMapper(GeoDistributedMapper):
    """GeoDistributedMapper running the masked-``q`` walk."""

    _evaluate_orders = _ref_evaluate_orders


# ---------------------------------------------------------------- problems


@st.composite
def fill_problems(draw):
    """Small problems built to stress the fill's tie and fallback paths.

    Integer weights from {0, 1, 2} give heavy ties in both the affinity
    and the quantity order; isolated processes force fallback picks;
    capacities leave at most two spare slots; pins come from a feasible
    placement so every problem is solvable.
    """
    n = draw(st.integers(2, 36))
    m = draw(st.integers(1, 6))
    sparse = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    density = draw(st.sampled_from([0.1, 0.3, 0.7]))
    cg = rng.integers(0, 3, size=(n, n)).astype(np.float64)
    cg *= rng.random((n, n)) < density
    isolated = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))
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
    constraints = np.where(rng.random(n) < pin_ratio, placement, UNCONSTRAINED)

    lt = rng.random((m, m)) * 0.1
    np.fill_diagonal(lt, 1e-4)
    bt = rng.random((m, m)) * 1e8 + 1e6
    coords = rng.random((m, 2)) * 100.0
    if sparse:
        cg, ag = sp.csr_matrix(cg), sp.csr_matrix(ag)
    return MappingProblem(
        CG=cg, AG=ag, LT=lt, BT=bt, capacities=capacities,
        constraints=constraints.astype(np.int64), coordinates=coords,
    )


def _assert_same(problem, **kwargs):
    fast = GeoDistributedMapper(**kwargs).map(problem, seed=0)
    ref = _ReferenceMapper(**kwargs).map(problem, seed=0)
    assert fast.assignment.tobytes() == ref.assignment.tobytes()
    assert float(fast.cost).hex() == float(ref.cost).hex()
    assert fast.meta["fill"] == ref.meta["fill"]
    assert fast.meta["memo"] == ref.meta["memo"]
    assert fast.meta["chosen_order"] == ref.meta["chosen_order"]
    return fast


@settings(max_examples=120, deadline=None)
@given(
    problem=fill_problems(),
    kappa=st.integers(1, 4),
    max_orders=st.sampled_from([None, 1, 2, 5]),
    memoize=st.booleans(),
)
def test_fill_matches_masked_quantity_walk(problem, kappa, max_orders, memoize):
    _assert_same(
        problem, kappa=kappa, max_orders=max_orders, memoize=memoize,
        recursive=False,
    )


def test_fallback_picks_are_exercised():
    """Processes with no traffic are placed by fallback picks, same in both walks."""
    rng = np.random.default_rng(5)
    n, m = 24, 3
    cg = np.zeros((n, n))
    cg[:8, :8] = rng.integers(0, 3, size=(8, 8))
    np.fill_diagonal(cg, 0.0)
    problem = MappingProblem(
        CG=sp.csr_matrix(cg), AG=sp.csr_matrix(np.minimum(cg, 1.0)),
        LT=np.full((m, m), 0.05), BT=np.full((m, m), 1e7),
        capacities=[8, 8, 8], coordinates=rng.random((m, 2)),
    )
    fast = _assert_same(problem, kappa=3)
    assert fast.meta["fill"]["fallback_picks"] > 0


# ------------------------------------------------------------ pinned output


def _sparse_problem(n: int, m: int, seed: int) -> MappingProblem:
    rng = np.random.default_rng(seed)
    k = 6 * n
    rows = rng.integers(0, n, k)
    cols = (rows + rng.integers(1, 64, k)) % n
    weights = rng.integers(1, 20, k) * 1e4
    cg = sp.csr_matrix((weights, (rows, cols)), shape=(n, n))
    ag = cg.copy()
    ag.data = np.ceil(ag.data / 1e5)
    capacities = np.full(m, n // m + 8)
    coords = rng.random((m, 2)) * 100.0
    lt = np.abs(coords[:, None, 0] - coords[None, :, 0]) * 1e-3 + 1e-4
    bt = 1e9 / (1.0 + np.abs(coords[:, None, 1] - coords[None, :, 1]))
    constraints = np.full(n, UNCONSTRAINED)
    pinned = rng.choice(n, n // 20, replace=False)
    constraints[pinned] = rng.integers(0, m, pinned.size)
    return MappingProblem(
        CG=cg, AG=ag, LT=lt, BT=bt, capacities=capacities,
        constraints=constraints, coordinates=coords,
    )


#: sha256 of the assignment bytes + cost hex of one N=2048 sparse map,
#: computed with the masked-``q`` walk.
SPARSE_2048_DIGEST = "19ce59692204119772c6217c84752cd1648d6c078a33453a843faac73aae27f4"


def test_sparse_2048_map_is_pinned():
    problem = _sparse_problem(2048, 16, seed=11)
    result = GeoDistributedMapper(kappa=4, recursive=False).map(problem, seed=0)
    digest = hashlib.sha256(
        result.assignment.tobytes() + float(result.cost).hex().encode()
    ).hexdigest()
    assert digest == SPARSE_2048_DIGEST
