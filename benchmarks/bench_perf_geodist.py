"""Perf bench: GeoDistributedMapper memoization + vectorized greedy fill.

Pits the current mapper (shared-prefix memoization, incremental masked
argmax, bincount/one-hot cost kernels) against a faithful copy of the
seed implementation (per-order full greedy replay, ``np.where`` rebuilds,
``np.add.at`` cost scatter) at kappa=4 across N in {64, 256, 1024}.  The
two must return identical assignments; their timings land in
``BENCH_perf.json`` (schema ``{bench, n, m, seconds, cost}``) as the
regression baseline — the acceptance bar is a >= 2x speedup at N=1024.

Run directly::

    PYTHONPATH=src python benchmarks/bench_perf_geodist.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit, median_time, update_bench_json  # noqa: E402
from bench_perf_core import make_bench_problem  # noqa: E402

from repro.core import GeoDistributedMapper, MappingProblem  # noqa: E402
from repro.core.constraints import constrained_sites_available  # noqa: E402
from repro.core.geodist import _symmetric_traffic  # noqa: E402
from repro.core.problem import UNCONSTRAINED  # noqa: E402


# --------------------------------------------------------------- seed replica
# Verbatim port of the pre-PR algorithm, including its np.add.at cost
# scatter, so the speedup is measured against what actually shipped.


def _seed_total_cost(problem: MappingProblem, P: np.ndarray) -> float:
    n, m = problem.num_processes, problem.num_sites
    cg, ag = problem.CG, problem.AG
    if problem.is_sparse:
        cg, ag = cg.tocoo(), ag.tocoo()
        vol = np.zeros((m, m))
        cnt = np.zeros((m, m))
        np.add.at(vol, (P[cg.row], P[cg.col]), cg.data)
        np.add.at(cnt, (P[ag.row], P[ag.col]), ag.data)
    else:
        rows_v = np.zeros((m, n))
        rows_c = np.zeros((m, n))
        np.add.at(rows_v, P, cg)
        np.add.at(rows_c, P, ag)
        vol = np.zeros((m, m))
        cnt = np.zeros((m, m))
        np.add.at(vol.T, P, rows_v.T)
        np.add.at(cnt.T, P, rows_c.T)
    return float(np.sum(cnt * problem.LT) + np.sum(vol / problem.BT))


def _affinity_row(sym, proc: int) -> np.ndarray:
    """Row ``proc`` of the symmetric traffic matrix as a dense vector."""
    if sp.issparse(sym):
        out = np.zeros(sym.shape[1])
        start, end = sym.indptr[proc], sym.indptr[proc + 1]
        out[sym.indices[start:end]] = sym.data[start:end]
        return out
    return sym[proc, :]


class SeedGeoDistributedMapper(GeoDistributedMapper):
    """The seed PR's _solve_flat / _greedy_fill, kept for benchmarking."""

    name = "geo-distributed-seed-bench"

    def _solve_flat(self, problem, groups):
        quantity = problem.communication_quantity()
        sym = _symmetric_traffic(problem)
        best_P, best_cost = None, np.inf
        for count, order in enumerate(permutations(range(len(groups)))):
            if self.max_orders is not None and count >= self.max_orders:
                break
            P = self._seed_greedy_fill(problem, [groups[g] for g in order], quantity, sym)
            cost = _seed_total_cost(problem, P)
            if cost < best_cost:
                best_cost, best_P = cost, P
        assert best_P is not None
        return best_P

    def _seed_greedy_fill(self, problem, ordered_groups, quantity, sym):
        n = problem.num_processes
        P = problem.constraints.copy()
        selected = P != UNCONSTRAINED
        avail = constrained_sites_available(problem.constraints, problem.capacities).copy()
        site_done = avail == 0
        num_placed = int(selected.sum())
        neg_inf = -np.inf

        for group in ordered_groups:
            if num_placed == n:
                break
            group_sites_arr = np.array(group.sites, dtype=np.int64)
            for _ in range(len(group_sites_arr)):
                if num_placed == n:
                    break
                open_mask = ~site_done[group_sites_arr]
                if not np.any(open_mask):
                    break
                open_sites = group_sites_arr[open_mask]
                site = int(open_sites[np.argmax(avail[open_sites])])
                slots = int(avail[site])
                if slots > 0:
                    masked_q = np.where(selected, neg_inf, quantity)
                    t0 = int(np.argmax(masked_q))
                    P[t0] = site
                    selected[t0] = True
                    avail[site] -= 1
                    num_placed += 1
                    w = np.zeros(n)
                    residents = np.flatnonzero(P == site)
                    for res in residents:
                        w += _affinity_row(sym, int(res))
                    for _ in range(slots - 1):
                        if num_placed == n:
                            break
                        masked_w = np.where(selected, neg_inf, w)
                        t = int(np.argmax(masked_w))
                        if masked_w[t] <= 0.0:
                            t = int(np.argmax(np.where(selected, neg_inf, quantity)))
                        P[t] = site
                        selected[t] = True
                        avail[site] -= 1
                        num_placed += 1
                        w += _affinity_row(sym, t)
                site_done[site] = True
        if num_placed != n:
            raise RuntimeError("greedy fill left processes unplaced")
        return P


# -------------------------------------------------------------------- driver


def bench_geodist(n: int, quick: bool) -> tuple[list[dict], float]:
    problem = make_bench_problem(n, m=16, kappa=4, seed=7)
    kwargs = dict(kappa=4, recursive=False)
    seed_mapper = SeedGeoDistributedMapper(**kwargs)
    memo_mapper = GeoDistributedMapper(memoize=True, **kwargs)
    flat_mapper = GeoDistributedMapper(memoize=False, **kwargs)

    repeats = 1 if quick else 3
    t_seed, m_seed = median_time(lambda: seed_mapper.map(problem, seed=0), warmup=0, repeats=repeats)
    t_memo, m_memo = median_time(lambda: memo_mapper.map(problem, seed=0), warmup=1, repeats=repeats)
    t_flat, m_flat = median_time(lambda: flat_mapper.map(problem, seed=0), warmup=0, repeats=repeats)

    # Equivalence: every variant must reproduce the seed mapping exactly.
    for other in (m_memo, m_flat):
        np.testing.assert_array_equal(m_seed.assignment, other.assignment)
        np.testing.assert_allclose(m_seed.cost, other.cost, rtol=1e-9)

    speedup = t_seed / t_memo
    m = problem.num_sites
    records = [
        {"bench": "geodist_seed", "n": n, "m": m, "seconds": t_seed, "cost": m_seed.cost},
        {"bench": "geodist_memoized", "n": n, "m": m, "seconds": t_memo, "cost": m_memo.cost},
        {"bench": "geodist_unmemoized", "n": n, "m": m, "seconds": t_flat, "cost": m_flat.cost},
    ]
    return records, speedup


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: small sizes, one repeat"
    )
    args = parser.parse_args(argv)

    sizes = (64, 256) if args.quick else (64, 256, 1024)
    records: list[dict] = []
    lines = ["bench                 n      m    seconds   speedup-vs-seed"]
    for n in sizes:
        recs, speedup = bench_geodist(n, args.quick)
        records.extend(recs)
        for r in recs:
            lines.append(
                f"{r['bench']:<20} {r['n']:>5} {r['m']:>6} {r['seconds']:>10.6f}"
                + (f"   {speedup:>6.2f}x" if r["bench"] == "geodist_memoized" else "")
            )
        if not args.quick and n == 1024 and speedup < 2.0:
            print(f"WARNING: memoized speedup {speedup:.2f}x at N=1024 below 2x bar")

    path = update_bench_json(records)
    emit("bench_perf_geodist", "\n".join(lines))
    print(f"[BENCH_perf.json updated at {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
