"""Perf bench: the multilevel mapper on large sparse problems.

Times ``MultilevelMapper`` end-to-end (coarsen + coarse solve + refine)
on clustered sparse problems at N in {4096, 16384, 65536} and appends
records to ``BENCH_perf.json``.  At N <= 4096 a direct
``GeoDistributedMapper`` solve is feasible, so those rows also carry a
``quality_ratio`` column (multilevel cost / direct cost) which this
script asserts stays <= 1.10 — the bench doubles as the quality gate
from the paper's Fig. 7 scalability extension.

The problem generator samples edges directly (``rng.integers`` source /
destination pairs) instead of ``scipy.sparse.random``: the latter draws
from all N^2 flat positions and effectively hangs at N = 65536.

Run directly::

    PYTHONPATH=src python benchmarks/bench_multilevel.py [--smoke]

``--smoke`` runs the CI correctness smoke (N=2048: quality ratio +
trace structure; N=8192: coarsening reaches ``coarsest_size``) and
writes no bench rows.  Multilevel timing is graded by perfbench's
``multilevel-sparse`` workload, not by ``bench-check``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit, median_time, update_bench_json  # noqa: E402

from repro.core import (  # noqa: E402
    GeoDistributedMapper,
    MappingProblem,
    MultilevelMapper,
)
from repro.obs import recording  # noqa: E402

QUALITY_LIMIT = 1.10
DIRECT_FEASIBLE_N = 4096  # largest N where direct geodist is benched


def make_sparse_problem(
    n: int, m: int = 16, *, kappa: int = 4, seed: int = 0, edges_per_proc: int = 8
) -> MappingProblem:
    """Clustered sparse problem via direct edge sampling (65536-safe)."""
    rng = np.random.default_rng(seed)
    per = m // kappa
    centers = rng.uniform(-60.0, 60.0, size=(kappa, 2))
    coords = np.concatenate(
        [centers[i] + rng.normal(scale=2.0, size=(per, 2)) for i in range(kappa)]
    )
    cluster = np.repeat(np.arange(kappa), per)
    same = cluster[:, None] == cluster[None, :]
    lt = np.where(same, 0.001, 0.08 + rng.random((m, m)) * 0.1)
    bt = np.where(same, 1e9, 2e7 + rng.random((m, m)) * 1e7)
    np.fill_diagonal(lt, 0.0005)
    np.fill_diagonal(bt, 5e9)
    caps = np.full(m, -(-n // m) + 2)

    k = edges_per_proc * n
    src = rng.integers(0, n, size=k)
    dst = rng.integers(0, n, size=k)
    w = rng.random(k) * 1e6
    keep = src != dst
    cg = sp.csr_matrix((w[keep], (src[keep], dst[keep])), shape=(n, n))
    cg.sum_duplicates()
    ag = cg.copy()
    ag.data = np.ceil(ag.data / 1e5)
    return MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps, coordinates=coords)


def bench_multilevel(n: int, *, kappa: int = 4) -> dict:
    problem = make_sparse_problem(n, kappa=kappa)
    mapper = MultilevelMapper(kappa=kappa)
    repeats = 3 if n <= DIRECT_FEASIBLE_N else 1
    seconds, result = median_time(
        lambda: mapper.map(problem, seed=0), warmup=0, repeats=repeats
    )
    record = {
        "bench": "multilevel_sparse",
        "n": n,
        "m": problem.num_sites,
        "seconds": seconds,
        "cost": result.cost,
    }
    if n <= DIRECT_FEASIBLE_N:
        direct = GeoDistributedMapper(kappa=kappa).map(problem, seed=0)
        ratio = result.cost / direct.cost
        record["quality_ratio"] = round(ratio, 4)
        if ratio > QUALITY_LIMIT:
            raise AssertionError(
                f"multilevel quality ratio {ratio:.4f} > {QUALITY_LIMIT} "
                f"at n={n} (multilevel {result.cost:.1f} vs direct {direct.cost:.1f})"
            )
    return record


def run_smoke(n: int = 2048, kappa: int = 4, deep_n: int = 8192) -> int:
    """CI smoke: quality ratio vs direct geodist, clean trace structure,
    and coarsening that stops on the size target, not a matching floor."""
    problem = make_sparse_problem(n, kappa=kappa)
    with recording() as rec:
        result = MultilevelMapper(kappa=kappa).map(problem, seed=0)
    direct = GeoDistributedMapper(kappa=kappa).map(problem, seed=0)
    ratio = result.cost / direct.cost
    if ratio > QUALITY_LIMIT:
        print(
            f"SMOKE FAIL: quality ratio {ratio:.4f} > {QUALITY_LIMIT} "
            f"(multilevel {result.cost:.1f} vs direct {direct.cost:.1f})"
        )
        return 1

    names = [s.name for root in rec.roots for s in root.iter()]
    if len(rec.roots) != 1 or rec.roots[0].name != "mapper.map":
        print(f"SMOKE FAIL: expected a single mapper.map root, got {names[:5]}")
        return 1
    for required in ("multilevel.coarsen", "multilevel.solve", "multilevel.refine"):
        if required not in names:
            print(f"SMOKE FAIL: span {required!r} missing from trace ({sorted(set(names))})")
            return 1
    levels = result.meta.get("levels")
    if not levels or levels[0]["n"] != n:
        print(f"SMOKE FAIL: meta levels malformed: {levels}")
        return 1
    deep = MultilevelMapper(kappa=kappa).map(make_sparse_problem(deep_n, kappa=kappa), seed=0)
    deep_levels = [lv["n"] for lv in deep.meta["levels"]]
    if deep.meta["coarsen_stop"] != "size":
        print(
            f"SMOKE FAIL: n={deep_n} coarsening stopped on "
            f"{deep.meta['coarsen_stop']!r}, not the size target (levels {deep_levels})"
        )
        return 1
    print(
        f"SMOKE OK: n={n} ratio={ratio:.4f} levels={[lv['n'] for lv in levels]} "
        f"spans={len(names)}; n={deep_n} levels={deep_levels} "
        f"inner={deep.meta['inner']}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="CI correctness smoke (no bench rows)"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke()

    records = [bench_multilevel(n) for n in (4096, 16384, 65536)]

    path = update_bench_json(records)
    lines = ["bench                          n      m    seconds    quality"]
    for r in records:
        quality = f"{r['quality_ratio']:.4f}" if "quality_ratio" in r else "   n/a"
        lines.append(
            f"{r['bench']:<28} {r['n']:>5} {r['m']:>6} {r['seconds']:>10.4f} {quality:>10}"
        )
    emit("bench_multilevel", "\n".join(lines))
    print(f"[BENCH_perf.json updated at {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
