"""multilevel-sparse: the multilevel mapper on clustered sparse graphs.

N=16384 processes on 16 sites in 4 geographic clusters, 8 sampled edges
per process.  ``MultilevelMapper.map`` runs in a closed single-threaded
loop over two instances.  Coarsening stops on the mutual-matching floor
(about 2356 vertices), not at ``coarsest_size=1024``, so geodist's inner
solve is a real share of each map.  Matching, contraction, refinement
and the CSR ``move_delta_matrix`` kernel run only here; nothing is
simulated, so a simmpi change should not move this workload.
"""

from __future__ import annotations

import time
from contextlib import ExitStack

import numpy as np
import scipy.sparse as sp

from .common import (
    ROOT,
    Report,
    Stat,
    cpu_stat,
    geomean,
    mapping_error,
    median,
    peak_rss_mb,
    run_python,
    tail_stat,
    timed_cpu,
    timing_stat,
)

N = 16384
SITES = 16
KAPPA = 4
EDGES_PER_PROC = 8
INSTANCES = 2
SETUP_REPEATS = 3
#: Set-up in a fresh interpreter, as a caller with new input pays it:
#: import, generate both instances; prints their fingerprints so the
#: same-seed-same-inputs check can compare them with this process's.
_SETUP = (
    "import sys; sys.path.insert(0, {root!r}); "
    "from perfbench.multilevel_sparse import make_problem; "
    "print(' '.join(make_problem({seed}, i, {n}).fingerprint() for i in range({k})))"
)


def make_problem(seed: int, instance: int, n: int | None = None):
    """Clustered sparse problem; edges sampled directly, so large N is cheap."""
    from repro.core import MappingProblem

    n = N if n is None else n
    rng = np.random.default_rng([seed, instance])
    per = SITES // KAPPA
    centers = rng.uniform(-60.0, 60.0, size=(KAPPA, 2))
    coords = np.concatenate(
        [centers[i] + rng.normal(scale=2.0, size=(per, 2)) for i in range(KAPPA)]
    )
    cluster = np.repeat(np.arange(KAPPA), per)
    same = cluster[:, None] == cluster[None, :]
    lt = np.where(same, 0.001, 0.08 + rng.random((SITES, SITES)) * 0.1)
    bt = np.where(same, 1e9, 2e7 + rng.random((SITES, SITES)) * 1e7)
    np.fill_diagonal(lt, 0.0005)
    np.fill_diagonal(bt, 5e9)
    caps = np.full(SITES, -(-n // SITES) + 2)
    k = EDGES_PER_PROC * n
    src = rng.integers(0, n, size=k)
    dst = rng.integers(0, n, size=k)
    w = rng.random(k) * 1e6
    keep = src != dst
    cg = sp.csr_matrix((w[keep], (src[keep], dst[keep])), shape=(n, n))
    cg.sum_duplicates()
    ag = cg.copy()
    ag.data = np.ceil(ag.data / 1e5)
    return MappingProblem(CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps, coordinates=coords)


def _loop(
    rep: Report, seed: int, seconds: float
) -> tuple[list[float], list[float], list[float], dict]:
    """Maps alternating over the instances, whole pairs, until ``seconds``.

    Returns the maps' wall and CPU times, each instance's cost, and the
    last map's meta.
    """
    from repro.core import MultilevelMapper

    mapper = MultilevelMapper(kappa=KAPPA)
    times: list[float] = []
    cpus: list[float] = []
    first: dict[int, tuple] = {}
    meta: dict = {}
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        for i in range(INSTANCES):
            # A fresh problem object per map: its lazily built CSR views
            # are paid inside the map, as a caller with new input pays them.
            problem = make_problem(seed, i)
            cpu, wall, mapping = timed_cpu(lambda: mapper.map(problem, seed=seed))
            times.append(wall)
            cpus.append(cpu)
            meta = mapping.meta
            error = mapping_error(problem, mapping.assignment, mapping.cost)
            seen = (mapping.assignment.tobytes(), mapping.cost)
            if not error and first.setdefault(i, seen) != seen:
                error = "mapping changed between maps of one instance"
            rep.op(not error, f"instance {i}: {error}")
    return times, cpus, [first[i][1] for i in range(INSTANCES)], meta


def run(seed: int, seconds: float, trace: bool) -> Report:
    rep = Report("multilevel-sparse")
    code = _SETUP.format(root=str(ROOT), seed=seed, n=N, k=INSTANCES)
    setups = []
    setup_walls = []
    printed = set()
    for _ in range(SETUP_REPEATS):
        cpu, wall, out = timed_cpu(lambda: run_python(["-c", code]))
        setups.append(cpu)
        setup_walls.append(wall)
        printed.add(out.strip())
    here = " ".join(make_problem(seed, i).fingerprint() for i in range(INSTANCES))
    if printed != {here}:
        rep.fail("set-up built different problems from one seed")
    window = seconds / 2 if trace else seconds
    times, cpus, costs, meta = _loop(rep, seed, window)
    rep.e2e["setup_s"] = cpu_stat(setups, setup_walls, "a fresh interpreter generating both instances")
    rep.e2e["op_p50_s"] = cpu_stat(cpus, times, "MultilevelMapper.map")
    rep.e2e["map_p50_s"] = timing_stat(times)
    rep.e2e["map_tail_s"] = tail_stat(times)
    rep.e2e["mapping_cost"] = Stat(geomean(costs), "alpha-beta_s", len(costs))
    levels = [lv["n"] for lv in meta["levels"]]
    rep.e2e["op_p50_s"].note += f"; levels {levels}, inner {meta['inner']}"
    if trace:
        _traced(rep, seed, window, median(cpus))
    rep.e2e["peak_rss_mb"] = Stat(peak_rss_mb(), "MB")
    return rep


def _traced(rep: Report, seed: int, seconds: float, untraced_cpu: float) -> None:
    import repro.core.cost as cost_mod
    import repro.core.multilevel as ml
    from repro.obs import recording

    from .layers import core_layers, core_wrappers
    from .tracing import SpanTotals, descendants_time, save_trace, spanned

    metas: list[dict] = []
    ml_metas: list[dict] = []
    with ExitStack() as stack:
        rec = stack.enter_context(recording())
        core_wrappers(stack, metas)
        stack.enter_context(spanned(ml, "heavy_edge_matching", "bench.match"))
        stack.enter_context(spanned(ml, "contract", "bench.contract"))
        stack.enter_context(
            spanned(cost_mod.CostEvaluator, "move_delta_matrix", "bench.move_delta_matrix")
        )
        stack.enter_context(
            spanned(ml.MultilevelMapper, "map", None, on_result=lambda m: ml_metas.append(m.meta))
        )
        times, cpus, _, _ = _loop(rep, seed, seconds)
    spans = SpanTotals(rec.roots)
    ops = len(times)
    solves = spans.find("multilevel.solve")
    inner = sum(descendants_time(s, "mapper.map") for s in solves)
    layers = core_layers(spans, metas, ops)
    layers.update(
        {
            "multilevel.match_s": spans.total("bench.match") / ops,
            "multilevel.contract_s": spans.total("bench.contract") / ops,
            "multilevel.inner_s": inner / ops,
            "multilevel.refine_s": spans.total("multilevel.refine") / ops,
            "cost.move_delta_matrix_s": spans.total("bench.move_delta_matrix") / ops,
            "cost.move_delta_matrix_calls": spans.count("bench.move_delta_matrix") / ops,
            "multilevel.levels": sum(len(m["levels"]) for m in ml_metas) / ops,
            "multilevel.coarsest_n": sum(m["levels"][-1]["n"] for m in ml_metas) / ops,
            "multilevel.refine_moves": sum(
                r["moves"] for m in ml_metas for r in m["refine"]
            ) / ops,
            "multilevel.inner_fallback": sum(
                m["inner"] != "geo-distributed" for m in ml_metas
            ) / ops,
            "obs.trace_overhead_frac": median(cpus) / untraced_cpu - 1.0,
        }
    )
    rep.layers = layers
    total = sum(times)
    coarsen_other = spans.total("multilevel.coarsen") - spans.total("bench.match") - spans.total(
        "bench.contract"
    )
    accounted = {
        "match (heavy_edge_matching)": spans.total("bench.match"),
        "contract": spans.total("bench.contract"),
        "coarsen, rest": coarsen_other,
        f"inner solve at n={round(layers['multilevel.coarsest_n'])}": inner,
        "coarse legalization": spans.total("multilevel.solve") - inner,
        "refine (move_delta_matrix)": spans.total("bench.move_delta_matrix"),
        "refine, rest": spans.total("multilevel.refine") - spans.total("bench.move_delta_matrix"),
    }
    rep.stages = [*accounted.items(), ("other", total - sum(accounted.values()))]
    rep.stage_total_s = total
    rep.stage_total_name = "MultilevelMapper.map"
    rep.trace_path = save_trace("multilevel-sparse", seed, rec.roots)
