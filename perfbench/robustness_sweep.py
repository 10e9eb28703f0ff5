"""robustness-sweep: the (fault x mapper) grid through the sweep fabric.

Three copies of the 10-cell grid from ``robustness_specs`` (5 standard
faults x greedy and geodist, LU at 32 processes on 4 sites, a scenario
seed per cell) are written with ``write_sweep``, run by ``SweepFabric`` with 2
worker processes, and merged with ``merge_shards``; one operation is
run + merge of a fresh sweep directory.  At this size both worker
spawn/supervision and cell work are visible shares of a sweep.  It is
the only workload that exercises spawn, supervision, shard writes,
merge and fault repair.
"""

from __future__ import annotations

import shutil
import time

from .common import (
    ROOT,
    WORK,
    Report,
    Stat,
    cpu_seconds,
    cpu_stat,
    geomean,
    median,
    peak_rss_mb,
    run_python,
    timed,
    timed_cpu,
    timing_stat,
)

PROCESSES = 32
#: Copies of the 10-cell grid per sweep.  A grid costs ~3 s of cell
#: work, so three keep a sweep near 6 s and leave room for three sweeps
#: in a run.
GRIDS = 3
WORKERS = 2
#: Fewest sweeps a run makes, so set-up is repeated at least this often.
#: A traced run makes half as many in each of its two halves, to stay
#: near the untraced run's length.
MIN_SWEEPS = 3
#: Every n-th cell is also run in this process, and each sweep's rows
#: for those cells must match it; every sweep must match the first.
VERIFY_EVERY = 4

#: Set-up in a fresh interpreter, as ``repro sweep`` pays it: import the
#: fabric, build the grid, write the sweep directory the next op runs.
_SETUP = (
    "import sys; sys.path.insert(0, {root!r}); "
    "from perfbench.robustness_sweep import write_grid; "
    "print(write_grid({seed}, {processes}, {where!r}))"
)


def grid(seed: int, processes: int) -> list:
    """``GRIDS`` copies of the robustness grid, each cell on its own
    scenario seed, which suffixes its key.

    Repaired cost moves with the scenario's pinned processes: a grid
    that shares one scenario spreads ~20% (IQR over median) from seed to
    seed.  A scenario per cell averages over as many draws as there are
    cells, at no extra cost, since every cell builds its scenario anyway.
    """
    from dataclasses import replace

    from repro.exp.fabric import robustness_specs

    size = len(robustness_specs(processes=processes))
    first = GRIDS * size * seed
    return [
        replace(spec, key=f"{spec.key}/seed{s}")
        for s in range(first, first + GRIDS * size)
        for spec in [robustness_specs(processes=processes, seed=s)[s % size]]
    ]


def write_grid(seed: int, processes: int, where: str) -> float:
    """Write the sweep directory; returns the ``write_sweep`` time."""
    from repro.exp.fabric import write_sweep

    specs = grid(seed, processes)
    return timed(lambda: write_sweep(where, specs))[0]


def _sweeps(rep: Report, seed: int, seconds: float, where, min_sweeps: int) -> dict:
    """Fresh sweep directories, run and merged, until ``seconds`` pass."""
    from repro.exp.fabric import FabricConfig, SweepFabric, merge_shards
    from repro.obs import get_recorder

    obs = get_recorder()
    cells = len(grid(seed, PROCESSES))
    out: dict = {key: [] for key in (
        "setup", "setup_wall", "write", "run", "merge", "sweep", "sweep_cpu", "reports", "rows"
    )}
    start = time.perf_counter()
    while len(out["sweep"]) < min_sweeps or time.perf_counter() - start < seconds:
        root = where / f"sweep-{len(out['sweep'])}"
        code = _SETUP.format(root=str(ROOT), seed=seed, processes=PROCESSES, where=str(root))
        cpu, wall, printed = timed_cpu(lambda: run_python(["-c", code]))
        out["setup"].append(cpu)
        out["setup_wall"].append(wall)
        out["write"].append(float(printed))
        fabric = SweepFabric(root, config=FabricConfig(workers=WORKERS))
        # The workers are reaped before run() returns, so their CPU
        # time is in the children's total by the time it is read.
        c0, t0 = cpu_seconds(), time.perf_counter()
        report = fabric.run()
        t1 = time.perf_counter()
        with obs.span("bench.merge"):
            merged = merge_shards(root, strict=False)
        c2, t2 = cpu_seconds(), time.perf_counter()
        out["run"].append(t1 - t0)
        out["merge"].append(t2 - t1)
        out["sweep"].append(t2 - t0)
        out["sweep_cpu"].append(c2 - c0)
        out["reports"].append(report)
        out["rows"].append(merged.rows)
        ok = report.ok and merged.complete and len(merged.rows) == cells
        rep.op(ok, f"sweep incomplete: {report.summary()}; {merged.summary()}")
        shutil.rmtree(root, ignore_errors=True)
    return out


def reference_rows(seed: int, where) -> list[dict]:
    """Every ``VERIFY_EVERY``-th cell run in this process, written and
    merged as shards, as the fabric would have."""
    from repro.exp.fabric import get_task, merge_shards, write_shard, write_sweep

    specs = grid(seed, PROCESSES)[::VERIFY_EVERY]
    write_sweep(where, specs)
    for spec in specs:
        result = get_task(spec.kind)(dict(spec.params))
        write_shard(where, spec.key, status="ok", result=result, error=None,
                    attempts=1, elapsed_s=0.0, worker="in-process")
    return merge_shards(where, write=False).rows


def _check(rep: Report, sweeps: dict, reference: list[dict]) -> None:
    from repro.exp.fabric import diff_results, results_equivalent

    keys = {row["key"] for row in reference}
    first = sweeps["rows"][0]
    for i, rows in enumerate(sweeps["rows"]):
        sample = [row for row in rows if row["key"] in keys]
        if not results_equivalent(sample, reference):
            diff = diff_results(sample, reference)[:2]
            rep.fail(f"sweep {i} differs from the in-process run of its cells: {diff}")
        elif not results_equivalent(rows, first):
            rep.fail(f"sweep {i} differs from sweep 0: {diff_results(rows, first)[:2]}")


def _feasible(rows: list[dict]) -> list[dict]:
    """Results of the cells whose fault left a repairable problem."""
    return [r["result"] for r in rows if r["status"] == "ok" and r["result"]["feasible"]]


def run(seed: int, seconds: float, trace: bool) -> Report:
    rep = Report("robustness-sweep")
    where = WORK / "tmp" / f"sweep-{seed}-{time.time_ns()}"
    try:
        window = seconds / 2 if trace else seconds
        least = -(-MIN_SWEEPS // 2) if trace else MIN_SWEEPS
        sweeps = _sweeps(rep, seed, window, where, least)
        reference = reference_rows(seed, where / "reference")
        _check(rep, sweeps, reference)
        rep.e2e["setup_s"] = cpu_stat(
            sweeps["setup"], sweeps["setup_wall"],
            "a fresh interpreter: import, build grid, write_sweep",
        )
        rep.e2e["op_p50_s"] = cpu_stat(
            sweeps["sweep_cpu"], sweeps["sweep"],
            "SweepFabric.run + merge_shards, supervisor and workers",
        )
        rep.e2e["sweep_s"] = timing_stat(sweeps["sweep"])
        # A cell's repaired cost ranges over 10x with its scenario draw
        # (latency spikes most).  Over ten seeds the median of the cells
        # spread 0.065 (IQR over median) where their geomean spread 0.119.
        costs = [r["repaired_cost"] for r in _feasible(sweeps["rows"][0])]
        rep.e2e["mapping_cost"] = Stat(median(costs), "alpha-beta_s", len(costs),
                                       None, "median repaired cost over the cells")
        if trace:
            _traced(rep, seed, window, where, least, reference, median(sweeps["sweep_cpu"]))
    finally:
        shutil.rmtree(where, ignore_errors=True)
    rep.e2e["peak_rss_mb"] = Stat(peak_rss_mb(), "MB")
    return rep


def _traced(rep, seed, seconds, where, least, reference, untraced_cpu) -> None:
    from repro.obs import recording

    from .tracing import save_trace

    with recording() as rec:
        sweeps = _sweeps(rep, seed, seconds, where / "traced", least)
    _check(rep, sweeps, reference)
    n = len(sweeps["sweep"])
    task = [sum(r["elapsed_s"] for r in rows) for rows in sweeps["rows"]]
    run_s = sweeps["run"]
    feasible = _feasible(sweeps["rows"][0])
    rep.layers = {
        "fabric.write_sweep_s": median(sweeps["write"]),
        "fabric.task_s": sum(task) / n,
        "fabric.busy_frac": sum(task) / (WORKERS * sum(run_s)),
        "fabric.overhead_s": (sum(run_s) - sum(task) / WORKERS) / n,
        "fabric.retries": sum(r.retries for r in sweeps["reports"]) / n,
        "fabric.worker_restarts": sum(r.worker_restarts for r in sweeps["reports"]) / n,
        "fabric.merge_s": median(sweeps["merge"]),
        "repair.cost_ratio": geomean([r["cost_ratio"] for r in feasible]),
        "repair.migrated": sum(r["num_migrated"] for r in feasible) / len(feasible),
        "obs.trace_overhead_frac": median(sweeps["sweep_cpu"]) / untraced_cpu - 1.0,
    }
    total = sum(sweeps["sweep"])
    rep.stages = [
        ("spawn + supervision", sum(run_s) - sum(task) / WORKERS),
        (f"cell work ({WORKERS} workers, wall)", sum(task) / WORKERS),
        ("merge", sum(sweeps["merge"])),
    ]
    rep.stage_total_s = total
    rep.stage_total_name = "SweepFabric.run + merge_shards"
    rep.trace_path = save_trace("robustness-sweep", seed, rec.roots)
