"""Perf bench: one 32-task demo grid through the process-isolated sweep fabric.

Records ``fabric_sweep`` in ``BENCH_perf.json``: the wall-clock of a
:class:`repro.exp.fabric.SweepFabric` sweep with 4 worker processes,
spec/shard files and full supervision, from writing the specs to the
merged table.  Process spawning, JSON control messages, and atomic
shard writes cost real milliseconds, bought back with crash isolation
and (for non-trivial tasks) 4-way parallelism.  Every digest is
cross-checked against a direct in-process call of the ``demo`` task
before the timing is recorded.

Run directly::

    PYTHONPATH=src python benchmarks/bench_fabric.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit, update_bench_json  # noqa: E402

from repro.exp.fabric import (  # noqa: E402
    FabricConfig,
    SweepFabric,
    demo_specs,
    get_task,
    merge_shards,
    write_sweep,
)

NUM_TASKS = 32
WORKERS = 4


def bench_fabric(work: int) -> tuple[float, dict[str, str]]:
    """One full fabric sweep (spawn to merged table); returns digests."""
    specs = demo_specs(NUM_TASKS, work=work)
    with tempfile.TemporaryDirectory(prefix="bench-fabric-") as tmp:
        t0 = time.perf_counter()
        write_sweep(tmp, specs)
        report = SweepFabric(
            tmp, config=FabricConfig(workers=WORKERS, timeout_s=120.0)
        ).run()
        merged = merge_shards(tmp, write=False)
        elapsed = time.perf_counter() - t0
        if not report.ok or not merged.complete:
            raise RuntimeError(f"fabric bench sweep failed: {report.summary()}")
        digests = {r["key"]: r["result"]["digest"] for r in merged.rows}
    return elapsed, digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: lighter per-task work"
    )
    args = parser.parse_args(argv)

    work = 64 if args.quick else 4096
    t_fabric, d_fabric = bench_fabric(work)
    demo = get_task("demo")
    direct = {
        s.key: demo(dict(s.params))["digest"]
        for s in demo_specs(NUM_TASKS, work=work)
    }
    if d_fabric != direct:
        raise RuntimeError(
            "fabric digests differ from direct in-process demo calls"
        )

    records = [
        {
            "bench": "fabric_sweep",
            "n": NUM_TASKS,
            "m": WORKERS,
            "seconds": t_fabric,
            "cost": float(len(d_fabric)),
        },
    ]
    lines = [
        "bench                 n      m    seconds",
        *(
            f"{r['bench']:<20} {r['n']:>5} {r['m']:>6} {r['seconds']:>10.6f}"
            for r in records
        ),
    ]
    path = update_bench_json(records)
    emit("bench_fabric", "\n".join(lines))
    print(f"[BENCH_perf.json updated at {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
