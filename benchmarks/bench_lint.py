"""Perf bench: the repro-lint whole-project pass.

``lint_full_cold`` times the full two-stage lint over ``src/`` +
``benchmarks/``: parse, visit, and summarize every file, then build the
call graph and run the project rules RPR008-RPR010.  ``n`` records the
number of files linted and ``m`` the call-graph node count, keeping the
``(bench, n, m)`` key meaningful.

Timings land in ``BENCH_perf.json`` (schema v2: ``{schema, bench, n, m,
seconds, cost}``, host-independent keys; redirect with
``REPRO_BENCH_JSON``).  Run directly::

    PYTHONPATH=src python benchmarks/bench_lint.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit, median_time, update_bench_json  # noqa: E402

from repro.analysis import lint_paths  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_PATHS = [REPO_ROOT / "src", REPO_ROOT / "benchmarks"]


def bench_lint(quick: bool) -> list[dict]:
    repeats = 2 if quick else 5

    def run_cold():
        return lint_paths(LINT_PATHS, root=REPO_ROOT)

    t_cold, cold = median_time(run_cold, warmup=1, repeats=repeats)

    n_files = cold.files_scanned
    n_nodes = cold.graph_stats.get("nodes", 0)
    return [
        {
            "bench": "lint_full_cold",
            "n": n_files,
            "m": n_nodes,
            "seconds": t_cold,
            "cost": float(len(cold.findings)),
        },
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: fewer repeats"
    )
    args = parser.parse_args(argv)

    records = bench_lint(args.quick)
    lines = [
        "bench                 n      m    seconds",
        *(
            f"{r['bench']:<20} {r['n']:>5} {r['m']:>6} {r['seconds']:>10.6f}"
            for r in records
        ),
    ]
    path = update_bench_json(records)
    emit("bench_lint", "\n".join(lines))
    print(f"[BENCH_perf.json updated at {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
