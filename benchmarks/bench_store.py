"""Perf bench: telemetry-store append and query throughput.

The store (``repro.obs.store``) sits on every CLI run, serve request,
and sweep, so its costs must stay trivially small next to the work it
records.  This bench measures the three operations that matter:

* ``store_append``  — one ``O_APPEND`` run record (the per-request cost
  a serving daemon pays when ``--store`` is on);
* ``store_query``   — a filtered scan over a populated ``runs.jsonl``
  (what ``repro obs query`` does);
* ``store_percentiles`` — exact p50/p90/p99 over pooled raw samples via
  the histogram quantile estimator.

Timings land in ``BENCH_perf.json`` (schema v2; redirect with
``REPRO_BENCH_JSON``).  Run directly::

    PYTHONPATH=src python benchmarks/bench_store.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit, median_time, update_bench_json  # noqa: E402

from repro.obs import TelemetryStore, percentiles_of  # noqa: E402


def bench_store(records: int, quick: bool) -> list[dict]:
    repeats = 2 if quick else 5
    with tempfile.TemporaryDirectory(prefix="bench_store_") as tmp:
        store = TelemetryStore(Path(tmp) / "store")

        # -- append: populate the store, timing the whole batch.
        def append_all() -> None:
            for i in range(records):
                store.append(
                    {
                        "kind": "bench",
                        "bench": f"b{i % 7}",
                        "n": 64,
                        "m": 4,
                        "seconds": 0.001 * (i % 100),
                    }
                )

        t_append, _ = median_time(append_all, warmup=1, repeats=repeats)

        # -- query: filtered scan over everything appended above
        #    (warmup + repeats populated the file several times over).
        def query() -> int:
            return len(store.query(kind="bench", bench="b3").rows)

        t_query, matched = median_time(query, warmup=1, repeats=repeats)
        if matched == 0:
            raise RuntimeError("query bench matched nothing")

        # -- percentiles: exact order statistics over pooled samples.
        samples = [0.0001 * (i % 997 + 1) for i in range(records)]

        def pcts() -> dict:
            return percentiles_of(samples, (0.5, 0.9, 0.99))

        t_pcts, _ = median_time(pcts, warmup=1, repeats=repeats)

    return [
        {"bench": "store_append", "n": records, "m": 1, "seconds": t_append},
        {"bench": "store_query", "n": records, "m": 1, "seconds": t_query},
        {"bench": "store_percentiles", "n": records, "m": 1, "seconds": t_pcts},
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: fewer records and repeats"
    )
    args = parser.parse_args(argv)

    records = 300 if args.quick else 2000
    rows = bench_store(records, args.quick)

    lines = [
        f"telemetry store, {records} records per batch, seconds",
        f"{'bench':<20} {'seconds':>12} {'per record':>14}",
    ]
    for r in rows:
        lines.append(
            f"{r['bench']:<20} {r['seconds']:>12.6f} "
            f"{r['seconds'] / records * 1e6:>12.2f} us"
        )
    emit("bench_store", "\n".join(lines))

    update_bench_json(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
