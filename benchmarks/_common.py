"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure from the paper's
evaluation and *emits* it: the formatted rows/series are written to
``benchmarks/results/<name>.txt`` and printed (visible with ``pytest -s``
or in captured output on failure).  pytest-benchmark's own timing table
covers the "how long does the pipeline take" axis.

Scale knob: set ``REPRO_BENCH_FULL=1`` to run the full paper scales
(e.g. 8192-machine simulations, 10^6 Monte Carlo samples); the default
is a faithful-but-fast subset so ``pytest benchmarks/ --benchmark-only``
completes in minutes.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Machine-readable perf-regression baseline written by the bench_perf_*
#: suite.  Schema v2: a JSON list of {"schema", "bench", "n", "m",
#: "seconds", "cost"} — keyed only by (bench, n, m) so records compare
#: across machines (`repro bench-check` consumes this file; see
#: repro.obs.benchgate).  Set $REPRO_BENCH_JSON to redirect writes (the
#: records and, via `emit`, the result tables), e.g. so a gating run never
#: touches the checked-in files.
BENCH_PERF_JSON = Path(__file__).parent.parent / "BENCH_perf.json"

#: Keep in sync with repro.obs.benchgate.BENCH_SCHEMA_VERSION (a unit
#: test cross-checks them; this file stays importable without repro).
BENCH_SCHEMA_VERSION = 2

#: Record fields that would tie a baseline to one machine; stripped on
#: write so bench-check comparisons stay host-independent.
_HOST_DEPENDENT_FIELDS = ("host", "hostname", "node", "machine", "platform")

#: True when the operator asked for paper-scale runs.
FULL_SCALE = os.environ.get("REPRO_BENCH_FULL", "0") not in ("0", "", "false")


def median_time(fn, *, warmup: int = 1, repeats: int = 5):
    """(median_seconds, last_result) of ``fn()`` on the monotonic clock.

    The shared micro-timing helper for the perf benches: ``warmup`` calls
    absorb one-time costs (BLAS thread spin-up, cache population), then
    the median of ``repeats`` timed calls rejects scheduler outliers.
    """
    result = None
    for _ in range(max(0, warmup)):
        result = fn()
    times = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def update_bench_json(records: list[dict], path: Path | None = None) -> Path:
    """Merge perf records into ``BENCH_perf.json``.

    Records carrying the same ``(bench, n, m)`` key replace their previous
    entries; everything else is preserved, so the core and geodist benches
    can update the file independently.  Every written record is stamped
    with ``schema`` (:data:`BENCH_SCHEMA_VERSION`) and stripped of
    host-dependent fields, so baselines diff cleanly across machines.

    The target defaults to :data:`BENCH_PERF_JSON` but honors the
    ``REPRO_BENCH_JSON`` environment variable when ``path`` is not given
    — that is how ``repro bench-check`` re-runs the benches without
    clobbering the checked-in baseline it compares against.

    The rewrite is atomic (temp file in the same directory +
    :func:`os.replace`), so a benchmark run killed mid-write can never
    leave a truncated baseline behind; a pre-existing corrupt or
    non-list file is treated as empty rather than fatal.
    """
    if path is None:
        override = os.environ.get("REPRO_BENCH_JSON", "")
        path = Path(override) if override else BENCH_PERF_JSON
    records = [
        {
            "schema": BENCH_SCHEMA_VERSION,
            **{
                k: v
                for k, v in r.items()
                if k not in _HOST_DEPENDENT_FIELDS and k != "schema"
            },
        }
        for r in records
    ]
    existing: list[dict] = []
    try:
        loaded = json.loads(path.read_text())
        if isinstance(loaded, list):
            existing = [r for r in loaded if isinstance(r, dict)]
    except (FileNotFoundError, OSError, json.JSONDecodeError):
        existing = []
    replaced = {(r["bench"], r["n"], r["m"]) for r in records}
    merged = [
        r
        for r in existing
        if (r.get("bench"), r.get("n"), r.get("m")) not in replaced
    ]
    merged.extend(records)
    merged.sort(key=lambda r: (str(r.get("bench")), r.get("n") or 0, r.get("m") or 0))
    payload = json.dumps(merged, indent=2) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def emit(name: str, text: str) -> str:
    """Persist one regenerated table/figure and echo it.

    Tables land in :data:`RESULTS_DIR`, or beside ``$REPRO_BENCH_JSON``
    when that is set, so a redirected run (``repro bench-check``) leaves
    the checked-in tables alone as well as the baseline.
    """
    override = os.environ.get("REPRO_BENCH_JSON", "")
    out_dir = Path(override).parent if override else RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return text
