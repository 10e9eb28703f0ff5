"""Kernel perf gate: compare quick bench runs against BENCH_perf.json.

``BENCH_perf.json`` accumulates ``{bench, n, m, seconds, cost}`` records
from the ``benchmarks/bench_*`` suite.  This module is the comparison
engine behind ``repro bench-check``.  ``perfbench`` grades what its
end-to-end workloads reach (paper apps, multilevel, serve, fabric) with
a median/IQR noise model; this gate keeps only the kernel micro-bench
rows perfbench does not time (cost aggregation, batch cost, sampling,
geodist, obs overhead, lint and store):

* :func:`load_bench_records` reads and sanity-checks a records file;
  every record must carry ``schema`` equal to
  :data:`BENCH_SCHEMA_VERSION`;
* :func:`run_quick_benches` re-runs the quick benches into a *separate*
  results file (via the ``REPRO_BENCH_JSON`` override honored by
  ``benchmarks/_common.py``) so neither the checked-in baseline nor the
  checked-in result tables are clobbered by the gate itself;
* :func:`compare_bench_records` joins baseline and current on the
  hostname-independent ``(bench, n, m)`` key and grades each pair:
  ``ok``, ``warn`` (non-blocking, default > +25%) or ``fail`` (default
  > 2x).  Sub-millisecond benches are graded ``ok`` below a noise floor
  — scheduler jitter at the microsecond scale is not a regression.

Stdlib-only and ``mypy --strict`` clean like the rest of ``repro.obs``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCH_JSON_ENV",
    "QUICK_BENCH_SCRIPTS",
    "BenchDelta",
    "BenchCheckReport",
    "bench_key",
    "load_bench_records",
    "compare_bench_records",
    "run_quick_benches",
    "find_benchmarks_dir",
]

#: Version stamped into every record ``update_bench_json`` writes.
#: v2 added the ``schema`` field itself and banned host-dependent keys.
BENCH_SCHEMA_VERSION = 2

#: Environment variable redirecting ``update_bench_json`` output.
BENCH_JSON_ENV = "REPRO_BENCH_JSON"

#: The scripts ``bench-check --quick`` re-runs, in order.
QUICK_BENCH_SCRIPTS: tuple[str, ...] = (
    "bench_perf_core.py",
    "bench_perf_geodist.py",
    "bench_obs.py",
    "bench_lint.py",
    "bench_store.py",
)

#: ``(bench, n, m)`` — stable across machines, unlike hostnames or paths.
BenchKey = tuple[str, int, int]


def bench_key(record: Mapping[str, Any]) -> BenchKey:
    """The hostname-independent identity of one bench record."""
    return (str(record["bench"]), int(record["n"]), int(record["m"]))


def load_bench_records(path: str | Path) -> list[dict[str, Any]]:
    """Read a bench-records file, validating the fields the gate needs.

    Every record must be an object carrying ``schema`` (equal to
    :data:`BENCH_SCHEMA_VERSION`), ``bench``, ``n``, ``m`` and a numeric
    ``seconds``; anything else raises ``ValueError`` naming the file and
    the record index.
    """
    path = Path(path)
    try:
        loaded = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(loaded, list):
        raise ValueError(f"{path}: expected a JSON list of bench records")
    records: list[dict[str, Any]] = []
    for i, rec in enumerate(loaded):
        if not isinstance(rec, dict):
            raise ValueError(f"{path}: record [{i}] is not an object")
        for fieldname in ("schema", "bench", "n", "m", "seconds"):
            if fieldname not in rec:
                raise ValueError(f"{path}: record [{i}] missing {fieldname!r}")
        seconds = rec["seconds"]
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            raise ValueError(f"{path}: record [{i}] seconds must be numeric")
        schema = rec["schema"]
        if schema != BENCH_SCHEMA_VERSION:
            raise ValueError(
                f"{path}: record [{i}] has schema {schema!r}, "
                f"expected {BENCH_SCHEMA_VERSION}"
            )
        records.append(rec)
    return records


@dataclass(frozen=True)
class BenchDelta:
    """One bench's baseline-vs-current comparison."""

    bench: str
    n: int
    m: int
    baseline_s: float
    current_s: float
    #: ``current / baseline``; large is bad.
    ratio: float
    #: ``"ok"`` | ``"warn"`` | ``"fail"``.
    status: str
    #: True when both timings sit under the noise floor (always ``ok``).
    below_floor: bool = False


@dataclass(frozen=True)
class BenchCheckReport:
    """The result of :func:`compare_bench_records`."""

    deltas: tuple[BenchDelta, ...]
    #: Baseline keys the current run did not produce (not graded).
    missing_in_current: tuple[BenchKey, ...]
    #: Current keys absent from the baseline (new benches, not graded).
    missing_in_baseline: tuple[BenchKey, ...]
    warn_ratio: float
    fail_ratio: float

    @property
    def warnings(self) -> tuple[BenchDelta, ...]:
        return tuple(d for d in self.deltas if d.status == "warn")

    @property
    def failures(self) -> tuple[BenchDelta, ...]:
        return tuple(d for d in self.deltas if d.status == "fail")

    @property
    def ok(self) -> bool:
        """True when nothing hard-failed (warnings are non-blocking)."""
        return not self.failures

    def render(self) -> str:
        """The ``bench-check`` output table."""
        lines = [
            f"{'bench':<28} {'n':>5} {'m':>4} {'baseline':>11} "
            f"{'current':>11} {'ratio':>7}  status"
        ]
        for d in sorted(self.deltas, key=lambda d: (d.bench, d.n, d.m)):
            note = " (below noise floor)" if d.below_floor else ""
            lines.append(
                f"{d.bench:<28} {d.n:>5} {d.m:>4} {d.baseline_s:>11.6f} "
                f"{d.current_s:>11.6f} {d.ratio:>6.2f}x  {d.status}{note}"
            )
        for key in self.missing_in_current:
            lines.append(f"{key[0]:<28} {key[1]:>5} {key[2]:>4} "
                         f"{'—':>11} {'—':>11} {'—':>7}  not re-run")
        for key in self.missing_in_baseline:
            lines.append(f"{key[0]:<28} {key[1]:>5} {key[2]:>4} "
                         f"{'—':>11} {'—':>11} {'—':>7}  new (no baseline)")
        lines.append(
            f"compared {len(self.deltas)} bench(es): "
            f"{len(self.warnings)} warn (>{(self.warn_ratio - 1) * 100:.0f}%), "
            f"{len(self.failures)} fail (>{self.fail_ratio:.1f}x)"
        )
        return "\n".join(lines)


def compare_bench_records(
    baseline: Sequence[Mapping[str, Any]],
    current: Sequence[Mapping[str, Any]],
    *,
    warn_ratio: float = 1.25,
    fail_ratio: float = 2.0,
    noise_floor_s: float = 0.005,
) -> BenchCheckReport:
    """Join two record sets on ``(bench, n, m)`` and grade each pair.

    ``warn_ratio`` / ``fail_ratio`` are current-over-baseline thresholds
    (1.25 → warn past +25%).  Pairs where *both* timings are under
    ``noise_floor_s`` are graded ``ok`` regardless of ratio: a 22 µs
    kernel jumping to 60 µs under scheduler jitter is not a regression
    worth failing CI over.
    """
    if not 1.0 <= warn_ratio <= fail_ratio:
        raise ValueError(
            f"need 1.0 <= warn_ratio <= fail_ratio, "
            f"got {warn_ratio} / {fail_ratio}"
        )
    base_by_key = {bench_key(r): float(r["seconds"]) for r in baseline}
    cur_by_key = {bench_key(r): float(r["seconds"]) for r in current}
    deltas: list[BenchDelta] = []
    for key in sorted(set(base_by_key) & set(cur_by_key)):
        base_s = base_by_key[key]
        cur_s = cur_by_key[key]
        ratio = cur_s / base_s if base_s > 0 else float("inf")
        below_floor = base_s < noise_floor_s and cur_s < noise_floor_s
        if below_floor or ratio < warn_ratio:
            status = "ok"
        elif ratio < fail_ratio:
            status = "warn"
        else:
            status = "fail"
        deltas.append(
            BenchDelta(
                bench=key[0],
                n=key[1],
                m=key[2],
                baseline_s=base_s,
                current_s=cur_s,
                ratio=ratio,
                status=status,
                below_floor=below_floor,
            )
        )
    return BenchCheckReport(
        deltas=tuple(deltas),
        missing_in_current=tuple(sorted(set(base_by_key) - set(cur_by_key))),
        missing_in_baseline=tuple(sorted(set(cur_by_key) - set(base_by_key))),
        warn_ratio=warn_ratio,
        fail_ratio=fail_ratio,
    )


def find_benchmarks_dir(start: str | Path | None = None) -> Path:
    """Locate the repo's ``benchmarks/`` directory.

    Walks up from ``start`` (default: this file) looking for a
    ``benchmarks`` directory containing ``_common.py``; raises
    ``FileNotFoundError`` when the tree has none (e.g. an installed
    wheel without the source checkout).
    """
    origin = Path(start) if start is not None else Path(__file__).resolve()
    for parent in [origin, *origin.parents]:
        candidate = parent / "benchmarks"
        if (candidate / "_common.py").is_file():
            return candidate
    raise FileNotFoundError(
        f"no benchmarks/ directory found above {origin} — "
        "run bench-check from a source checkout or pass --current"
    )


def run_quick_benches(
    benchmarks_dir: str | Path,
    out_path: str | Path,
    *,
    scripts: Sequence[str] = QUICK_BENCH_SCRIPTS,
) -> list[dict[str, Any]]:
    """Run the quick benches, redirecting records away from the baseline.

    Each script runs as a subprocess with :data:`BENCH_JSON_ENV` pointed
    at ``out_path``, so ``update_bench_json`` merges into that file and
    the checked-in ``BENCH_perf.json`` baseline stays untouched.  Raises
    ``RuntimeError`` with the captured output when a script fails.
    Returns the records accumulated at ``out_path``.
    """
    benchmarks_dir = Path(benchmarks_dir)
    out_path = Path(out_path)
    env = dict(os.environ)
    env[BENCH_JSON_ENV] = str(out_path)
    src_dir = benchmarks_dir.parent / "src"
    pythonpath = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        f"{src_dir}{os.pathsep}{pythonpath}" if pythonpath else str(src_dir)
    )
    for script in scripts:
        script_path = benchmarks_dir / script
        if not script_path.is_file():
            raise FileNotFoundError(f"bench script not found: {script_path}")
        proc = subprocess.run(
            [sys.executable, str(script_path), "--quick"],
            capture_output=True,
            text=True,
            env=env,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{script} --quick failed (exit {proc.returncode}):\n"
                f"{proc.stdout}\n{proc.stderr}"
            )
    if not out_path.is_file():
        raise RuntimeError(
            f"quick benches wrote no records to {out_path} — "
            f"is {BENCH_JSON_ENV} honored by benchmarks/_common.py?"
        )
    return load_bench_records(out_path)
