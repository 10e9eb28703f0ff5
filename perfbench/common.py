"""Shared plumbing: statistics, the per-run report, and child isolation."""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for sockets, sweep directories and traces; inside the
#: checkout, so a run reads and writes nothing outside it.
WORK = ROOT / ".perfbench"

#: BLAS/OpenMP threads for this process and every child it starts.  One
#: thread per process keeps the 2-core budget predictable: a fabric
#: worker or a pool solver cannot fan out over the generator's core.
BLAS_THREADS = 1
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: Variables that would make the program append to a telemetry store or
#: rewrite a bench file as a side effect of being measured.
_CLEARED_VARS = ("REPRO_STORE", "REPRO_BENCH_JSON")

#: The end-to-end metrics every workload reports in its result line.
HEADLINE = ("setup_s", "op_p50_s", "mapping_cost", "peak_rss_mb")


def isolate_environment() -> None:
    """Pin threads, drop store/bench variables, keep temp files local.

    Must run before numpy is imported: BLAS reads its thread count once.
    Children inherit ``os.environ``, so this covers CLI subprocesses,
    the daemon and its pool, and fabric workers alike.
    """
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    for var in _CLEARED_VARS:
        os.environ.pop(var, None)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    import tempfile

    tempfile.tempdir = str(tmp)


# ------------------------------------------------------------------ statistics


def median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs))


def spread(xs: Sequence[float]) -> float | None:
    """Inter-quartile range over the median, or None below 2 samples."""
    if len(xs) < 2:
        return None
    q1, _, q3 = statistics.quantiles(xs, n=4)
    mid = statistics.median(xs)
    return (q3 - q1) / mid if mid else None


def tail(xs: Sequence[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with >= 10 samples above.

    None below 20 samples, where that percentile would not lie above the
    median and so would say nothing about the tail.
    """
    n = len(xs)
    if n < 20:
        return None
    ordered = sorted(xs)
    return float(ordered[n - 11]), 100.0 * (n - 10) / n


def geomean(xs: Sequence[float]) -> float:
    return float(math.exp(sum(math.log(x) for x in xs) / len(xs)))


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the host so far; None off Linux.

    Steal is time the hypervisor gave this machine's CPUs to others; a
    run with a high share of it measured a slowed machine.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def mapping_error(problem: Any, assignment: Any, cost: float) -> str:
    """Why a mapping fails its output check; empty when it passes.

    It must satisfy pins and capacities (``validate_assignment``), and
    its reported cost must be exactly what ``total_cost`` gives for it.
    """
    import numpy as np

    from repro.core import total_cost, validate_assignment

    try:
        P = validate_assignment(problem, np.asarray(assignment))
    except ValueError as exc:
        return f"infeasible mapping ({exc})"
    if total_cost(problem, P) != cost:
        return "reported cost differs from total_cost"
    return ""


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def cpu_seconds() -> float:
    """CPU time of this process and of its children reaped so far.

    Unlike wall time it leaves out time the hypervisor gave this
    machine's CPUs to other guests (steal).  On a shared 2-core host one
    N=16384 multilevel map measured 2.86-5.49 s wall, tracking steal,
    and 2.83-3.13 s CPU; on an idle host the two agree.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def self_cpu_seconds() -> float:
    """CPU time of this process alone, all its threads."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime


def tree_cpu_seconds(pid: int) -> float:
    """CPU time of a live child process and of all its descendants.

    Read from ``/proc``: a long-lived child (the placement daemon and
    its pool worker) is not reaped between the points it is measured at,
    so ``getrusage`` cannot see it.  Reaped descendants count through
    the ``cutime``/``cstime`` fields.
    """
    tick = os.sysconf("SC_CLK_TCK")
    parent: dict[int, int] = {}
    ticks: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # After the parenthesised name: state, ppid, ...; utime,
                # stime, cutime and cstime are fields 14-17 of proc(5).
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while listed
        parent[int(entry)] = int(fields[1])
        ticks[int(entry)] = sum(int(x) for x in fields[11:15])
    total = 0
    for p in ticks:
        q = p
        while q in parent and q != pid:
            q = parent[q]
        if q == pid:
            total += ticks[p]
    return total / tick


def timed_cpu(fn: Callable[[], Any]) -> tuple[float, float, Any]:
    """(CPU seconds, wall seconds, result) of ``fn()``; CPU as in
    :func:`cpu_seconds`, so a child must be reaped inside ``fn``."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    out = fn()
    return cpu_seconds() - c0, time.perf_counter() - t0, out


def run_python(code_or_args: Sequence[str], *, timeout: float = 120.0) -> str:
    """Run a fresh interpreter (isolated env inherited); return stdout."""
    proc = subprocess.run(
        [sys.executable, *code_or_args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(code_or_args)[:80]} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-400:]}"
        )
    return proc.stdout


# ---------------------------------------------------------------------- report


@dataclass
class Stat:
    """One end-to-end figure as printed: value, unit, sample count, spread."""

    value: float
    unit: str
    samples: int = 1
    spread: float | None = None
    note: str = ""


def timing_stat(xs: Sequence[float], note: str = "") -> Stat:
    return Stat(median(xs), "s", len(xs), spread(xs), note)


def cpu_stat(cpu: Sequence[float], wall: Sequence[float], what: str) -> Stat:
    """A CPU-time figure, with the wall-time median of the same runs beside it."""
    return timing_stat(cpu, f"CPU time of {what}; wall p50 {median(wall):.4g} s")


def tail_stat(xs: Sequence[float]) -> Stat:
    found = tail(xs)
    if found is None:
        return Stat(float("nan"), "s", len(xs), None, "needs 20 samples; run longer")
    value, pct = found
    return Stat(value, "s", len(xs), None, f"p{pct:.1f}, 10 samples above")


@dataclass
class Report:
    """Everything one run of one workload measured and checked."""

    workload: str
    e2e: dict[str, Stat] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    #: (stage, seconds) rows of the where-the-time-goes table.
    stages: list[tuple[str, float]] = field(default_factory=list)
    stage_total_s: float = 0.0
    stage_total_name: str = ""
    trace_path: str = ""
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str = "") -> bool:
        """Count one attempted operation; a failed one names its reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def fail(self, what: str) -> None:
        """A check over operations already counted failed."""
        self.failed += 1
        self.errors.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors and self.attempted > 0
