"""Persistent telemetry store: append-only run records plus trace docs.

The ROADMAP's "queryable results store" item: one directory (default
``~/.repro``, overridable with ``--store DIR`` or the ``REPRO_STORE``
environment variable) that every CLI run, serve request, and fabric
sweep appends a **run record** to, so behavior is inspectable *after*
the process that produced it is gone.

Layout::

    <store>/
      runs.jsonl             # one JSON object per line, append-only
      traces/
        <trace_id>.trace.json  # full trace documents, by trace id

``runs.jsonl`` is written with a single ``O_APPEND`` ``write(2)`` per
record — concurrent writers (a sweep's supervisor and a serve daemon,
say) interleave at line granularity without locking.  Readers tolerate
torn or corrupt lines (a crash mid-write) by skipping them and
*counting* the skips, mirroring the ``skipped_sources`` contract of the
trace stitcher: data loss is reported, never silent.

Every record carries ``schema`` (:data:`STORE_SCHEMA`), a wall-clock
``ts``, and a ``kind`` (``"bench"``, ``"serve"``, ``"sweep"``,
``"run"``); everything else is record-kind-specific.  The query layer
(:meth:`TelemetryStore.query`) filters on the shared keys and
aggregates latency percentiles with the exact
:meth:`~repro.obs.metrics.HistogramValue.quantile` estimator.  The
store records and answers queries; it does not grade timings (that is
``perfbench`` end to end, and ``repro bench-check`` for kernel rows).

Stdlib-only and ``mypy --strict`` clean like the rest of ``repro.obs``.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .metrics import Histogram

__all__ = [
    "STORE_SCHEMA",
    "STORE_ENV",
    "StoreError",
    "QueryResult",
    "TelemetryStore",
    "default_store_dir",
    "resolve_store_dir",
    "percentiles_of",
]

#: Schema tag stamped on every run record.
STORE_SCHEMA = "repro-telemetry-v1"

#: Environment variable naming the store directory.
STORE_ENV = "REPRO_STORE"

#: Record kinds the query layer knows how to filter.
_KNOWN_KINDS = ("bench", "serve", "sweep", "run")


class StoreError(ValueError):
    """A record or store operation violated the store contract."""


def default_store_dir() -> Path:
    """The fallback store location: ``~/.repro``."""
    return Path.home() / ".repro"


def resolve_store_dir(explicit: str | os.PathLike[str] | None = None) -> Path | None:
    """Resolve the store directory from flag, then environment.

    Returns ``None`` when neither ``explicit`` nor :data:`STORE_ENV` is
    set — recording call sites treat that as "store disabled", while
    the ``repro obs`` query verbs fall back to
    :func:`default_store_dir`.
    """
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(STORE_ENV, "").strip()
    if env:
        return Path(env)
    return None


def percentiles_of(
    samples: Sequence[float], qs: Iterable[float]
) -> dict[str, float]:
    """Exact percentiles of raw samples via the histogram quantile path.

    Builds a histogram whose bucket bounds are the sorted distinct
    samples, so :meth:`~repro.obs.metrics.HistogramValue.quantile`
    reproduces exact order statistics at integral ranks — the same code
    path ``repro obs query`` uses, kept honest by the property tests.
    Keys are ``p50``-style labels (``p99.9`` for fractional points).
    """
    out: dict[str, float] = {}
    finite = [float(s) for s in samples if math.isfinite(s)]
    if not finite:
        return {_plabel(q): float("nan") for q in qs}
    bounds = sorted(set(finite))
    hist = Histogram("store_percentiles_seconds", buckets=bounds)
    for s in finite:
        hist.observe(s)
    for q in qs:
        out[_plabel(q)] = hist.quantile(q)
    return out


def _plabel(q: float) -> str:
    pct = q * 100.0
    if abs(pct - round(pct)) < 1e-9:
        return f"p{int(round(pct))}"
    return f"p{pct:g}"


@dataclass(frozen=True)
class QueryResult:
    """Rows matching a query, plus the store-health counters."""

    rows: tuple[dict[str, Any], ...]
    #: Lines in ``runs.jsonl`` that failed to parse (torn writes).
    corrupt_lines: int
    #: Records scanned before filtering.
    scanned: int

    def samples(self, key: str = "seconds") -> list[float]:
        """Flatten raw latency samples across rows.

        Prefers each row's ``samples`` array; falls back to its scalar
        ``key`` value, so mixed per-request and per-run records pool.
        """
        out: list[float] = []
        for row in self.rows:
            raw = row.get("samples")
            if isinstance(raw, list):
                out.extend(
                    float(v)
                    for v in raw
                    if isinstance(v, (int, float)) and not isinstance(v, bool)
                )
                continue
            val = row.get(key)
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                out.append(float(val))
        return out

    def percentiles(self, qs: Iterable[float] = (0.5, 0.9, 0.99)) -> dict[str, float]:
        """Exact percentiles over :meth:`samples`."""
        return percentiles_of(self.samples(), qs)


@dataclass
class TelemetryStore:
    """One telemetry store directory (see module docstring for layout)."""

    root: Path
    _dirs_ready: bool = field(default=False, repr=False)

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self._dirs_ready = False

    # ---------------------------------------------------------------- paths

    @property
    def runs_path(self) -> Path:
        return self.root / "runs.jsonl"

    @property
    def traces_dir(self) -> Path:
        return self.root / "traces"

    def trace_path(self, trace_id: str) -> Path:
        if not _is_hex(trace_id, 32):
            raise StoreError(f"invalid trace_id {trace_id!r}")
        return self.traces_dir / f"{trace_id}.trace.json"

    def _ensure_dirs(self) -> None:
        if not self._dirs_ready:
            self.traces_dir.mkdir(parents=True, exist_ok=True)
            self._dirs_ready = True

    # --------------------------------------------------------------- append

    def append(self, record: Mapping[str, Any]) -> dict[str, Any]:
        """Append one run record to ``runs.jsonl``; returns the stamped record.

        Stamps ``schema`` and (if absent) ``ts``; requires a ``kind``.
        The serialized line is written with one ``O_APPEND`` write so
        concurrent appenders never interleave within a line.
        """
        kind = record.get("kind")
        if not isinstance(kind, str) or kind not in _KNOWN_KINDS:
            raise StoreError(
                f"record kind must be one of {list(_KNOWN_KINDS)}, got {kind!r}"
            )
        stamped = dict(record)
        stamped["schema"] = STORE_SCHEMA
        ts = stamped.get("ts")
        if ts is None:
            stamped["ts"] = time.time()
        elif isinstance(ts, bool) or not isinstance(ts, (int, float)):
            raise StoreError(f"record ts must be numeric, got {ts!r}")
        line = json.dumps(stamped, separators=(",", ":"), sort_keys=True)
        if "\n" in line:
            raise StoreError("record serialization produced a newline")
        self._ensure_dirs()
        fd = os.open(
            self.runs_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, (line + "\n").encode("utf-8"))
        finally:
            os.close(fd)
        return stamped

    def save_trace(self, doc: Mapping[str, Any]) -> Path:
        """Persist a trace document under ``traces/<trace_id>.trace.json``.

        The document must carry a doc-level ``trace_id`` (schema v2).
        """
        trace_id = doc.get("trace_id")
        if not isinstance(trace_id, str):
            raise StoreError("trace document has no trace_id")
        path = self.trace_path(trace_id)
        self._ensure_dirs()
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return path

    def load_trace_doc(self, trace_id: str) -> dict[str, Any]:
        """Load a stored trace document by id; raises ``StoreError`` if absent."""
        path = self.trace_path(trace_id)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            raise StoreError(f"no stored trace {trace_id}") from None
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise StoreError(f"stored trace {trace_id} is corrupt: {exc}") from exc
        if not isinstance(doc, dict):
            raise StoreError(f"stored trace {trace_id} is not an object")
        return doc

    def trace_ids(self) -> list[str]:
        """Ids of every stored trace document, sorted."""
        if not self.traces_dir.is_dir():
            return []
        return sorted(
            p.name[: -len(".trace.json")]
            for p in self.traces_dir.glob("*.trace.json")
        )

    # ---------------------------------------------------------------- query

    def query(
        self,
        *,
        kind: str | None = None,
        bench: str | None = None,
        op: str | None = None,
        trace_id: str | None = None,
        since: float | None = None,
        until: float | None = None,
        limit: int | None = None,
    ) -> QueryResult:
        """Scan ``runs.jsonl`` and return matching records, newest last.

        All filters are conjunctive; ``since``/``until`` bound the
        record ``ts`` (inclusive).  ``limit`` keeps the *latest* N
        matches.  Corrupt lines are skipped and counted, never raised.
        """
        if limit is not None and limit < 1:
            raise StoreError(f"limit must be >= 1, got {limit}")
        rows: list[dict[str, Any]] = []
        corrupt = 0
        scanned = 0
        try:
            raw_lines = self.runs_path.read_text().splitlines()
        except FileNotFoundError:
            raw_lines = []
        for line in raw_lines:
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                corrupt += 1
                continue
            if not isinstance(rec, dict):
                corrupt += 1
                continue
            scanned += 1
            if kind is not None and rec.get("kind") != kind:
                continue
            if bench is not None and rec.get("bench") != bench:
                continue
            if op is not None and rec.get("op") != op:
                continue
            if trace_id is not None and rec.get("trace_id") != trace_id:
                continue
            ts = rec.get("ts")
            ts_val = (
                float(ts)
                if isinstance(ts, (int, float)) and not isinstance(ts, bool)
                else None
            )
            if since is not None and (ts_val is None or ts_val < since):
                continue
            if until is not None and (ts_val is None or ts_val > until):
                continue
            rows.append(rec)
        if limit is not None:
            rows = rows[-limit:]
        return QueryResult(
            rows=tuple(rows), corrupt_lines=corrupt, scanned=scanned
        )


def _is_hex(value: str, length: int) -> bool:
    if len(value) != length:
        return False
    try:
        int(value, 16)
    except ValueError:
        return False
    return value == value.lower()
