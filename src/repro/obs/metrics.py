"""Typed metrics: counters, gauges, histograms with label sets.

Where :mod:`repro.obs.spans` answers "what happened, in what order,
inside *this* run", metrics answer "how much, in total, across runs" —
the numbers a mapping service actually alerts on.  Three metric kinds,
mirroring the Prometheus data model:

* :class:`Counter` — monotone accumulator (``serve_requests_total``);
* :class:`Gauge` — last-write-wins level (``serve_queue_depth``);
* :class:`Histogram` — bucketed distribution with sum and count
  (``serve_request_seconds``).

Every sample is keyed by a **label set** (sorted ``(key, value)`` string
pairs), so one metric family tracks e.g. per-mapper or per-link series
without pre-declaring them.

A :class:`MetricsRegistry` owns the families, and there is no ambient
one: spans (:mod:`repro.obs.spans`) are the only instrumentation the
library emits.  Metrics come from two owners.  The placement daemon
holds one registry explicitly (it backs ``/metrics`` and the
``metrics`` op), and :func:`repro.obs.analytics.aggregate_trace` builds
a fresh registry per call to roll a trace up (``repro metrics``).
:meth:`MetricsRegistry.snapshot` freezes the current samples into a
:class:`MetricsSnapshot` that can be queried, serialized to JSON, or
rendered in the Prometheus text exposition format.

Zero dependencies (stdlib only) and ``mypy --strict`` clean, like the
rest of :mod:`repro.obs`.

Concurrency contract
--------------------
A :class:`MetricsRegistry` and every family it creates share one lock,
so **mutation and reads are thread-safe** — asyncio handler tasks,
worker threads, and executor *callbacks* may hit the same registry
freely, as long as they hold a reference to it.
``tests/obs/test_concurrency.py`` pins this.
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence, Union

__all__ = [
    "Labels",
    "labelset",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "DEFAULT_BUCKETS",
    "MetricsSnapshot",
    "MetricsRegistry",
]

#: A frozen label set: sorted ``(name, value)`` string pairs.
Labels = tuple[tuple[str, str], ...]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets: log-ish spacing from 0.1 ms to 60 s —
#: covers mapping overheads and simulated makespans alike.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def labelset(labels: Mapping[str, object]) -> Labels:
    """Normalize a label mapping into the canonical frozen key.

    Label *names* must be valid Prometheus label names; label *values*
    are stringified (so ``src_site=3`` and ``src_site="3"`` are the same
    series).
    """
    items: list[tuple[str, str]] = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
        items.append((key, str(labels[key])))
    return tuple(items)


# ---------------------------------------------------------------- families


class Counter:
    """A monotone accumulator, one series per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", *, _lock: threading.Lock | None = None) -> None:
        self.name = _check_name(name)
        self.help = help
        self._lock = _lock if _lock is not None else threading.Lock()
        self._values: dict[Labels, float] = {}

    def inc(self, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` (must be >= 0) to the labeled series."""
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {value})")
        key = labelset(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: object) -> float:
        """Current value of one labeled series (0.0 if never bumped)."""
        with self._lock:
            return self._values.get(labelset(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        with self._lock:
            return sum(self._values.values())


class Gauge:
    """A last-write-wins level, one series per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", *, _lock: threading.Lock | None = None) -> None:
        self.name = _check_name(name)
        self.help = help
        self._lock = _lock if _lock is not None else threading.Lock()
        self._values: dict[Labels, float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Set the labeled series to ``value``."""
        key = labelset(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` (may be negative) to the labeled series."""
        key = labelset(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def dec(self, value: float = 1.0, **labels: object) -> None:
        """Subtract ``value`` from the labeled series."""
        self.inc(-value, **labels)

    def value(self, **labels: object) -> float:
        """Current value of one labeled series (0.0 if never set)."""
        with self._lock:
            return self._values.get(labelset(labels), 0.0)


@dataclass(frozen=True)
class HistogramValue:
    """Frozen state of one histogram series.

    ``counts[i]`` is the number of observations in ``(bounds[i-1],
    bounds[i]]`` (upper bound *inclusive*, Prometheus ``le`` semantics);
    the final slot counts observations above the last bound.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int

    def cumulative(self) -> tuple[int, ...]:
        """Cumulative per-``le``-bucket counts (ending at ``count``)."""
        out: list[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return tuple(out)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by ``le``-bound interpolation.

        The rank ``q * count`` is located in the cumulative bucket
        counts; within a bucket the value is linearly interpolated
        between the bucket's lower and upper bound.  Deviations from
        Prometheus's ``histogram_quantile``, both chosen so histograms
        whose bounds are the sorted raw samples reproduce exact order
        statistics:

        * a rank landing in the **first** bucket returns that bucket's
          upper bound (there is no lower edge to interpolate from);
        * a rank in the overflow (``+Inf``) bucket returns the highest
          finite bound rather than extrapolating.

        Empty series yield ``nan``; ``q`` outside ``[0, 1]`` raises.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        running = 0
        for i, bucket_count in enumerate(self.counts):
            prev = running
            running += bucket_count
            if running >= rank and bucket_count > 0:
                if i >= len(self.bounds):
                    return self.bounds[-1]
                if i == 0:
                    return self.bounds[0]
                lo, hi = self.bounds[i - 1], self.bounds[i]
                return lo + (hi - lo) * ((rank - prev) / bucket_count)
        # Unreachable: count > 0 means some bucket is populated and the
        # running total reaches rank <= count; kept for type narrowness.
        return math.nan


class Histogram:
    """A bucketed distribution with sum and count, per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Sequence[float] | None = None,
        _lock: threading.Lock | None = None,
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        bounds = tuple(float(b) for b in (DEFAULT_BUCKETS if buckets is None else buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        for lo, hi in zip(bounds, bounds[1:]):
            if not lo < hi:
                raise ValueError(f"bucket bounds must strictly increase, got {bounds}")
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError(f"bucket bounds must be finite, got {bounds}")
        self.bounds = bounds
        self._lock = _lock if _lock is not None else threading.Lock()
        # Per label set: [counts..., sum, count] kept mutable for speed.
        self._counts: dict[Labels, list[int]] = {}
        self._sums: dict[Labels, float] = {}
        self._totals: dict[Labels, int] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the labeled series."""
        key = labelset(labels)
        idx = bisect_left(self.bounds, value)  # le-inclusive bucket index
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.bounds) + 1)
                self._sums[key] = 0.0
                self._totals[key] = 0
            counts[idx] += 1
            self._sums[key] += float(value)
            self._totals[key] += 1

    def value(self, **labels: object) -> HistogramValue:
        """Frozen state of one labeled series (empty if never observed)."""
        key = labelset(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                return HistogramValue(
                    bounds=self.bounds,
                    counts=tuple([0] * (len(self.bounds) + 1)),
                    sum=0.0,
                    count=0,
                )
            return HistogramValue(
                bounds=self.bounds,
                counts=tuple(counts),
                sum=self._sums[key],
                count=self._totals[key],
            )

    def quantile(self, q: float, **labels: object) -> float:
        """:meth:`HistogramValue.quantile` of one labeled series."""
        return self.value(**labels).quantile(q)


Metric = Union[Counter, Gauge, Histogram]


# ---------------------------------------------------------------- snapshot


def _fmt_value(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_labels(key: Labels, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + inner + "}"


@dataclass
class MetricsSnapshot:
    """A frozen, serializable view of a registry's samples.

    Snapshots are plain data: query them, serialize them to JSON
    (:meth:`to_dict`), or render them for scraping (:meth:`render_prom`).
    """

    counters: dict[str, dict[Labels, float]] = field(default_factory=dict)
    gauges: dict[str, dict[Labels, float]] = field(default_factory=dict)
    histograms: dict[str, dict[Labels, HistogramValue]] = field(default_factory=dict)
    help: dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------- queries

    def counter_value(self, name: str, **labels: object) -> float:
        """One counter series' value (0.0 when absent)."""
        return self.counters.get(name, {}).get(labelset(labels), 0.0)

    def counter_total(self, name: str) -> float:
        """A counter family's sum over all label sets."""
        return sum(self.counters.get(name, {}).values())

    def gauge_value(self, name: str, **labels: object) -> float:
        """One gauge series' value (0.0 when absent)."""
        return self.gauges.get(name, {}).get(labelset(labels), 0.0)

    def histogram_value(self, name: str, **labels: object) -> HistogramValue | None:
        """One histogram series, or None when absent."""
        return self.histograms.get(name, {}).get(labelset(labels))

    @property
    def empty(self) -> bool:
        """True when the snapshot holds no series at all."""
        return not (self.counters or self.gauges or self.histograms)

    # ----------------------------------------------------------------- JSON

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready document (the ``--format json`` shape)."""

        def flat(series: dict[Labels, float]) -> list[dict[str, Any]]:
            return [
                {"labels": dict(key), "value": val}
                for key, val in sorted(series.items())
            ]

        return {
            "version": 1,
            "counters": {n: flat(s) for n, s in sorted(self.counters.items())},
            "gauges": {n: flat(s) for n, s in sorted(self.gauges.items())},
            "histograms": {
                n: [
                    {
                        "labels": dict(key),
                        "bounds": list(hv.bounds),
                        "counts": list(hv.counts),
                        "sum": hv.sum,
                        "count": hv.count,
                    }
                    for key, hv in sorted(s.items())
                ]
                for n, s in sorted(self.histograms.items())
            },
            "help": dict(sorted(self.help.items())),
        }

    def to_json(self) -> str:
        """:meth:`to_dict` as an indented JSON string."""
        return json.dumps(self.to_dict(), indent=2)

    # ------------------------------------------------------------- render

    def render_prom(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []

        def header(name: str, kind: str) -> None:
            text = self.help.get(name, "")
            if text:
                lines.append(f"# HELP {name} {text}")
            lines.append(f"# TYPE {name} {kind}")

        for name, series in sorted(self.counters.items()):
            header(name, "counter")
            for key, val in sorted(series.items()):
                lines.append(f"{name}{_fmt_labels(key)} {_fmt_value(val)}")
        for name, series in sorted(self.gauges.items()):
            header(name, "gauge")
            for key, val in sorted(series.items()):
                lines.append(f"{name}{_fmt_labels(key)} {_fmt_value(val)}")
        for name, hseries in sorted(self.histograms.items()):
            header(name, "histogram")
            for key, hv in sorted(hseries.items()):
                cumulative = hv.cumulative()
                for bound, cum in zip(hv.bounds, cumulative):
                    le = (("le", _fmt_value(bound)),)
                    lines.append(f"{name}_bucket{_fmt_labels(key, le)} {cum}")
                inf = (("le", "+Inf"),)
                lines.append(f"{name}_bucket{_fmt_labels(key, inf)} {hv.count}")
                lines.append(f"{name}_sum{_fmt_labels(key)} {_fmt_value(hv.sum)}")
                lines.append(f"{name}_count{_fmt_labels(key)} {hv.count}")
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------- registry


class MetricsRegistry:
    """Owns metric families; the live, mutable side of the layer.

    Families are created lazily and idempotently by
    :meth:`counter` / :meth:`gauge` / :meth:`histogram`; re-requesting a
    name with a different kind raises.  The convenience methods
    (:meth:`inc`, :meth:`set_gauge`, :meth:`observe`) create a family
    on first use.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------ families

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter family ``name``."""
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Counter(name, help, _lock=self._lock)
                self._metrics[name] = metric
            if not isinstance(metric, Counter):
                raise TypeError(
                    f"metric {name!r} already registered as a {metric.kind}, "
                    "requested as a counter"
                )
            if help and not metric.help:
                metric.help = help
            return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge family ``name``."""
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Gauge(name, help, _lock=self._lock)
                self._metrics[name] = metric
            if not isinstance(metric, Gauge):
                raise TypeError(
                    f"metric {name!r} already registered as a {metric.kind}, "
                    "requested as a gauge"
                )
            if help and not metric.help:
                metric.help = help
            return metric

    def histogram(
        self, name: str, help: str = "", *, buckets: Sequence[float] | None = None
    ) -> Histogram:
        """Get or create the histogram family ``name``.

        ``buckets`` only takes effect at creation; later calls reuse the
        existing bounds.
        """
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Histogram(name, help, buckets=buckets, _lock=self._lock)
                self._metrics[name] = metric
            if not isinstance(metric, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as a {metric.kind}, "
                    "requested as a histogram"
                )
            if help and not metric.help:
                metric.help = help
            return metric

    # ------------------------------------------------------- convenience

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Bump counter ``name`` (creating it on first use)."""
        self.counter(name).inc(value, **labels)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set gauge ``name`` (creating it on first use)."""
        self.gauge(name).set(value, **labels)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Observe into histogram ``name`` (creating it on first use)."""
        self.histogram(name).observe(value, **labels)

    # ------------------------------------------------------------ lifecycle

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the current samples into a :class:`MetricsSnapshot`."""
        snap = MetricsSnapshot()
        with self._lock:
            for name, metric in self._metrics.items():
                if metric.help:
                    snap.help[name] = metric.help
                if isinstance(metric, Counter):
                    snap.counters[name] = dict(metric._values)
                elif isinstance(metric, Gauge):
                    snap.gauges[name] = dict(metric._values)
                else:
                    snap.histograms[name] = {
                        key: HistogramValue(
                            bounds=metric.bounds,
                            counts=tuple(counts),
                            sum=metric._sums[key],
                            count=metric._totals[key],
                        )
                        for key, counts in metric._counts.items()
                    }
        return snap

    def render_prom(self) -> str:
        """Prometheus text exposition of the current samples."""
        return self.snapshot().render_prom()

