"""Trace analytics: aggregation, critical path, diffing, Chrome export.

PR 4 produced raw hierarchical traces; this module *consumes* them:

* :func:`aggregate_trace` rolls a span tree into a
  :class:`~repro.obs.metrics.MetricsSnapshot` — per-stage wall time and
  self time, per-link bytes/transfers/stalls, memoization hit ratios,
  retry/replay counts.  The numbers behind the paper's Fig. 4 overhead
  attribution come straight out of this.
* :func:`critical_path` extracts the longest dependency chain through a
  trace (descending into the slowest closed child at every level), with
  ``network.link`` usage attributed to each step — "which inter-site
  link is simulated runtime actually waiting on".
* :func:`diff_traces` compares two traces per span name (count, total
  and self time, stable attributes); the structural signature check is
  what the CI ``trace-diff`` smoke uses to assert two seeded runs
  produce bit-identical span trees.  It reports deltas and grades
  nothing: timing regressions are ``perfbench``'s job, which has a
  noise model that two single traces lack.
* :func:`trace_to_chrome` / :func:`write_chrome_trace` export the Chrome
  trace-event format, loadable in ``chrome://tracing`` or Perfetto.

Everything here is pure and stdlib-only, like the rest of
:mod:`repro.obs`, and ``mypy --strict`` clean.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .metrics import MetricsRegistry, MetricsSnapshot
from .spans import JSONValue, Span

__all__ = [
    "aggregate_trace",
    "CriticalPathStep",
    "LinkUse",
    "critical_path",
    "SpanDelta",
    "TraceDiff",
    "diff_traces",
    "structure_signature",
    "trace_to_chrome",
    "write_chrome_trace",
]


def _num(attrs: Mapping[str, JSONValue], key: str) -> float | None:
    """A numeric attribute, or None when absent / non-numeric."""
    value = attrs.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _label(attrs: Mapping[str, JSONValue], key: str) -> str:
    """An attribute stringified for use as a label value."""
    value = attrs.get(key)
    return "unknown" if value is None else str(value)


# -------------------------------------------------------------- aggregation


def aggregate_trace(
    trace: Sequence[Span], registry: MetricsRegistry | None = None
) -> MetricsSnapshot:
    """Roll a trace's spans and events up into a metrics snapshot.

    Emits, per span name: ``trace_spans_total``, ``span_seconds_total``,
    ``span_self_seconds_total`` (self = duration minus closed children —
    the per-stage overhead attribution), and a ``span_duration_seconds``
    histogram.  Span counters land in ``span_counter_total{span,counter}``;
    events in ``trace_events_total{event}``.  Domain rollups:
    ``link_{bytes,transfers,stall_seconds}_total{src_site,dst_site}``
    from ``network.link`` events, and memo hit accounting
    (``memo_{hits,misses}_total``, ``memo_hit_ratio``) from
    ``geodist.order`` spans.

    The self-time identity holds exactly: for a closed root, the sum of
    ``span_self_seconds_total`` over its subtree equals the root's
    duration (self times are *not* clamped at zero, so overlapping or
    clock-skewed children cannot break reconciliation).

    Pass ``registry`` to fold the rollup into a live registry instead of
    a fresh one; the snapshot returned reflects the registry *after*
    aggregation either way.
    """
    reg = MetricsRegistry() if registry is None else registry
    spans_total = reg.counter("trace_spans_total", "Spans per name")
    seconds_total = reg.counter("span_seconds_total", "Total wall time per span name")
    self_total = reg.counter(
        "span_self_seconds_total",
        "Wall time per span name minus closed children (overhead attribution)",
    )
    duration_hist = reg.histogram(
        "span_duration_seconds", "Distribution of span durations"
    )
    counter_total = reg.counter("span_counter_total", "Span counters rolled up")
    events_total = reg.counter("trace_events_total", "Events per name")
    errors_total = reg.counter("trace_errors_total", "Spans that recorded an error")
    open_total = reg.counter("trace_open_spans_total", "Spans never closed")

    link_bytes = reg.counter("link_bytes_total", "Bytes moved per inter-site link")
    link_transfers = reg.counter(
        "link_transfers_total", "Transfers per inter-site link"
    )
    link_stall = reg.counter(
        "link_stall_seconds_total", "Simulated stall time per inter-site link"
    )
    memo_hits = reg.counter(
        "memo_hits_total", "Geodist group fills resumed from the shared-prefix memo"
    )
    memo_misses = reg.counter(
        "memo_misses_total", "Geodist group fills computed fresh"
    )

    for root in trace:
        for span in root.iter():
            spans_total.inc(span=span.name)
            duration = span.duration_s
            if duration is None:
                open_total.inc(span=span.name)
            else:
                seconds_total.inc(duration, span=span.name)
                closed_children = sum(
                    child.duration_s or 0.0
                    for child in span.children
                    if child.duration_s is not None
                )
                self_total.inc(duration - closed_children, span=span.name)
                duration_hist.observe(duration, span=span.name)
            if "error" in span.attrs:
                errors_total.inc(span=span.name)
            for cname, cval in span.counters.items():
                counter_total.inc(cval, span=span.name, counter=cname)
            if span.name == "geodist.order":
                resumed = _num(span.attrs, "resumed_depth")
                filled = _num(span.attrs, "groups_filled")
                if resumed is not None:
                    memo_hits.inc(resumed)
                if filled is not None:
                    memo_misses.inc(filled)
            for event in span.events:
                events_total.inc(event=event.name)
                if event.name == "network.link":
                    src = _label(event.attrs, "src_site")
                    dst = _label(event.attrs, "dst_site")
                    nbytes = _num(event.attrs, "bytes")
                    transfers = _num(event.attrs, "transfers")
                    stall = _num(event.attrs, "stall_s")
                    if nbytes is not None:
                        link_bytes.inc(nbytes, src_site=src, dst_site=dst)
                    if transfers is not None:
                        link_transfers.inc(transfers, src_site=src, dst_site=dst)
                    if stall is not None:
                        link_stall.inc(stall, src_site=src, dst_site=dst)

    hits = memo_hits.total()
    misses = memo_misses.total()
    if hits + misses > 0:
        reg.set_gauge("memo_hit_ratio", hits / (hits + misses))
    return reg.snapshot()


# ------------------------------------------------------------ critical path


@dataclass(frozen=True)
class LinkUse:
    """One inter-site link's usage attributed to a critical-path step."""

    src_site: str
    dst_site: str
    bytes: float
    transfers: float
    stall_s: float


@dataclass(frozen=True)
class CriticalPathStep:
    """One span along the critical path through a trace."""

    name: str
    t_start: float
    t_end: float
    duration_s: float
    #: Duration minus the chosen (slowest) child — time this step alone
    #: contributes to the chain; step self times sum to the root duration.
    self_s: float
    depth: int
    links: tuple[LinkUse, ...] = ()


def _links_of(span: Span) -> tuple[LinkUse, ...]:
    uses: list[LinkUse] = []
    for event in span.events:
        if event.name != "network.link":
            continue
        uses.append(
            LinkUse(
                src_site=_label(event.attrs, "src_site"),
                dst_site=_label(event.attrs, "dst_site"),
                bytes=_num(event.attrs, "bytes") or 0.0,
                transfers=_num(event.attrs, "transfers") or 0.0,
                stall_s=_num(event.attrs, "stall_s") or 0.0,
            )
        )
    uses.sort(key=lambda u: u.stall_s, reverse=True)
    return tuple(uses)


def critical_path(trace: Sequence[Span]) -> list[CriticalPathStep]:
    """The longest dependency chain through a trace.

    Starts at the longest closed root and descends into the slowest
    closed child at every level (first wins ties, so zero-duration
    fan-outs are deterministic).  Each step carries its self time
    (duration minus the chosen child — the steps' ``self_s`` telescope
    to exactly the root duration) and any ``network.link`` usage on the
    span, sorted by stall time, so simulated runtime can be attributed
    to specific inter-site links.

    Returns ``[]`` for an empty trace or one with no closed root.
    """
    closed_roots = [r for r in trace if r.duration_s is not None]
    if not closed_roots:
        return []
    span = max(closed_roots, key=lambda r: r.duration_s or 0.0)
    path: list[CriticalPathStep] = []
    depth = 0
    while True:
        duration = span.duration_s
        if duration is None:  # defensive: only closed spans are chosen
            break
        closed_children = [c for c in span.children if c.duration_s is not None]
        child = (
            max(closed_children, key=lambda c: c.duration_s or 0.0)
            if closed_children
            else None
        )
        child_duration = 0.0 if child is None else (child.duration_s or 0.0)
        path.append(
            CriticalPathStep(
                name=span.name,
                t_start=span.t_start,
                t_end=span.t_start + duration,
                duration_s=duration,
                self_s=duration - child_duration,
                depth=depth,
                links=_links_of(span),
            )
        )
        if child is None:
            break
        span = child
        depth += 1
    return path


# ----------------------------------------------------------------- diffing


@dataclass(frozen=True)
class SpanDelta:
    """Per-span-name comparison between two traces."""

    name: str
    count_a: int
    count_b: int
    total_a: float
    total_b: float
    self_a: float
    self_b: float
    #: Stable attributes (single consistent value per trace) that differ:
    #: ``{attr: (value_in_a, value_in_b)}``.
    attr_changes: dict[str, tuple[JSONValue, JSONValue]] = field(default_factory=dict)

    @property
    def total_delta(self) -> float:
        return self.total_b - self.total_a

    def total_ratio(self) -> float | None:
        """``total_b / total_a``, or None when A recorded no time."""
        if self.total_a <= 0.0:
            return None
        return self.total_b / self.total_a


@dataclass(frozen=True)
class TraceDiff:
    """The result of :func:`diff_traces`."""

    deltas: dict[str, SpanDelta]
    only_in_a: tuple[str, ...]
    only_in_b: tuple[str, ...]
    signature_a: str
    signature_b: str

    @property
    def same_structure(self) -> bool:
        """True when both traces have identical span-name trees."""
        return self.signature_a == self.signature_b


@dataclass
class _NameStats:
    count: int = 0
    total: float = 0.0
    self_total: float = 0.0
    #: attr -> value while consistent; attrs seen with >1 value are dropped.
    stable_attrs: dict[str, JSONValue] = field(default_factory=dict)
    unstable: set[str] = field(default_factory=set)


def _collect_stats(trace: Sequence[Span]) -> dict[str, _NameStats]:
    stats: dict[str, _NameStats] = {}
    for root in trace:
        for span in root.iter():
            entry = stats.setdefault(span.name, _NameStats())
            entry.count += 1
            duration = span.duration_s
            if duration is not None:
                entry.total += duration
                closed_children = sum(
                    child.duration_s or 0.0
                    for child in span.children
                    if child.duration_s is not None
                )
                entry.self_total += duration - closed_children
            for key, value in span.attrs.items():
                if key in entry.unstable:
                    continue
                if key not in entry.stable_attrs:
                    entry.stable_attrs[key] = value
                elif entry.stable_attrs[key] != value:
                    del entry.stable_attrs[key]
                    entry.unstable.add(key)
    return stats


def structure_signature(trace: Sequence[Span]) -> str:
    """A digest of the trace's span-name tree (names + nesting + order).

    Two seeded runs of a deterministic pipeline must produce the same
    signature; timings and attributes deliberately do not participate.
    """

    def shape(span: Span) -> list[Any]:
        return [span.name, [shape(child) for child in span.children]]

    doc = json.dumps([shape(root) for root in trace], separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def diff_traces(a: Sequence[Span], b: Sequence[Span]) -> TraceDiff:
    """Compare two traces per span name.

    For every name appearing in either trace, the delta carries span
    counts, total and self wall time, and changes among *stable*
    attributes (those with one consistent value across all same-named
    spans within a trace — e.g. ``mapper`` or ``n``, but not per-order
    costs).  Use :attr:`TraceDiff.same_structure` for bit-identical
    structure checks.
    """
    stats_a = _collect_stats(a)
    stats_b = _collect_stats(b)
    names = sorted(set(stats_a) | set(stats_b))
    deltas: dict[str, SpanDelta] = {}
    for name in names:
        sa = stats_a.get(name, _NameStats())
        sb = stats_b.get(name, _NameStats())
        attr_changes: dict[str, tuple[JSONValue, JSONValue]] = {}
        for key in sorted(set(sa.stable_attrs) & set(sb.stable_attrs)):
            if sa.stable_attrs[key] != sb.stable_attrs[key]:
                attr_changes[key] = (sa.stable_attrs[key], sb.stable_attrs[key])
        deltas[name] = SpanDelta(
            name=name,
            count_a=sa.count,
            count_b=sb.count,
            total_a=sa.total,
            total_b=sb.total,
            self_a=sa.self_total,
            self_b=sb.self_total,
            attr_changes=attr_changes,
        )
    return TraceDiff(
        deltas=deltas,
        only_in_a=tuple(n for n in names if n not in stats_b),
        only_in_b=tuple(n for n in names if n not in stats_a),
        signature_a=structure_signature(a),
        signature_b=structure_signature(b),
    )


# ----------------------------------------------------------- Chrome export


def trace_to_chrome(trace: Sequence[Span]) -> dict[str, Any]:
    """A trace as a Chrome trace-event document (Perfetto-loadable).

    Closed spans become complete ("X") events with microsecond ``ts`` /
    ``dur`` normalized so the earliest root starts at 0; span events
    become instants ("i"); open spans become zero-duration events tagged
    ``"open": true``.  Roots get one thread lane each.
    """
    events: list[dict[str, Any]] = []
    starts = [root.t_start for root in trace]
    t0 = min(starts) if starts else 0.0

    def us(t: float) -> float:
        return (t - t0) * 1e6

    def args_of(span: Span) -> dict[str, Any]:
        args: dict[str, Any] = dict(span.attrs)
        args.update(span.counters)
        return args

    def walk(span: Span, tid: int) -> None:
        duration = span.duration_s
        record: dict[str, Any] = {
            "name": span.name,
            "cat": "span",
            "ph": "X",
            "ts": us(span.t_start),
            "dur": 0.0 if duration is None else duration * 1e6,
            "pid": 1,
            "tid": tid,
            "args": args_of(span),
        }
        if duration is None:
            record["args"]["open"] = True
        events.append(record)
        for event in span.events:
            events.append(
                {
                    "name": event.name,
                    "cat": "event",
                    "ph": "i",
                    "ts": us(event.t),
                    "s": "t",
                    "pid": 1,
                    "tid": tid,
                    "args": dict(event.attrs),
                }
            )
        for child in span.children:
            walk(child, tid)

    for i, root in enumerate(trace):
        walk(root, i + 1)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, trace: Iterable[Span]) -> Path:
    """Serialize ``trace`` to ``path`` in Chrome trace-event format."""
    path = Path(path)
    doc = trace_to_chrome(list(trace))
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path
