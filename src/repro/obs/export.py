"""Trace exporters: JSON round-trip, schema validation, text rendering.

The on-disk trace format (written by ``--trace``, read by
``trace-report`` and CI) is one JSON object::

    {
      "version": 2,
      "clock": "perf_counter",
      "trace_id": "4bf92f3577b34da6a3ce929d0e0e4736",   # v2, optional
      "anchor": {"monotonic": 123.4, "unix": 1.7e9},    # v2, optional
      "spans": [ <span>, ... ]
    }

where each ``<span>`` is::

    {
      "name": "mapper.map",
      "t_start": 0.0123,            # seconds on the recorder's clock
      "t_end": 0.0456,              # null while open (never in a file)
      "attrs": {"mapper": "geo-distributed", ...},
      "counters": {"memo.groups_resumed": 18, ...},
      "events": [{"name": "...", "t": 0.02, "attrs": {...}}, ...],
      "children": [ <span>, ... ],
      "span_id": "00f067aa0ba902b7",          # v2, optional
      "parent_span_id": "53ce929d0e0e4736",   # v2, optional
      "links": [{"trace_id": ..., "span_id": ...}, ...]  # v2, optional
    }

Version 2 added the distributed-tracing fields: the document-level
``trace_id`` and clock ``anchor`` (see :mod:`repro.obs.tracectx`) plus
per-span ``span_id`` / ``parent_span_id`` / ``links``.  All of them are
optional-but-strict — absent is fine (a v1-shaped document is also a
valid v2 document), present-but-malformed is rejected.  Version 1 files
still load.

:func:`validate_trace` is the schema's executable definition — it
rejects anything that does not load back into :class:`Span` objects, so
a trace that validates is guaranteed to round-trip.
:func:`causal_violations` checks the stronger *distributed* contract on
a parsed tree: one root, resolvable parents, children inside their
parents' intervals and in start order.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Iterable, Sequence

from .._validation import InputError
from .spans import Span, SpanEvent
from .tracectx import ClockAnchor, shift_spans

__all__ = [
    "TRACE_VERSION",
    "SUPPORTED_TRACE_VERSIONS",
    "TraceSchemaError",
    "span_to_dict",
    "span_from_dict",
    "trace_to_dict",
    "validate_trace",
    "trace_anchor",
    "graft_trace",
    "causal_violations",
    "validate_causal_trace",
    "write_trace",
    "load_trace",
    "render_trace",
]

#: Format version stamped into every written trace.
TRACE_VERSION = 2

#: Versions :func:`validate_trace` accepts on load.
SUPPORTED_TRACE_VERSIONS = (1, 2)

_HEX16_RE = re.compile(r"^[0-9a-f]{16}$")
_HEX32_RE = re.compile(r"^[0-9a-f]{32}$")


class TraceSchemaError(InputError):
    """A trace document does not conform to the span schema."""


# ----------------------------------------------------------------- to JSON


def span_to_dict(span: Span) -> dict[str, Any]:
    """One span (and its subtree) as a JSON-ready dict.

    The v2 identity fields (``span_id``/``parent_span_id``/``links``)
    are emitted only when set, so hand-built spans serialize to the
    exact v1 shape.
    """
    out: dict[str, Any] = {
        "name": span.name,
        "t_start": span.t_start,
        "t_end": span.t_end,
        "attrs": span.attrs,
        "counters": span.counters,
        "events": [
            {"name": ev.name, "t": ev.t, "attrs": ev.attrs} for ev in span.events
        ],
        "children": [span_to_dict(child) for child in span.children],
    }
    if span.span_id is not None:
        out["span_id"] = span.span_id
    if span.parent_span_id is not None:
        out["parent_span_id"] = span.parent_span_id
    if span.links:
        out["links"] = [dict(link) for link in span.links]
    return out


def trace_to_dict(
    spans: Iterable[Span],
    *,
    trace_id: str | None = None,
    anchor: ClockAnchor | None = None,
) -> dict[str, Any]:
    """A whole trace document from root spans.

    ``trace_id`` stamps the distributed-trace identity on the document;
    ``anchor`` records the writing process's clock pair so another
    process can rebase these timestamps onto its own clock.
    """
    doc: dict[str, Any] = {
        "version": TRACE_VERSION,
        "clock": "perf_counter",
        "spans": [span_to_dict(s) for s in spans],
    }
    if trace_id is not None:
        if not _HEX32_RE.match(trace_id):
            raise ValueError(f"invalid trace_id {trace_id!r}")
        doc["trace_id"] = trace_id
    if anchor is not None:
        doc["anchor"] = anchor.to_dict()
    return doc


# --------------------------------------------------------------- from JSON


def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise TraceSchemaError(f"{where}: {message}")


def _check_jsonable(value: Any, where: str) -> None:
    """Reject attr payloads JSON cannot represent losslessly."""
    if value is None or isinstance(value, (str, bool, int, float)):
        return
    if isinstance(value, list):
        for i, item in enumerate(value):
            _check_jsonable(item, f"{where}[{i}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            _expect(isinstance(key, str), where, f"non-string key {key!r}")
            _check_jsonable(item, f"{where}.{key}")
        return
    raise TraceSchemaError(f"{where}: non-JSON value of type {type(value).__name__}")


def span_from_dict(obj: Any, where: str = "span") -> Span:
    """Parse (and validate) one span dict into a :class:`Span` tree."""
    _expect(isinstance(obj, dict), where, "span must be an object")
    unknown = set(obj) - {
        "name", "t_start", "t_end", "attrs", "counters", "events", "children",
        "span_id", "parent_span_id", "links",
    }
    _expect(not unknown, where, f"unknown keys {sorted(unknown)}")
    span_id = obj.get("span_id")
    _expect(
        span_id is None or (isinstance(span_id, str) and bool(_HEX16_RE.match(span_id))),
        where,
        "span_id must be a 16-hex string",
    )
    parent_span_id = obj.get("parent_span_id")
    _expect(
        parent_span_id is None
        or (isinstance(parent_span_id, str) and bool(_HEX16_RE.match(parent_span_id))),
        where,
        "parent_span_id must be a 16-hex string",
    )
    raw_links = obj.get("links", [])
    _expect(isinstance(raw_links, list), where, "links must be an array")
    links: list[dict[str, str]] = []
    for i, link in enumerate(raw_links):
        link_where = f"{where}.links[{i}]"
        _expect(isinstance(link, dict), link_where, "link must be an object")
        _expect(
            set(link) == {"trace_id", "span_id"},
            link_where,
            "link must have exactly trace_id and span_id",
        )
        link_tid = link.get("trace_id")
        _expect(
            isinstance(link_tid, str) and bool(_HEX32_RE.match(link_tid)),
            link_where,
            "trace_id must be a 32-hex string",
        )
        link_sid = link.get("span_id")
        _expect(
            isinstance(link_sid, str) and bool(_HEX16_RE.match(link_sid)),
            link_where,
            "span_id must be a 16-hex string",
        )
        links.append({"trace_id": link_tid, "span_id": link_sid})
    name = obj.get("name")
    _expect(
        isinstance(name, str) and bool(name), where, "name must be a non-empty string"
    )
    t_start = obj.get("t_start")
    _expect(
        isinstance(t_start, (int, float)) and not isinstance(t_start, bool),
        where,
        "t_start must be a number",
    )
    t_end = obj.get("t_end")
    _expect(
        t_end is None
        or (isinstance(t_end, (int, float)) and not isinstance(t_end, bool)),
        where,
        "t_end must be a number or null",
    )
    if t_end is not None:
        _expect(t_end >= t_start, where, "t_end must be >= t_start")
    attrs = obj.get("attrs", {})
    _expect(isinstance(attrs, dict), where, "attrs must be an object")
    _check_jsonable(attrs, f"{where}.attrs")
    counters = obj.get("counters", {})
    _expect(isinstance(counters, dict), where, "counters must be an object")
    for key, val in counters.items():
        _expect(isinstance(key, str), where, f"counter key {key!r} must be a string")
        _expect(
            isinstance(val, (int, float)) and not isinstance(val, bool),
            where,
            f"counter {key!r} must be numeric",
        )
    raw_events = obj.get("events", [])
    _expect(isinstance(raw_events, list), where, "events must be an array")
    events: list[SpanEvent] = []
    for i, ev in enumerate(raw_events):
        ev_where = f"{where}.events[{i}]"
        _expect(isinstance(ev, dict), ev_where, "event must be an object")
        ev_name = ev.get("name")
        _expect(
            isinstance(ev_name, str) and bool(ev_name),
            ev_where,
            "name must be a non-empty string",
        )
        ev_t = ev.get("t")
        _expect(
            isinstance(ev_t, (int, float)) and not isinstance(ev_t, bool),
            ev_where,
            "t must be a number",
        )
        ev_attrs = ev.get("attrs", {})
        _expect(isinstance(ev_attrs, dict), ev_where, "attrs must be an object")
        _check_jsonable(ev_attrs, f"{ev_where}.attrs")
        events.append(SpanEvent(name=ev_name, t=float(ev_t), attrs=dict(ev_attrs)))
    raw_children = obj.get("children", [])
    _expect(isinstance(raw_children, list), where, "children must be an array")
    children = [
        span_from_dict(child, f"{where}.children[{i}]")
        for i, child in enumerate(raw_children)
    ]
    return Span(
        name=name,
        t_start=float(t_start),
        t_end=None if t_end is None else float(t_end),
        attrs=dict(attrs),
        counters={k: v for k, v in counters.items()},
        events=events,
        children=children,
        span_id=span_id,
        parent_span_id=parent_span_id,
        links=links,
    )


def validate_trace(obj: Any) -> list[Span]:
    """Validate a trace document against the span schema.

    Returns the parsed root spans on success; raises
    :class:`TraceSchemaError` naming the offending path otherwise.
    """
    _expect(isinstance(obj, dict), "trace", "document must be a JSON object")
    version = obj.get("version")
    _expect(
        isinstance(version, int) and not isinstance(version, bool),
        "trace",
        "version must be an integer",
    )
    _expect(
        version in SUPPORTED_TRACE_VERSIONS,
        "trace",
        f"unsupported version {version} "
        f"(expected one of {list(SUPPORTED_TRACE_VERSIONS)})",
    )
    clock = obj.get("clock")
    _expect(isinstance(clock, str), "trace", "clock must be a string")
    trace_id = obj.get("trace_id")
    _expect(
        trace_id is None
        or (isinstance(trace_id, str) and bool(_HEX32_RE.match(trace_id))),
        "trace",
        "trace_id must be a 32-hex string",
    )
    raw_anchor = obj.get("anchor")
    if raw_anchor is not None:
        _expect(isinstance(raw_anchor, dict), "trace", "anchor must be an object")
        try:
            ClockAnchor.from_dict(raw_anchor)
        except ValueError as exc:
            raise TraceSchemaError(f"trace: {exc}") from exc
    spans = obj.get("spans")
    _expect(isinstance(spans, list), "trace", "spans must be an array")
    return [
        span_from_dict(span, f"trace.spans[{i}]") for i, span in enumerate(spans)
    ]


def trace_anchor(obj: Any) -> ClockAnchor | None:
    """The :class:`ClockAnchor` of a trace document, or ``None`` (v1 docs)."""
    if not isinstance(obj, dict):
        raise TraceSchemaError("trace: document must be a JSON object")
    raw = obj.get("anchor")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise TraceSchemaError("trace: anchor must be an object")
    try:
        return ClockAnchor.from_dict(raw)
    except ValueError as exc:
        raise TraceSchemaError(f"trace: {exc}") from exc


def graft_trace(parent: Span, doc: Any, anchor: ClockAnchor) -> bool:
    """Attach another process's trace document under ``parent``.

    The document's spans were recorded on that process's clock; its
    anchor rebases them onto the clock of ``anchor`` before they join
    ``parent.children``.  A document that fails :func:`validate_trace`,
    or has no anchor to rebase by, attaches nothing and returns
    ``False`` for the caller to count: a trace never fails the work it
    describes.
    """
    try:
        spans = validate_trace(doc)
        theirs = trace_anchor(doc)
    except TraceSchemaError:
        return False
    if theirs is None:
        return False
    parent.children.extend(shift_spans(spans, theirs.offset_to(anchor)))
    return True


# ------------------------------------------------------------- causal checks


def causal_violations(
    roots: Sequence[Span], *, epsilon: float = 1e-6
) -> list[str]:
    """Why the given forest is *not* one causally-parented trace tree.

    Returns an empty list when the forest satisfies the distributed
    contract the fabric supervisor and the serve engine promise:

    * exactly one root span;
    * every identified span's ``parent_span_id`` resolves to the id of
      its structural parent (the root's may be ``None``);
    * every child's interval lies within its parent's, give or take
      ``epsilon`` (cross-process rebasing leaves wall-clock jitter);
    * siblings are ordered by non-decreasing ``t_start``.

    Each violation is one human-readable string naming the span path.
    """
    problems: list[str] = []
    if len(roots) != 1:
        problems.append(f"trace has {len(roots)} roots (expected exactly 1)")

    def walk(span: Span, parent: Span | None, path: str) -> None:
        if parent is None:
            pass
        elif parent.span_id is None:
            if span.parent_span_id is not None:
                problems.append(
                    f"{path}: parent_span_id {span.parent_span_id} but "
                    "structural parent has no span_id"
                )
        elif span.parent_span_id != parent.span_id:
            problems.append(
                f"{path}: parent_span_id {span.parent_span_id} does not "
                f"resolve to structural parent {parent.span_id}"
            )
        if parent is not None:
            if span.t_start < parent.t_start - epsilon:
                problems.append(
                    f"{path}: starts {parent.t_start - span.t_start:.6g}s "
                    "before its parent"
                )
            if (
                span.t_end is not None
                and parent.t_end is not None
                and span.t_end > parent.t_end + epsilon
            ):
                problems.append(
                    f"{path}: ends {span.t_end - parent.t_end:.6g}s "
                    "after its parent"
                )
        prev_start: float | None = None
        for i, child in enumerate(span.children):
            if prev_start is not None and child.t_start < prev_start - epsilon:
                problems.append(
                    f"{path}.children[{i}]: t_start decreases across siblings"
                )
            prev_start = child.t_start
            walk(child, span, f"{path}.children[{i}]")

    for i, root in enumerate(roots):
        walk(root, None, f"roots[{i}]")
    return problems


def validate_causal_trace(
    roots: Sequence[Span], *, epsilon: float = 1e-6
) -> None:
    """Raise :class:`TraceSchemaError` unless the forest is one causal tree."""
    problems = causal_violations(roots, epsilon=epsilon)
    if problems:
        summary = "; ".join(problems[:5])
        if len(problems) > 5:
            summary += f"; ... {len(problems) - 5} more"
        raise TraceSchemaError(f"trace is not a causal tree: {summary}")


# -------------------------------------------------------------------- files


def write_trace(
    path: str | Path,
    spans: Iterable[Span],
    *,
    trace_id: str | None = None,
    anchor: ClockAnchor | None = None,
) -> Path:
    """Serialize root spans to ``path`` as a trace document."""
    path = Path(path)
    doc = trace_to_dict(spans, trace_id=trace_id, anchor=anchor)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def load_trace(path: str | Path) -> list[Span]:
    """Load and validate a trace document from ``path``."""
    try:
        obj = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise TraceSchemaError(f"trace: not valid JSON ({exc})") from exc
    return validate_trace(obj)


# ------------------------------------------------------------------ render


def _fmt_duration(seconds: float | None) -> str:
    if seconds is None:
        return "   (open)"
    if seconds >= 1.0:
        return f"{seconds:8.3f} s"
    return f"{seconds * 1e3:8.3f} ms"


def _fmt_payload(span: Span) -> str:
    parts: list[str] = []
    for key, val in span.attrs.items():
        if isinstance(val, float):
            parts.append(f"{key}={val:.6g}")
        else:
            parts.append(f"{key}={val!r}" if isinstance(val, str) else f"{key}={val}")
    for key, val in span.counters.items():
        parts.append(f"{key}={val:g}")
    if span.events:
        parts.append(f"events={len(span.events)}")
    return f"  [{', '.join(parts)}]" if parts else ""


def render_trace(
    spans: Sequence[Span],
    *,
    max_depth: int | None = None,
    max_children: int = 40,
) -> str:
    """Human-readable span-tree summary (the ``trace-report`` body).

    ``max_depth`` prunes the tree below that depth; ``max_children``
    elides the middle of very wide fan-outs (e.g. thousands of
    ``geodist.order`` spans) while keeping head and tail.
    """
    if max_depth is not None and max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    if max_children < 2:
        raise ValueError(f"max_children must be >= 2, got {max_children}")
    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        indent = "  " * depth
        lines.append(
            f"{_fmt_duration(span.duration_s)}  {indent}{span.name}{_fmt_payload(span)}"
        )
        if max_depth is not None and depth + 1 >= max_depth:
            if span.children:
                lines.append(
                    f"{'':>11}  {indent}  ... {len(span.children)} child span(s) pruned"
                )
            return
        children = span.children
        if len(children) > max_children:
            head = children[: max_children // 2]
            tail = children[-(max_children - len(head)) :]
            for child in head:
                walk(child, depth + 1)
            lines.append(
                f"{'':>11}  {indent}  ... {len(children) - len(head) - len(tail)} "
                "span(s) elided ..."
            )
            for child in tail:
                walk(child, depth + 1)
        else:
            for child in children:
                walk(child, depth + 1)

    for root in spans:
        walk(root, 0)
    return "\n".join(lines)
