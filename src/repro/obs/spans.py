"""Hierarchical spans: the data model of the observability layer.

A :class:`Span` is one named, timed region of work.  Spans nest — the
mapper pipeline produces ``mapper.map`` with ``feasibility`` / ``solve``
/ ``validate`` / ``cost`` children, the Geo mapper hangs one
``geodist.order`` child per evaluated group permutation under ``solve``
— and each span carries three kinds of payload:

* **attributes** — JSON-serializable facts set once (mapper name, cost,
  chosen order);
* **counters** — numeric accumulators (``memo.groups_resumed``,
  ``net.bytes``) that tolerate being bumped many times;
* **events** — point-in-time occurrences with their own timestamp and
  attributes (a per-link traffic summary, a failed fabric attempt).

Timestamps come from whatever monotonic clock the recorder was built
with (:func:`time.perf_counter` by default, injectable for tests), so
span math is immune to wall-clock slew.  Spans are plain mutable data —
all recording policy lives in :mod:`repro.obs.recorder`, all
serialization in :mod:`repro.obs.export`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

__all__ = ["JSONValue", "SpanEvent", "Span"]

#: What span attributes may hold: anything that maps 1:1 onto JSON.
JSONValue = Union[
    str, int, float, bool, None, list["JSONValue"], dict[str, "JSONValue"]
]


@dataclass
class SpanEvent:
    """A point-in-time occurrence inside a span.

    Attributes
    ----------
    name:
        Event label (e.g. ``"network.link"``).
    t:
        Timestamp on the recorder's clock.
    attrs:
        JSON-serializable payload.
    """

    name: str
    t: float
    attrs: dict[str, JSONValue] = field(default_factory=dict)


@dataclass
class Span:
    """One named, timed region of work in a trace tree.

    Attributes
    ----------
    name:
        Stage label (e.g. ``"mapper.map"``, ``"solve"``).
    t_start / t_end:
        Clock readings at entry and exit; ``t_end`` is ``None`` while
        the span is still open.
    attrs:
        Set-once facts about the region.
    counters:
        Numeric accumulators bumped via :meth:`add`.
    events:
        Point occurrences recorded inside this span.
    children:
        Sub-spans, in creation order.
    span_id / parent_span_id:
        16-hex identities for cross-process stitching (schema v2).
        ``span_id`` is assigned by the recorder; ``parent_span_id`` is
        the causal parent — the structural parent for in-process spans,
        or the remote span named by a propagated
        :class:`~repro.obs.tracectx.TraceContext` for root spans.
        Both stay ``None`` on hand-built spans (v1-shaped documents).
    links:
        Non-parental references to spans in this or other traces, each
        ``{"trace_id": ..., "span_id": ...}``.
    """

    name: str
    t_start: float = 0.0
    t_end: float | None = None
    attrs: dict[str, JSONValue] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)
    span_id: str | None = None
    parent_span_id: str | None = None
    links: list[dict[str, str]] = field(default_factory=list)

    # ------------------------------------------------------------- payload

    def set(self, **attrs: JSONValue) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def add(self, name: str, value: float = 1) -> "Span":
        """Bump a counter by ``value`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + value
        return self

    # ------------------------------------------------------------- queries

    @property
    def duration_s(self) -> float | None:
        """Elapsed seconds, or ``None`` while the span is open."""
        if self.t_end is None:
            return None
        return self.t_end - self.t_start

    def iter(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first preorder."""
        yield self
        for child in self.children:
            yield from child.iter()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (preorder), or None."""
        for span in self.iter():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every span named ``name`` in this subtree, preorder."""
        return [span for span in self.iter() if span.name == name]
