"""W3C-style trace context: one identity for a cross-process trace.

The repo spans four process boundaries — CLI -> serve daemon -> warm
pool workers, and fabric supervisor -> sweep workers — and each process
records spans on its *own* ``perf_counter`` clock.  Two pieces of shared
state let those per-process forests graft into one causal tree:

* a :class:`TraceContext` — the 32-hex ``trace_id`` every participant
  stamps on its trace documents, plus the 16-hex ``span_id`` of the
  *parent* span on the sending side (exactly the W3C ``traceparent``
  pair).  The wire form is ``00-<trace_id>-<span_id>-01`` and travels in
  a ``"traceparent"`` field of whatever dict the transport already
  ships (serve request JSON); a forked fabric worker is handed the
  :class:`TraceContext` object itself.
* a :class:`ClockAnchor` — one ``(perf_counter, unix)`` reading pair
  captured when a recorder starts.  ``perf_counter`` values from two
  processes are not comparable (each process has its own arbitrary
  epoch), but the unix wall clock is shared, so
  ``a.offset_to(b)`` converts timestamps recorded against anchor ``a``
  onto anchor ``b``'s clock::

      t_b = t_a + a.offset_to(b)

  The residual error is the wall-clock read jitter at the two anchor
  points (microseconds on one host), far below the span durations the
  grafted tree is used to explain.

Nothing here imports the recorder — the recorder imports this module
and owns the ambient-context integration
(:func:`repro.obs.recorder.current_trace_context`).
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, MutableMapping

from .spans import Span

__all__ = [
    "TRACEPARENT_KEY",
    "ClockAnchor",
    "TraceContext",
    "new_trace_id",
    "new_span_id",
    "shift_spans",
]

#: The carrier field both the serve protocol and the fabric use.
TRACEPARENT_KEY = "traceparent"

#: ``00-<32 hex trace id>-<16 hex span id>-<2 hex flags>``.
_TRACEPARENT_RE = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)

_TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")
_SPAN_ID_RE = re.compile(r"^[0-9a-f]{16}$")

_ZERO_SPAN_ID = "0" * 16
_ZERO_TRACE_ID = "0" * 32


def new_trace_id() -> str:
    """A fresh random 32-hex trace id (never all zeros)."""
    raw = os.urandom(16).hex()
    return raw if raw != _ZERO_TRACE_ID else "1" + raw[1:]


def new_span_id() -> str:
    """A fresh random 16-hex span id (never all zeros)."""
    raw = os.urandom(8).hex()
    return raw if raw != _ZERO_SPAN_ID else "1" + raw[1:]


@dataclass(frozen=True)
class ClockAnchor:
    """One simultaneous ``(monotonic, unix)`` clock reading pair."""

    monotonic: float
    unix: float

    @classmethod
    def now(
        cls,
        clock: Callable[[], float] = time.perf_counter,
        wall: Callable[[], float] = time.time,
    ) -> "ClockAnchor":
        """Capture an anchor from the given clocks (injectable for tests)."""
        return cls(monotonic=clock(), unix=wall())

    def offset_to(self, other: "ClockAnchor") -> float:
        """Seconds to add to a timestamp on this clock to land on ``other``'s.

        Derivation: the wall time of a reading ``t`` on this clock is
        ``unix + (t - monotonic)``; solving the same identity on
        ``other`` for its clock value gives a constant shift.
        """
        return (self.unix - self.monotonic) - (other.unix - other.monotonic)

    def to_dict(self) -> dict[str, float]:
        return {"monotonic": self.monotonic, "unix": self.unix}

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "ClockAnchor":
        monotonic = obj.get("monotonic")
        unix = obj.get("unix")
        for label, value in (("monotonic", monotonic), ("unix", unix)):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"anchor.{label} must be a number, got {value!r}")
        return cls(monotonic=float(monotonic), unix=float(unix))


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one distributed trace.

    ``span_id`` is the id of the **parent span on the sending side** —
    the span a receiving process should parent its root spans under.
    It is ``None`` for a context minted locally (nothing upstream), in
    which case the wire form carries the all-zero span id.
    """

    trace_id: str
    span_id: str | None = None

    def __post_init__(self) -> None:
        if not _TRACE_ID_RE.match(self.trace_id) or self.trace_id == _ZERO_TRACE_ID:
            raise ValueError(f"invalid trace_id {self.trace_id!r}")
        if self.span_id is not None and (
            not _SPAN_ID_RE.match(self.span_id) or self.span_id == _ZERO_SPAN_ID
        ):
            raise ValueError(f"invalid span_id {self.span_id!r}")

    @classmethod
    def new(cls) -> "TraceContext":
        """Mint a fresh local root context (no upstream parent)."""
        return cls(trace_id=new_trace_id())

    def child(self, span_id: str) -> "TraceContext":
        """The context to propagate from under the given local span."""
        return TraceContext(trace_id=self.trace_id, span_id=span_id)

    # ------------------------------------------------------------- wire form

    def to_traceparent(self) -> str:
        """The W3C-style header value (``00-…-01``, sampled flag set)."""
        return f"00-{self.trace_id}-{self.span_id or _ZERO_SPAN_ID}-01"

    @classmethod
    def from_traceparent(cls, value: str) -> "TraceContext":
        """Parse a ``traceparent`` string; raises ``ValueError`` if malformed."""
        match = _TRACEPARENT_RE.match(str(value).strip().lower())
        if match is None:
            raise ValueError(f"malformed traceparent {value!r}")
        trace_id, span_id, _flags = match.groups()
        if trace_id == _ZERO_TRACE_ID:
            raise ValueError("traceparent trace id must not be all zeros")
        return cls(
            trace_id=trace_id,
            span_id=None if span_id == _ZERO_SPAN_ID else span_id,
        )

    # ------------------------------------------------------------- carriers

    def inject(self, carrier: MutableMapping[str, Any]) -> None:
        """Write this context into a request/spec dict."""
        carrier[TRACEPARENT_KEY] = self.to_traceparent()

    @classmethod
    def extract(cls, carrier: Mapping[str, Any]) -> "TraceContext | None":
        """Read a context from a carrier dict; ``None`` if absent/malformed.

        Malformed values are dropped rather than raised — an ill-formed
        header from a remote caller must not fail the request it rides.
        """
        raw = carrier.get(TRACEPARENT_KEY)
        if not isinstance(raw, str):
            return None
        try:
            return cls.from_traceparent(raw)
        except ValueError:
            return None


def shift_spans(spans: list[Span], offset: float) -> list[Span]:
    """Shift every timestamp in the given span trees by ``offset`` seconds.

    Mutates in place (:func:`repro.obs.graft_trace` works on freshly
    parsed trees) and returns the list for chaining.  Combined with
    :meth:`ClockAnchor.offset_to`, this rebases one process's spans onto
    another process's clock.
    """
    stack = list(spans)
    while stack:
        span = stack.pop()
        span.t_start += offset
        if span.t_end is not None:
            span.t_end += offset
        for event in span.events:
            event.t += offset
        stack.extend(span.children)
    return spans
