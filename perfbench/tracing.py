"""The traced run: spans opened from the benchmark's side of each layer.

Wrappers patch a public function or method for the length of a ``with``
block and open a span around every call, so the program's own spans
(``mapper.map``, ``solve``, ``geodist.order``, ``multilevel.*``,
``simulate.run``) and the benchmark's land in one forest.  Nothing is
patched outside the traced run.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.obs import aggregate_trace, get_recorder, write_trace

from .common import WORK


@contextmanager
def spanned(
    owner: Any,
    attr: str,
    span_name: str | None,
    on_result: Callable[[Any], None] | None = None,
) -> Iterator[None]:
    """Open ``span_name`` around every call of ``owner.attr`` in the block.

    With ``span_name=None`` no span opens and only ``on_result`` sees the
    return values (how solver metadata is collected from inner calls).
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if span_name is None:
            out = original(*args, **kwargs)
        else:
            with get_recorder().span(span_name):
                out = original(*args, **kwargs)
        if on_result is not None:
            on_result(out)
        return out

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def counted(owner: Any, attr: str, box: list[int]) -> Iterator[None]:
    """Count calls of ``owner.attr`` into ``box[0]``; for per-message hot
    paths, where a span per call would swamp what it measures."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        box[0] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class SpanTotals:
    """Per-name totals, self times and counts from ``aggregate_trace``."""

    def __init__(self, roots: list[Any]) -> None:
        self.roots = roots
        self.snap = aggregate_trace(roots)

    def total(self, name: str) -> float:
        return self.snap.counter_value("span_seconds_total", span=name)

    def self_time(self, name: str) -> float:
        return self.snap.counter_value("span_self_seconds_total", span=name)

    def count(self, name: str) -> int:
        return int(self.snap.counter_value("trace_spans_total", span=name))

    def find(self, name: str) -> list[Any]:
        return [s for root in self.roots for s in root.iter() if s.name == name]


def descendants_time(span: Any, name: str) -> float:
    """Summed duration of ``name`` spans strictly below ``span``."""
    total = 0.0
    for child in span.children:
        if child.name == name:
            total += child.duration_s or 0.0
        else:
            total += descendants_time(child, name)
    return total


def save_trace(workload: str, seed: int, roots: list[Any]) -> str:
    """Write the whole span forest once, at the end of the traced run."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{workload}-seed{seed}.trace.json"
    write_trace(path, roots)
    return str(path.relative_to(WORK.parent))
