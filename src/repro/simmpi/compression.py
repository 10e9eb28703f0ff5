"""CYPRESS-style trace compression by loop folding.

CYPRESS exploits the loop structure of MPI programs to compress
communication traces: the body of a communication loop appears in the
trace as a tandem repeat, which folds into ``(body, count)``.  CYPRESS
reads the loops from the program's source; here the program declares
them: the paper apps yield each loop as a :class:`~repro.simmpi.ops.Repeat`,
and the profiling drain (:func:`repro.simmpi.engine.drain`) records each
body once, weighted by its count, so profiling cost follows the folded
program, not the iteration count.  This module reproduces the runtime
half, for traces whose loops were never declared, as a generic sequence
compressor:

* :func:`compress` repeatedly folds the most profitable tandem repeat
  (adjacent identical blocks) until a fixpoint, producing a nested
  grammar of :class:`Loop` nodes;
* :func:`decompress` expands it back (used by the round-trip tests);
* :func:`iter_with_multiplicity` walks the compressed form *without*
  expansion, letting CG/AG be rebuilt from a folded trace in time
  proportional to the compressed size — the property that makes
  profile-then-map pipelines cheap for iterative applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

__all__ = [
    "Loop",
    "compress",
    "decompress",
    "expanded_length",
    "compressed_size",
    "compression_ratio",
    "iter_with_multiplicity",
]


@dataclass(frozen=True)
class Loop:
    """A folded tandem repeat: ``body`` repeated ``count`` times."""

    body: tuple
    count: int

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError(f"a Loop must repeat at least twice, got {self.count}")
        if not self.body:
            raise ValueError("a Loop body must not be empty")


def _fold_once(items: tuple, max_window: int) -> tuple[tuple, bool]:
    """One left-to-right pass folding tandem repeats; returns (new, changed)."""
    n = len(items)
    out: list = []
    i = 0
    changed = False
    while i < n:
        best_w = 0
        best_k = 0
        # Try windows from shortest to longest so the innermost loop folds
        # first (CYPRESS folds loop nests inside-out); outer repeats fold
        # on subsequent passes once their bodies are canonical.
        for w in range(1, min(max_window, (n - i) // 2) + 1):
            block = items[i : i + w]
            k = 1
            j = i + w
            while j + w <= n and items[j : j + w] == block:
                k += 1
                j += w
            if k >= 2:
                best_w, best_k = w, k
                break
        if best_w:
            block = items[i : i + best_w]
            # Merge with an existing identical Loop body (x3 fold of (AB)x2 AB).
            if len(block) == 1 and isinstance(block[0], Loop):
                inner = block[0]
                out.append(Loop(inner.body, inner.count * best_k))
            else:
                out.append(Loop(tuple(block), best_k))
            i += best_w * best_k
            changed = True
        else:
            out.append(items[i])
            i += 1
    return tuple(out), changed


def compress(
    events: Sequence[Hashable], *, max_window: int = 64, max_passes: int = 16
) -> tuple:
    """Fold tandem repeats in ``events`` into nested :class:`Loop` nodes.

    Parameters
    ----------
    events:
        The raw trace; elements must support equality (tuples, ints, ...).
    max_window:
        Longest loop body searched for, in (already folded) items.
    max_passes:
        Fixpoint cap; each pass can discover loops made foldable by the
        previous one (nesting).
    """
    if max_window < 1:
        raise ValueError(f"max_window must be >= 1, got {max_window}")
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes}")
    items: tuple = tuple(events)
    for _ in range(max_passes):
        items, changed = _fold_once(items, max_window)
        if not changed:
            break
    return items


def decompress(items: Iterable) -> list:
    """Expand a compressed trace back to the raw event list."""
    out: list = []
    for item in items:
        if isinstance(item, Loop):
            body = decompress(item.body)
            out.extend(body * item.count)
        else:
            out.append(item)
    return out


def expanded_length(items: Iterable) -> int:
    """Raw length of a compressed trace, computed without expanding it."""
    total = 0
    for item in items:
        if isinstance(item, Loop):
            total += expanded_length(item.body) * item.count
        else:
            total += 1
    return total


def compressed_size(items: Iterable) -> int:
    """Number of grammar nodes (events + Loop headers) in compressed form."""
    total = 0
    for item in items:
        if isinstance(item, Loop):
            total += 1 + compressed_size(item.body)
        else:
            total += 1
    return total


def compression_ratio(items: Iterable) -> float:
    """expanded / compressed size; >= 1, higher is better."""
    items = tuple(items)
    comp = compressed_size(items)
    if comp == 0:
        return 1.0
    return expanded_length(items) / comp


def iter_with_multiplicity(items: Iterable, _mult: int = 1) -> Iterator[tuple[Hashable, int]]:
    """Yield ``(event, multiplicity)`` pairs without expanding loops.

    Aggregations over the trace (like rebuilding CG/AG) consume this in
    time proportional to the *compressed* size.
    """
    for item in items:
        if isinstance(item, Loop):
            yield from iter_with_multiplicity(item.body, _mult * item.count)
        else:
            yield item, _mult
