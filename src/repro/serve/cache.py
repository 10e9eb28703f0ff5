"""Fingerprint-keyed LRU result cache for the placement daemon.

The cache key is the full *semantic identity* of a request — operation,
problem fingerprint (:meth:`~repro.core.problem.MappingProblem.fingerprint`),
the mapper that **actually** solved it, the seed, and any op-specific
extras (hash of the partial assignment for ``repair``, the mapper tuple
for ``compare``).  Keying on the effective mapper rather than the
requested one matters under degradation: a Greedy answer produced while
shedding load must never be replayed to a client asking for
geo-distributed placements in calm weather.

The daemon's problem memo and the client's encoded-problem memo reuse
the same LRU with other values (a decoded problem, a JSON text).

Single-threaded by design: the daemon touches the cache only from the
event loop, so there is no lock — just an ``OrderedDict`` with
move-to-end recency and O(1) eviction.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["ResultCache"]


class ResultCache:
    """A bounded LRU mapping request keys to wire-ready result dicts
    (or any other value: the problem memos store problems and texts).

    ``max_entries <= 0`` disables caching entirely (every lookup
    misses, nothing is stored) — the daemon's ``--cache-size 0``.
    """

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any:
        """The cached result for ``key`` (refreshing recency), or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, result: Any) -> None:
        """Store ``result``, evicting the least-recently-used overflow."""
        if self.max_entries <= 0:
            return
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (stats survive)."""
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Counters for ``health`` responses and the metrics exposition."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
