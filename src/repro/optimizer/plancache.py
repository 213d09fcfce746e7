"""A thread-safe LRU plan cache with generation-versioned invalidation.

Keys are canonical fingerprints (:mod:`repro.optimizer.fingerprint`);
values are whatever the optimizer wants to replay — the pipeline stores
its chosen expression together with the Theorem-1 verdict.  Every entry
is stamped with the :attr:`repro.engine.storage.Storage.generation` it
was optimized against; a lookup presenting a *different* generation
counts as an **invalidation** (the entry is dropped and re-optimized),
so data modifications and storage swaps can never replay a plan chosen
for stale statistics.

Replaying a plan for the *same* graph fingerprint is provably safe —
any valid implementing tree of a nice graph computes the same result
(Theorem 1), and the fingerprint pins the exact graph, pushed filters,
and cost model — so invalidation is purely an *optimality* guard, never
a correctness one.  The conformance harness still checks the claim
empirically (:func:`repro.conformance.plancache_check.check_plan_cache`).

Everything is stdlib: an ``OrderedDict`` under one lock.  Hits move the
entry to the MRU end; stores evict from the LRU end past ``capacity``.
Counters (hits/misses/invalidations/evictions/stores) are kept per
cache, under the same lock, and read through :meth:`PlanCache.stats` or
:meth:`PlanCache.snapshot`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple


#: Default entry capacity of the process-wide cache.
DEFAULT_CAPACITY = 256


@dataclass
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    stores: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> Optional[float]:
        return self.hits / self.lookups if self.lookups else None

    def summary(self) -> str:
        rate = f"{self.hit_rate:.1%}" if self.hit_rate is not None else "n/a"
        return (
            f"plan cache: {self.size}/{self.capacity} entries, "
            f"{self.hits} hit(s) / {self.misses} miss(es) ({rate}), "
            f"{self.invalidations} invalidation(s), {self.evictions} eviction(s)"
        )


class PlanCache:
    """Thread-safe LRU mapping ``fingerprint -> (generation, value)``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[Hashable, Any]]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._evictions = 0
        self._stores = 0

    def lookup(self, fingerprint: str, generation: Hashable) -> Optional[Any]:
        """The cached value, or None on miss / stale generation."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self._misses += 1
                return None
            stamped, value = entry
            if stamped != generation:
                # The storage moved on (or is a different storage): the
                # cached choice reflects stale statistics.  Drop it.
                del self._entries[fingerprint]
                self._invalidations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self._hits += 1
            return value

    def store(self, fingerprint: str, generation: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting LRU entries past capacity."""
        with self._lock:
            self._entries[fingerprint] = (generation, value)
            self._entries.move_to_end(fingerprint)
            self._stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept; see :meth:`reset_stats`)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = self._misses = 0
            self._invalidations = self._evictions = self._stores = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                invalidations=self._invalidations,
                evictions=self._evictions,
                stores=self._stores,
                size=len(self._entries),
                capacity=self.capacity,
            )

    def summary(self) -> str:
        return self.stats().summary()

    def snapshot(self) -> Dict[str, int]:
        """Counter dict for reports (same fields as :class:`CacheStats`)."""
        stats = self.stats()
        return {
            "hits": stats.hits,
            "misses": stats.misses,
            "invalidations": stats.invalidations,
            "evictions": stats.evictions,
            "stores": stats.stores,
            "size": stats.size,
            "capacity": stats.capacity,
        }


# ---------------------------------------------------------------------------
# The process-wide default cache
# ---------------------------------------------------------------------------

_default: Optional[PlanCache] = None
_default_lock = threading.Lock()


def default_plan_cache() -> PlanCache:
    """The lazily-created process-wide cache."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = PlanCache(capacity=DEFAULT_CAPACITY)
    return _default


def reset_default_plan_cache() -> None:
    """Drop the default cache's entries and zero its counters (tests)."""
    global _default
    with _default_lock:
        if _default is not None:
            _default.clear()
            _default.reset_stats()
        _default = None
