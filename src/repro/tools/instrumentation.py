"""Process-wide work counters.

Work metrics — optimizer plans built, implementing trees enumerated,
column batches emitted — are counted here without threading a metrics object
through every API.  This module is the cheap global sink those code
paths bump; ``conformance --stats`` and the ladder's staged replay
snapshot it around a run.

Counters are advisory telemetry only: nothing in the library reads them
back, so a stale or zeroed counter can never change results.

Thread safety: the sink is shared by every in-flight query, and
``Counter.__iadd__`` on an item is a read-modify-write that the GIL does
*not* make atomic — two racing queries could lose increments.  All
mutation therefore goes through :func:`bump` (and :func:`reset`), which
serialize under one lock; ``tests/test_stats_threadsafety.py`` hammers
the contract.  Reads (:func:`snapshot`, :func:`delta`) take the same
lock so they never observe a torn multi-key update.  Direct subscript
*reads* of :data:`STATS` remain fine; direct subscript *writes* are the
bug this module's lock exists to prevent — use :func:`bump`.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Dict

#: The global counter sink.  Keys in use:
#: ``dp_subsets``              (DP table entries filled),
#: ``trees_enumerated``        (implementing trees materialized),
#: ``sqlite_oracle_queries``   (statements run on the SQLite oracle),
#: ``conformance_checks``      (differential cross_check() calls),
#: ``conformance_mismatches``  (tier disagreements observed),
#: ``fuzz_cases``              (fuzz cases executed),
#: ``fuzz_failures``           (fuzz cases that disagreed),
#: ``shrink_runs``             (counterexample minimizations),
#: ``planspace_checks``        (plan-space equivalence sweeps),
#: ``planspace_mismatches``    (non-equivalent trees found),
#: ``service_queries``         (queries admitted by a QueryService),
#: ``service_rejected``        (queries shed at admission),
#: ``service_timeouts``        (queries cancelled by deadline),
#: ``service_cancelled``       (queries cancelled by the caller),
#: ``batches_emitted``         (column batches emitted by operators),
#: ``batch_rows``              (rows carried by those batches),
#: ``trie_builds``             (WCOJ sorted-trie index constructions),
#: ``wcoj_seeks``              (leapfrog seek() calls across all joins).
STATS: Counter = Counter()

#: One lock serializes every mutation of :data:`STATS`; see module docs.
_lock = threading.Lock()


def bump(key: str, count: int = 1) -> None:
    """Add to one counter (thread-safe)."""
    with _lock:
        STATS[key] += count


def snapshot() -> Dict[str, int]:
    """A plain-dict copy of the current counters (thread-safe)."""
    with _lock:
        return dict(STATS)


def reset() -> None:
    """Zero all counters (the test suite does this around every test)."""
    with _lock:
        STATS.clear()


def delta(before: Dict[str, int]) -> Dict[str, int]:
    """Counters accumulated since a prior :func:`snapshot`."""
    now = snapshot()
    keys = set(now) | set(before)
    return {k: now.get(k, 0) - before.get(k, 0) for k in sorted(keys)}
