"""Hash indexes over base tables.

Example 1's argument presumes "these keys have indexes": evaluating
``(R1 − R2) → R3`` then touches exactly one tuple per probe instead of
scanning ten-million-row tables.  A hash index is all that scenario needs;
a bucket holds the ascending *ordinals* (row positions) of one key, and
the *caller* (the physical index-nested-loop operator) reads the values
at those ordinals and meters each as a base-tuple retrieval, mirroring
how a real executor pays for fetching the row a key entry points at.

Null keys are never entered into the index and never match a probe —
consistent with SQL equality semantics and with the library's strong
predicates.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List

from repro.algebra.nulls import is_null


class HashIndex:
    """An equality index on a single attribute."""

    def __init__(self, name: str):
        self.name = name
        self._buckets: Dict[Any, List[int]] = {}

    def insert(self, key: Any, ordinal: int) -> None:
        if is_null(key):
            return
        self._buckets.setdefault(key, []).append(ordinal)

    def lookup(self, key: Any, n: int) -> List[int]:
        """Ordinals below ``n`` of the rows whose attribute equals ``key``
        (empty for null): a copy, as the bucket may grow meanwhile."""
        bucket = self._buckets.get(key, [])
        return bucket[: bisect_left(bucket, n)]

    def __len__(self) -> int:
        return sum(len(ordinals) for ordinals in self._buckets.values())

    def __repr__(self) -> str:
        return f"HashIndex({self.name}, keys={len(self._buckets)}, entries={len(self)})"
