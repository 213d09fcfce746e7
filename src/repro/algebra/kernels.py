"""The hash build/probe loop behind the join-like algebra operators.

The naive operators in :mod:`repro.algebra.operators` transcribe the
paper's definitions tuple-at-a-time: every left row scans the full right
relation.  That is the right shape for a semantic oracle and the wrong
shape for the randomized-database property tests and benchmarks built on
top of it.  This kernel keeps the oracle's semantics bit-for-bit while
replacing the quadratic scan with a build/probe hash join:

* the join predicate is decomposed
  (:func:`~repro.algebra.predicates.decompose_join_predicate`) into
  *equality key pairs* — conjuncts ``a = b`` with ``a`` an attribute of
  the left scheme and ``b`` one of the right scheme — plus a *residual*
  of all remaining conjuncts;
* the right relation is partitioned once into a hash table keyed by its
  key values.  Rows with a null in any key column never enter it (SQL
  3VL: ``NULL = x`` is unknown, and unknown does not satisfy), so they
  fall through to padding / anti output exactly as in the nested loop;
* each left row with non-null keys probes its bucket and evaluates only
  the residual conjuncts; a left row with a null key matches nothing.

A predicate with no cross-scheme equality (pure non-equi, ``TRUE``, an
opaque predicate) has empty key tuples: every right row lands in one
bucket under the empty key, every left row probes it, and the whole
predicate is the residual.  The kernel never declines.

One loop, :func:`hash_counts`, serves all five operators (join, one- and
two-sided outerjoin, semijoin, antijoin); its ``variant`` argument names
the operator.  The engine has its own probe loop
(:class:`~repro.engine.batch.kernels.BatchHashJoiner`): it joins columns,
while this one joins distinct rows weighted by multiplicity.

Correctness argument: a pair ``(t1, t2)`` satisfies the full conjunction
iff every conjunct evaluates to True; the key conjuncts evaluate to True
iff both sides are non-null and equal — precisely hash-bucket equality —
and the residual conjuncts are evaluated verbatim.  The property tests
in ``tests/test_kernel_equivalence.py`` check bag equality against the
naive operators over randomized null-bearing databases.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.algebra.nulls import is_null
from repro.algebra.predicates import PairView, Predicate, decompose_join_predicate
from repro.algebra.relation import Relation
from repro.algebra.tuples import Row, null_row

#: A build-side hash table: key values -> [(row, multiplicity), ...].  Rows
#: whose key contains a null never enter it (they can never match).
_BuildTable = Dict[Tuple, List[Tuple[Row, int]]]


def _build(right: Relation, right_keys: Tuple[str, ...]) -> _BuildTable:
    table: _BuildTable = {}
    for r2, n2 in right.counts().items():
        key = tuple(r2[a] for a in right_keys)
        if not any(is_null(v) for v in key):
            table.setdefault(key, []).append((r2, n2))
    return table


def _residual_true(residual: Tuple[Predicate, ...], view: PairView) -> bool:
    """Does every residual conjunct evaluate to (exactly) True?"""
    return all(c.evaluate(view) is True for c in residual)


def _probe_key(row: Row, left_keys: Tuple[str, ...]) -> Optional[Tuple]:
    """The probe key of a left row, or None when a key column is null."""
    key = tuple(row[a] for a in left_keys)
    if any(is_null(v) for v in key):
        return None
    return key


def hash_counts(
    left: Relation, right: Relation, predicate: Predicate, variant: str
) -> Counter:
    """Output multiplicities of one join-like operator.

    ``variant`` is ``inner``, ``left_outer``, ``full_outer``, ``semi`` or
    ``anti``.  The one build/probe loop: each distinct left row probes its
    bucket, the residual decides each candidate pair, and the variant
    decides what a left row emits — its pairs (plus its pad when it has
    none and the variant pads), or itself when its match status is the
    one the semi/anti join keeps.  A semi/anti probe stops at the first
    satisfied pair.
    """
    left_keys, right_keys, residual = decompose_join_predicate(
        predicate, left.scheme, right.scheme
    )
    table = _build(right, right_keys)
    pairs = variant in ("inner", "left_outer", "full_outer")
    keep_matched = variant == "semi"
    padding = null_row(right.schema) if variant in ("left_outer", "full_outer") else None
    matched_right: Optional[set[Row]] = set() if variant == "full_outer" else None
    out: Counter[Row] = Counter()
    for r1, n1 in left.counts().items():
        key = _probe_key(r1, left_keys)
        matched = False
        for r2, n2 in table.get(key, ()) if key is not None else ():
            if residual and not _residual_true(residual, PairView(r1, r2)):
                continue
            matched = True
            if not pairs:
                break
            out[r1.concat(r2)] += n1 * n2
            if matched_right is not None:
                matched_right.add(r2)
        if pairs:
            if padding is not None and not matched:
                out[r1.concat(padding)] += n1
        elif matched is keep_matched:
            out[r1] += n1
    if matched_right is not None:
        right_padding = null_row(left.schema)
        for r2, n2 in right.counts().items():
            if r2 not in matched_right:
                out[right_padding.concat(r2)] += n2
    return out
