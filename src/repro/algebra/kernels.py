"""Hash-partitioned fast kernels for the join-like algebra operators.

The naive operators in :mod:`repro.algebra.operators` transcribe the
paper's definitions tuple-at-a-time: every left row scans the full right
relation.  That is the right shape for a semantic oracle and the wrong
shape for the randomized-database property tests and benchmarks built on
top of it.  These kernels keep the oracle's semantics bit-for-bit while
replacing the quadratic scan with a build/probe hash join:

* the join predicate is decomposed into *equality key pairs* — conjuncts
  ``a = b`` with ``a`` an attribute of the left scheme and ``b`` one of
  the right scheme — plus a *residual* of all remaining conjuncts;
* the right relation is partitioned once into a hash table keyed by its
  key values.  Rows with a null in any key column never enter it (SQL
  3VL: ``NULL = x`` is unknown, and unknown does not satisfy), so they
  fall through to padding / anti output exactly as in the nested loop;
* each left row with non-null keys probes its bucket and evaluates only
  the residual conjuncts; a left row with a null key matches nothing.

One loop, :func:`_hash_counts`, serves all five operators (join,
one- and two-sided outerjoin, semijoin, antijoin); the public
``*_counts`` functions name its variants.  The engine has its own probe
loop (:class:`~repro.engine.batch.kernels.BatchHashJoiner`): it joins
columns, while this one joins distinct rows weighted by multiplicity.

A predicate with no usable equality conjunct (pure non-equi, or
``TRUE``) yields no key pairs and the caller falls back to the nested
loop.  So do *micro inputs* (distinct-row product below
:func:`~repro.util.fastpath.small_input_cutoff`, 32 unless a thread pins
it with ``small_input_limit``): building key tuples and hash buckets
costs more than a handful of nested-loop probes, and the brute-force
enumeration workloads evaluate thousands of operators over 2–4 row
relations.  Decompositions are memoized per (predicate, schemes) because
the same operator predicate is applied to thousands of randomized
databases in a property-test run.

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
from repro.algebra.predicates import AttrRef, Comparison, PairView, Predicate
from repro.algebra.relation import Relation
from repro.algebra.tuples import Row, null_row
from repro.util.fastpath import small_input_cutoff

#: Decomposition of a join predicate against a (left, right) scheme pair:
#: parallel key-attribute tuples plus the residual conjuncts.
Decomposition = Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[Predicate, ...]]

_DECOMP_CACHE: Dict[Tuple[Predicate, frozenset, frozenset], Decomposition] = {}
_DECOMP_CACHE_LIMIT = 4096


def _too_small(left: Relation, right: Relation) -> bool:
    return len(left.counts()) * len(right.counts()) < small_input_cutoff()


def decompose_join_predicate(
    predicate: Predicate, left_attrs: frozenset, right_attrs: frozenset
) -> Decomposition:
    """Split a predicate into hashable equality key pairs and a residual.

    Returns ``(left_keys, right_keys, residual_conjuncts)`` with
    ``left_keys[i] = right_keys[i]`` the i-th equality conjunct.  Empty
    key tuples mean the predicate has no cross-scheme equality conjunct
    and hash partitioning does not apply.
    """
    cache_key = (predicate, left_attrs, right_attrs)
    hit = _DECOMP_CACHE.get(cache_key)
    if hit is not None:
        return hit
    left_keys: List[str] = []
    right_keys: List[str] = []
    residual: List[Predicate] = []
    for conjunct in predicate.conjuncts():
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, AttrRef)
            and isinstance(conjunct.right, AttrRef)
        ):
            a, b = conjunct.left.name, conjunct.right.name
            if a in left_attrs and b in right_attrs:
                left_keys.append(a)
                right_keys.append(b)
                continue
            if b in left_attrs and a in right_attrs:
                left_keys.append(b)
                right_keys.append(a)
                continue
        residual.append(conjunct)
    result = (tuple(left_keys), tuple(right_keys), tuple(residual))
    if len(_DECOMP_CACHE) >= _DECOMP_CACHE_LIMIT:
        _DECOMP_CACHE.clear()
    _DECOMP_CACHE[cache_key] = result
    return result


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


def _hash_counts(
    left: Relation, right: Relation, predicate: Predicate, variant: str
) -> Optional[Counter]:
    """Output multiplicities of one join-like operator, or None when the
    hash kernel does not apply.

    ``variant`` is ``inner``, ``left_outer``, ``full_outer``, ``semi`` or
    ``anti``.  The one build/probe loop: each distinct left row probes its
    bucket, the residual decides each candidate pair, and the variant
    decides what a left row emits — its pairs (plus its pad when it has
    none and the variant pads), or itself when its match status is the
    one the semi/anti join keeps.  A semi/anti probe stops at the first
    satisfied pair.
    """
    if _too_small(left, right):
        return None
    left_keys, right_keys, residual = decompose_join_predicate(
        predicate, left.scheme, right.scheme
    )
    if not left_keys:
        return None
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


def join_counts(
    left: Relation, right: Relation, predicate: Predicate
) -> Optional[Counter]:
    """Hash-join output multiplicities, or None when not applicable."""
    return _hash_counts(left, right, predicate, "inner")


def outerjoin_counts(
    left: Relation, right: Relation, predicate: Predicate
) -> Optional[Counter]:
    """One-sided outerjoin multiplicities (left preserved), or None."""
    return _hash_counts(left, right, predicate, "left_outer")


def full_outerjoin_counts(
    left: Relation, right: Relation, predicate: Predicate
) -> Optional[Counter]:
    """Two-sided outerjoin multiplicities, or None when not applicable."""
    return _hash_counts(left, right, predicate, "full_outer")


def semijoin_counts(
    left: Relation, right: Relation, predicate: Predicate
) -> Optional[Counter]:
    """Hash semijoin multiplicities, or None when not applicable."""
    return _hash_counts(left, right, predicate, "semi")


def antijoin_counts(
    left: Relation, right: Relation, predicate: Predicate
) -> Optional[Counter]:
    """Hash antijoin multiplicities, or None when not applicable."""
    return _hash_counts(left, right, predicate, "anti")
