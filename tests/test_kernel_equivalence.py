"""Property tests: every public join-like operator is bag-equal to its
naive counterpart.

The public operators run the hash build/probe loop
(:func:`repro.algebra.kernels.hash_counts`) on every input; the naive
nested-loop operators define the semantics (3VL predicate evaluation, bag
multiplicities, null padding).  These tests randomize relations
(duplicates, nulls), key/residual predicate mixes, and degenerate cases
(all-null key columns; keyless predicates — non-equi, ``TRUE``, opaque —
which hash every right row into one bucket) and require exact bag
equality.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algebra import (
    NULL,
    CustomPredicate,
    Relation,
    Row,
    TruePredicate,
    antijoin,
    bag_equal,
    conjunction,
    decompose_join_predicate,
    eq,
    full_outerjoin,
    gt,
    join,
    lt,
    naive_antijoin,
    naive_full_outerjoin,
    naive_join,
    naive_outerjoin,
    naive_semijoin,
    outerjoin,
    semijoin,
)


L_ATTRS = ("L.a", "L.b")
R_ATTRS = ("R.a", "R.b")

values = st.one_of(st.integers(min_value=0, max_value=3), st.just(NULL))


def relation_strategy(attrs, max_rows=5):
    row = st.fixed_dictionaries({a: values for a in attrs})
    return st.lists(row, min_size=0, max_size=max_rows).map(
        lambda dicts: Relation(list(attrs), [Row(d) for d in dicts])
    )


lefts = relation_strategy(L_ATTRS)
rights = relation_strategy(R_ATTRS)

#: Conjunct pool mixing hashable equalities with non-equi residuals.
CONJUNCTS = [
    eq("L.a", "R.a"),
    eq("L.b", "R.b"),
    lt("L.a", "R.b"),
    gt("L.b", "R.a"),
    eq("L.a", 1),
]

predicates = st.lists(
    st.sampled_from(CONJUNCTS), min_size=1, max_size=3, unique_by=id
).map(conjunction)


def _opaque_fn(row):
    """Opaque and three-valued: unknown when ``L.a`` is NULL."""
    if row["L.a"] is NULL:
        return None
    return row["R.b"] is not NULL and row["L.a"] <= row["R.b"]


#: Predicates with no cross-scheme equality: each hash join builds one
#: bucket under the empty key and evaluates the whole predicate per pair.
KEYLESS = {
    "non_equi": conjunction([lt("L.a", "R.b"), gt("L.b", "R.a")]),
    "true": TruePredicate(),
    "opaque": CustomPredicate("Le", _opaque_fn, ["L.a", "R.b"], null_rejecting=["R.b"]),
    "opaque_and_constant": conjunction(
        [CustomPredicate("Le", _opaque_fn, ["L.a", "R.b"]), eq("L.b", 1)]
    ),
}

PAIRS = [
    (join, naive_join),
    (outerjoin, naive_outerjoin),
    (full_outerjoin, naive_full_outerjoin),
    (semijoin, naive_semijoin),
    (antijoin, naive_antijoin),
]


@pytest.mark.parametrize("fast_op,naive_op", PAIRS, ids=lambda f: f.__name__)
class TestKernelEquivalence:
    @given(left=lefts, right=rights, predicate=predicates)
    @settings(max_examples=120, deadline=None)
    def test_random_mix(self, fast_op, naive_op, left, right, predicate):
        fast = fast_op(left, right, predicate)
        assert bag_equal(fast, naive_op(left, right, predicate))

    @given(left=lefts, right=rights)
    @settings(max_examples=60, deadline=None)
    def test_all_null_key_column(self, fast_op, naive_op, left, right):
        """Null keys never match: the hash table must not bucket NULLs."""
        from collections import Counter

        nulled_counts: Counter = Counter()
        for r, n in right.counts().items():
            nulled_counts[Row({"R.a": NULL, "R.b": r["R.b"]})] += n
        nulled = Relation.from_counts(list(R_ATTRS), nulled_counts)
        predicate = eq("L.a", "R.a")
        fast = fast_op(left, nulled, predicate)
        assert bag_equal(fast, naive_op(left, nulled, predicate))

    @given(left=lefts, right=rights)
    @settings(max_examples=60, deadline=None)
    def test_pure_non_equi_falls_back(self, fast_op, naive_op, left, right):
        """No equality conjunct: one bucket, the whole predicate is residual."""
        predicate = KEYLESS["non_equi"]
        keys_l, keys_r, _residual = decompose_join_predicate(
            predicate, frozenset(L_ATTRS), frozenset(R_ATTRS)
        )
        assert not keys_l and not keys_r
        fast = fast_op(left, right, predicate)
        assert bag_equal(fast, naive_op(left, right, predicate))

    @pytest.mark.parametrize("kind", sorted(KEYLESS))
    @given(left=lefts, right=rights)
    @settings(max_examples=20, deadline=None)
    def test_keyless_predicate_is_one_bucket(self, fast_op, naive_op, kind, left, right):
        """Non-equi, ``TRUE`` and opaque predicates over null-bearing
        inputs, empty ones included: one bucket, every pair checked."""
        predicate = KEYLESS[kind]
        keys_l, keys_r, residual = decompose_join_predicate(
            predicate, frozenset(L_ATTRS), frozenset(R_ATTRS)
        )
        assert not keys_l and not keys_r
        assert residual == predicate.conjuncts()
        fast = fast_op(left, right, predicate)
        assert bag_equal(fast, naive_op(left, right, predicate))


class TestDecomposition:
    def test_splits_equalities_from_residual(self):
        predicate = conjunction([eq("L.a", "R.a"), lt("L.b", "R.b")])
        keys_l, keys_r, residual = decompose_join_predicate(
            predicate, frozenset(L_ATTRS), frozenset(R_ATTRS)
        )
        assert keys_l == ("L.a",) and keys_r == ("R.a",)
        assert [type(c).__name__ for c in residual] == ["Comparison"]

    def test_orientation_is_normalized(self):
        """R.a = L.a decomposes the same way as L.a = R.a."""
        for predicate in (eq("R.a", "L.a"), eq("L.a", "R.a")):
            keys_l, keys_r, residual = decompose_join_predicate(
                predicate, frozenset(L_ATTRS), frozenset(R_ATTRS)
            )
            assert keys_l == ("L.a",) and keys_r == ("R.a",) and not residual

    def test_constant_comparison_is_residual(self):
        keys_l, keys_r, residual = decompose_join_predicate(
            eq("L.a", 1), frozenset(L_ATTRS), frozenset(R_ATTRS)
        )
        assert not keys_l and not keys_r and len(residual) == 1
