"""Unit tests for predicates: 3VL evaluation, conjuncts, and strongness.

Strongness (Section 2.1) is the paper's load-bearing definition; the tests
include Example 3's predicate verbatim.
"""

import pytest

from repro.algebra import (
    NULL,
    And,
    Comparison,
    Const,
    CustomPredicate,
    IsNull,
    Not,
    Or,
    PairView,
    Row,
    TruePredicate,
    conjunction,
    eq,
    gt,
    lt,
    references,
)
from repro.util.errors import PredicateError


class TestComparisonEvaluation:
    def test_equality(self):
        p = eq("a", "b")
        assert p.evaluate(Row({"a": 1, "b": 1})) is True
        assert p.evaluate(Row({"a": 1, "b": 2})) is False

    def test_null_operand_is_unknown(self):
        p = eq("a", "b")
        assert p.evaluate(Row({"a": NULL, "b": 1})) is None
        assert p.evaluate(Row({"a": 1, "b": NULL})) is None
        assert p.evaluate(Row({"a": NULL, "b": NULL})) is None

    def test_constants(self):
        p = Comparison("a", ">", Const(5))
        assert p.evaluate(Row({"a": 10})) is True
        assert p.evaluate(Row({"a": 3})) is False

    def test_all_operators(self):
        row = Row({"a": 2, "b": 3})
        assert Comparison("a", "<", "b").evaluate(row) is True
        assert Comparison("a", "<=", "b").evaluate(row) is True
        assert Comparison("a", ">", "b").evaluate(row) is False
        assert Comparison("a", ">=", "b").evaluate(row) is False
        assert Comparison("a", "<>", "b").evaluate(row) is True

    def test_unknown_operator_rejected(self):
        with pytest.raises(PredicateError):
            Comparison("a", "~", "b")

    def test_missing_attribute(self):
        with pytest.raises(PredicateError):
            eq("a", "b").evaluate(Row({"a": 1}))

    def test_incomparable_types(self):
        with pytest.raises(PredicateError):
            lt("a", "b").evaluate(Row({"a": 1, "b": "text"}))

    def test_attributes(self):
        assert eq("R.a", "S.b").attributes() == frozenset({"R.a", "S.b"})
        assert Comparison("R.a", "=", Const(3)).attributes() == frozenset({"R.a"})


class TestBooleanStructure:
    def test_and_or_not(self):
        p = And((eq("a", "b"), gt("c", "d")))
        assert p.evaluate(Row({"a": 1, "b": 1, "c": 5, "d": 2})) is True
        assert p.evaluate(Row({"a": 1, "b": 2, "c": 5, "d": 2})) is False
        q = Or((eq("a", "b"), gt("c", "d")))
        assert q.evaluate(Row({"a": 0, "b": 1, "c": 5, "d": 2})) is True
        assert Not(eq("a", "b")).evaluate(Row({"a": 1, "b": 1})) is False

    def test_kleene_unknown_propagation(self):
        p = And((eq("a", "b"), gt("c", "d")))
        # unknown AND true -> unknown
        assert p.evaluate(Row({"a": NULL, "b": 1, "c": 5, "d": 2})) is None
        # unknown AND false -> false
        assert p.evaluate(Row({"a": NULL, "b": 1, "c": 1, "d": 2})) is False
        q = Or((eq("a", "b"), gt("c", "d")))
        # unknown OR true -> true
        assert q.evaluate(Row({"a": NULL, "b": 1, "c": 5, "d": 2})) is True

    def test_is_null(self):
        assert IsNull("a").evaluate(Row({"a": NULL})) is True
        assert IsNull("a").evaluate(Row({"a": 0})) is False

    def test_conjuncts_flatten(self):
        p = And((eq("a", "b"), And((eq("c", "d"), eq("e", "f")))))
        assert len(p.conjuncts()) == 3

    def test_single_predicate_is_its_own_conjunct(self):
        p = eq("a", "b")
        assert p.conjuncts() == (p,)

    def test_true_predicate(self):
        t = TruePredicate()
        assert t.evaluate(Row({})) is True
        assert t.conjuncts() == ()

    def test_degenerate_and_or_rejected(self):
        with pytest.raises(PredicateError):
            And((eq("a", "b"),))
        with pytest.raises(PredicateError):
            Or(())


class TestConjunction:
    def test_empty_is_true(self):
        assert isinstance(conjunction([]), TruePredicate)

    def test_singleton_unchanged(self):
        p = eq("a", "b")
        assert conjunction([p]) is p

    def test_flattens_and_sorts_canonically(self):
        a, b = eq("a", "x"), eq("b", "y")
        assert conjunction([a, b]) == conjunction([b, a])

    def test_drops_true(self):
        p = eq("a", "b")
        assert conjunction([TruePredicate(), p]) is p

    def test_operator_sugar(self):
        p = eq("a", "b") & eq("c", "d")
        assert isinstance(p, And)
        q = eq("a", "b") | eq("c", "d")
        assert isinstance(q, Or)
        assert isinstance(~eq("a", "b"), Not)


class TestCachedHash:
    """Comparison and And cache their hash; the cache never leaves the process."""

    CASES = [
        lambda: eq("R.a", "S.b"),
        lambda: Comparison("R.a", ">", Const(3)),
        lambda: conjunction([eq("R.a", "S.b"), lt("R.c", "S.d")]),
        lambda: And((eq("a", "b"), And((eq("c", "d"), gt("e", Const(1)))))),
    ]

    @pytest.mark.parametrize("make", CASES)
    def test_hash_agrees_with_fresh_equal_predicate(self, make):
        cached = make()
        first = hash(cached)
        fresh = make()
        assert fresh == cached and cached == fresh
        assert hash(fresh) == first == hash(cached)
        assert len({cached, fresh}) == 1

    @pytest.mark.parametrize("make", CASES)
    def test_pickle_round_trip_drops_the_cached_hash(self, make):
        import copy
        import pickle

        original = make()
        hash(original)
        assert original._hash is not None
        for clone in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert clone == original
            assert clone._hash is None
            assert hash(clone) == hash(original)


class TestStrongness:
    """Section 2.1: p is strong wrt S iff null-on-S forces p(t) = False."""

    def test_comparison_strong_on_either_side(self):
        p = eq("Y.b", "Z.b")
        assert p.is_strong(["Y.b"])
        assert p.is_strong(["Z.b"])
        assert p.is_strong(["Y.b", "Z.b"])

    def test_comparison_not_strong_on_unrelated_attrs(self):
        assert not eq("Y.b", "Z.b").is_strong(["Q.q"])

    def test_example3_predicate_not_strong(self):
        """The paper's Example 3: (B.attr2 = C.attr1 OR B.attr2 IS NULL)."""
        p = Or((eq("B.attr2", "C.attr1"), IsNull("B.attr2")))
        assert not p.is_strong(["B.attr2"])
        # It is also not strong w.r.t. C: the IS NULL disjunct can fire.
        assert not p.is_strong(["C.attr1"])

    def test_conjunction_with_one_strong_conjunct_is_strong(self):
        p = And((eq("Y.b", "Z.b"), IsNull("Y.a")))
        assert p.is_strong(["Y.b"])

    def test_disjunction_needs_all_disjuncts_strong(self):
        strong_both = Or((eq("Y.a", "Z.a"), eq("Y.a", "Z.b")))
        assert strong_both.is_strong(["Y.a"])
        weak = Or((eq("Y.a", "Z.a"), eq("Y.b", "Z.a")))
        assert weak.is_strong(["Y.a", "Y.b"])
        assert not weak.is_strong(["Y.a"])

    def test_not_of_isnull(self):
        # NOT (a IS NULL) is false when a is null -> strong wrt a.
        assert Not(IsNull("a")).is_strong(["a"])
        # NOT (a = b) is unknown (not true) when a null -> strong.
        assert Not(eq("a", "b")).is_strong(["a"])

    def test_isnull_is_antistrong(self):
        assert not IsNull("a").is_strong(["a"])

    def test_strong_wrt_empty_set_means_unsatisfiable(self):
        assert not eq("a", "b").is_strong([])
        # A constant-false comparison is strong w.r.t. everything.
        p = Comparison(Const(1), "=", Const(2))
        assert p.is_strong([])
        assert p.is_strong(["a"])

    def test_asymmetric_strongness_example(self):
        """Strong wrt Z but not wrt Y — the erratum-witness shape."""
        p = Or((eq("Y.a", "Z.b"), And((Comparison("Z.b", "=", Const(5)), IsNull("Y.a")))))
        assert p.is_strong(["Z.b"])
        assert not p.is_strong(["Y.a"])


class TestCustomPredicate:
    def test_null_rejecting_declaration(self):
        p = CustomPredicate(
            "NestedIn", lambda row: row["@r"] == row["@v"], ["@r", "@v"], ["@r", "@v"]
        )
        assert p.is_strong(["@r"])
        assert p.is_strong(["@v"])
        assert p.evaluate(Row({"@r": NULL, "@v": 1})) is False
        assert p.evaluate(Row({"@r": 1, "@v": 1})) is True

    def test_opaque_without_declaration(self):
        p = CustomPredicate("Opaque", lambda row: True, ["@r"])
        assert not p.is_strong(["@r"])

    def test_null_rejecting_must_be_subset(self):
        with pytest.raises(PredicateError):
            CustomPredicate("Bad", lambda row: True, ["@r"], ["@other"])

    def test_equality_compares_the_function_by_identity(self):
        def fn(row):
            return True

        same = CustomPredicate("In", fn, ["@r"])
        assert same == CustomPredicate("In", fn, ["@r"])
        assert hash(same) == hash(CustomPredicate("In", fn, ["@r"]))
        other = CustomPredicate("In", lambda row: True, ["@r"])
        assert same != other and repr(same) == repr(other)


class TestHelpers:
    def test_references(self):
        assert references(eq("R.a", "S.a"), ["R.a"])
        assert not references(eq("R.a", "S.a"), ["T.a"])

    def test_pair_view(self):
        view = PairView(Row({"a": 1}), Row({"b": 2}))
        assert view["a"] == 1 and view["b"] == 2
        assert len(view) == 2
        assert set(view) == {"a", "b"}
        assert eq("a", "b").evaluate(view) is False

    def test_predicate_structural_equality(self):
        assert eq("a", "b") == eq("a", "b")
        assert eq("a", "b") != eq("a", "c")
        assert len({eq("a", "b"), eq("a", "b")}) == 1
