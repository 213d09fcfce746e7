"""Predicates: three-valued evaluation, conjuncts, and strongness analysis.

Section 1.2 defines simple and join predicates as functions of the values
of a fixed set of attributes.  Section 2.1 adds the pivotal notion:

    A predicate ``p`` is *strong* with respect to a set ``S`` of attributes
    if, whenever a tuple ``t`` has a null value for all attributes in ``S``,
    ``p(t) = False``.

Strongness is what separates Example 3's broken reassociation from
identity 12's valid one, and it is a precondition of Theorem 1.  This
module decides strongness by *abstract evaluation*: the probed attributes
are bound to an abstract "definitely null" value, every other attribute to
"could be anything (including null)", and the predicate is reduced over
sets of possible Kleene truth values.  The predicate is strong w.r.t. ``S``
iff ``True`` is not a possible outcome.  The analysis is sound (it never
claims strongness that does not hold); for predicates where one attribute
occurs several times it may be conservative, which only ever makes the
library *demand* strongness it cannot prove.

Predicates are immutable, hashable, and structurally comparable, because
they label query-graph edges and operator nodes that must themselves be
canonicalizable.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Mapping
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.algebra.nulls import TruthValue, is_null, tv_and, tv_not, tv_or
from repro.util.errors import PredicateError

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    """A value-producing expression inside a predicate: attribute or constant."""

    __slots__ = ()

    def attributes(self) -> FrozenSet[str]:
        raise NotImplementedError

    def value(self, row: Mapping[str, Any]) -> Any:
        raise NotImplementedError

    def to_sql(self) -> str:
        """Render as a SQLite scalar expression (see :mod:`repro.algebra.sqlrender`)."""
        raise NotImplementedError


class AttrRef(Term):
    """Reference to an attribute by (qualified) name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise PredicateError(f"attribute reference must be a non-empty string, got {name!r}")
        self.name = name

    def attributes(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def value(self, row: Mapping[str, Any]) -> Any:
        try:
            return row[self.name]
        except KeyError:
            raise PredicateError(f"row has no attribute {self.name!r}") from None

    def to_sql(self) -> str:
        from repro.algebra.sqlrender import sql_identifier

        return sql_identifier(self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AttrRef) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("AttrRef", self.name))

    def __repr__(self) -> str:
        return self.name


class Const(Term):
    """A literal constant (may be :data:`NULL`, though ``IsNull`` is clearer)."""

    __slots__ = ("const",)

    def __init__(self, const: Any):
        self.const = const

    def attributes(self) -> FrozenSet[str]:
        return frozenset()

    def value(self, row: Mapping[str, Any]) -> Any:
        return self.const

    def to_sql(self) -> str:
        from repro.algebra.sqlrender import sql_literal

        return sql_literal(self.const)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and other.const == self.const

    def __hash__(self) -> int:
        return hash(("Const", self.const))

    def __repr__(self) -> str:
        return repr(self.const)


def _as_term(obj: Any) -> Term:
    """Coerce strings to attribute references and other values to constants."""
    if isinstance(obj, Term):
        return obj
    if isinstance(obj, str):
        return AttrRef(obj)
    return Const(obj)


# ---------------------------------------------------------------------------
# Abstract values for strongness analysis
# ---------------------------------------------------------------------------

#: Abstract value: the attribute is definitely null.
_ABS_NULL = "abs-null"
#: Abstract value: the attribute may hold anything, including null.
_ABS_ANY = "abs-any"

#: A set of possible Kleene truth values, e.g. ``frozenset({True, None})``.
PossibleTruths = FrozenSet[TruthValue]

_ONLY_TRUE: PossibleTruths = frozenset({True})
_ONLY_FALSE: PossibleTruths = frozenset({False})
_ONLY_UNKNOWN: PossibleTruths = frozenset({None})
_ANYTHING: PossibleTruths = frozenset({True, False, None})


def _abs_term(term: Term, null_attrs: FrozenSet[str]) -> Any:
    """Abstract value of a term when ``null_attrs`` are all null."""
    if isinstance(term, Const):
        return _ABS_NULL if is_null(term.const) else term.const
    if isinstance(term, AttrRef):
        return _ABS_NULL if term.name in null_attrs else _ABS_ANY
    raise PredicateError(f"unknown term type {type(term).__name__}")


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class Predicate:
    """Abstract base class for all predicates."""

    __slots__ = ()

    # -- interface ------------------------------------------------------------

    def attributes(self) -> FrozenSet[str]:
        """All attributes the predicate depends on."""
        raise NotImplementedError

    def evaluate(self, row: Mapping[str, Any]) -> TruthValue:
        """Three-valued evaluation against a row (any mapping)."""
        raise NotImplementedError

    def possible_truths(self, null_attrs: FrozenSet[str]) -> PossibleTruths:
        """Possible truth values if all ``null_attrs`` hold null."""
        raise NotImplementedError

    # -- derived behaviour ------------------------------------------------------

    def conjuncts(self) -> Tuple["Predicate", ...]:
        """Split a top-level conjunction into its conjuncts.

        Query-graph construction (Section 1.2) adds one join edge per
        predicate conjunct; everything that is not a top-level ``And`` is a
        single conjunct.
        """
        return (self,)

    def to_sql(self) -> str:
        """Render as a SQLite boolean expression.

        Sound because the library's 3VL was modeled on SQL's: unknown
        propagates through NOT/AND/OR identically, and the consumer
        (``WHERE``/``ON``) keeps rows only on definite truth.  Predicates
        with no SQL counterpart (:class:`CustomPredicate`) raise
        :class:`~repro.algebra.sqlrender.SQLRenderError`.
        """
        raise NotImplementedError

    def is_strong(self, attributes: Iterable[str]) -> bool:
        """Strongness test (Section 2.1).

        True iff the predicate cannot evaluate to ``True`` on any tuple
        whose value is null on *all* the given attributes.  Sound but
        possibly conservative; see the module docstring.
        """
        attrs = frozenset(attributes)
        if not attrs:
            # Vacuous probe: "all attributes of the empty set are null" holds
            # for every tuple, so strongness would require the predicate to be
            # unsatisfiable; test it as such.
            return True not in self.possible_truths(frozenset())
        return True not in self.possible_truths(attrs)

    def __and__(self, other: "Predicate") -> "Predicate":
        return conjunction([self, other])

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)


class TruePredicate(Predicate):
    """The always-true predicate (identity element of conjunction)."""

    __slots__ = ()

    def attributes(self) -> FrozenSet[str]:
        return frozenset()

    def evaluate(self, row: Mapping[str, Any]) -> TruthValue:
        return True

    def possible_truths(self, null_attrs: FrozenSet[str]) -> PossibleTruths:
        return _ONLY_TRUE

    def conjuncts(self) -> Tuple[Predicate, ...]:
        return ()

    def to_sql(self) -> str:
        return "(1 = 1)"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruePredicate)

    def __hash__(self) -> int:
        return hash("TruePredicate")

    def __repr__(self) -> str:
        return "TRUE"


#: Comparison operators in SQL spelling, mapped to Python semantics.
#: The ``operator`` functions, so a compiled column pass makes one C call
#: per row.
_COMPARATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Comparison(Predicate):
    """``left op right`` with SQL null semantics (null operand -> unknown)."""

    __slots__ = ("left", "op", "right", "_hash")

    def __init__(self, left: Any, op: str, right: Any):
        if op not in _COMPARATORS:
            raise PredicateError(f"unknown comparison operator {op!r}")
        self.left = _as_term(left)
        self.op = op
        self.right = _as_term(right)
        self._hash: Optional[int] = None

    def attributes(self) -> FrozenSet[str]:
        return self.left.attributes() | self.right.attributes()

    def evaluate(self, row: Mapping[str, Any]) -> TruthValue:
        lv = self.left.value(row)
        rv = self.right.value(row)
        if is_null(lv) or is_null(rv):
            return None
        try:
            return bool(_COMPARATORS[self.op](lv, rv))
        except TypeError as exc:
            raise PredicateError(
                f"cannot compare {lv!r} {self.op} {rv!r}: {exc}"
            ) from None

    def possible_truths(self, null_attrs: FrozenSet[str]) -> PossibleTruths:
        lv = _abs_term(self.left, null_attrs)
        rv = _abs_term(self.right, null_attrs)
        if lv is _ABS_NULL or rv is _ABS_NULL:
            return _ONLY_UNKNOWN
        if lv is _ABS_ANY or rv is _ABS_ANY:
            # The free attribute may be null (unknown) or any value
            # (true or false are both achievable for every comparator).
            return _ANYTHING
        # Both constants: exact evaluation.
        return frozenset({bool(_COMPARATORS[self.op](lv, rv))})

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Comparison)
            and other.left == self.left
            and other.op == self.op
            and other.right == self.right
        )

    def __hash__(self) -> int:
        # Cached: comparisons key every estimator and cut memo.  Never
        # pickled (see __reduce__), since string hashes differ per process.
        if self._hash is None:
            self._hash = hash(("Comparison", self.left, self.op, self.right))
        return self._hash

    def __reduce__(self):
        return Comparison, (self.left, self.op, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class IsNull(Predicate):
    """``term IS NULL`` — two-valued, never unknown.

    This is the construct that makes Example 3's predicate non-strong:
    ``B.attr2 = C.attr1 OR B.attr2 IS NULL`` evaluates to ``True`` on a
    null-padded ``B`` tuple.
    """

    __slots__ = ("term",)

    def __init__(self, term: Any):
        self.term = _as_term(term)

    def attributes(self) -> FrozenSet[str]:
        return self.term.attributes()

    def evaluate(self, row: Mapping[str, Any]) -> TruthValue:
        return is_null(self.term.value(row))

    def possible_truths(self, null_attrs: FrozenSet[str]) -> PossibleTruths:
        v = _abs_term(self.term, null_attrs)
        if v is _ABS_NULL:
            return _ONLY_TRUE
        if v is _ABS_ANY:
            return frozenset({True, False})
        return _ONLY_FALSE

    def to_sql(self) -> str:
        return f"({self.term.to_sql()} IS NULL)"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IsNull) and other.term == self.term

    def __hash__(self) -> int:
        return hash(("IsNull", self.term))

    def __repr__(self) -> str:
        return f"({self.term!r} IS NULL)"


class Not(Predicate):
    """Kleene negation."""

    __slots__ = ("child",)

    def __init__(self, child: Predicate):
        self.child = child

    def attributes(self) -> FrozenSet[str]:
        return self.child.attributes()

    def evaluate(self, row: Mapping[str, Any]) -> TruthValue:
        return tv_not(self.child.evaluate(row))

    def possible_truths(self, null_attrs: FrozenSet[str]) -> PossibleTruths:
        return frozenset(tv_not(v) for v in self.child.possible_truths(null_attrs))

    def to_sql(self) -> str:
        return f"(NOT {self.child.to_sql()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and other.child == self.child

    def __hash__(self) -> int:
        return hash(("Not", self.child))

    def __repr__(self) -> str:
        return f"(NOT {self.child!r})"


class And(Predicate):
    """Kleene conjunction; the children are the query-graph conjuncts."""

    __slots__ = ("children", "_hash")

    def __init__(self, children: Iterable[Predicate]):
        kids = tuple(children)
        if len(kids) < 2:
            raise PredicateError("And requires at least two children; use conjunction()")
        self.children = kids
        self._hash: Optional[int] = None

    def attributes(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for c in self.children:
            out |= c.attributes()
        return out

    def evaluate(self, row: Mapping[str, Any]) -> TruthValue:
        return tv_and(*(c.evaluate(row) for c in self.children))

    def conjuncts(self) -> Tuple[Predicate, ...]:
        out: list[Predicate] = []
        for c in self.children:
            out.extend(c.conjuncts())
        return tuple(out)

    def possible_truths(self, null_attrs: FrozenSet[str]) -> PossibleTruths:
        sets = [c.possible_truths(null_attrs) for c in self.children]
        out: set[TruthValue] = set()
        # AND can be False iff some child can be False.
        if any(False in s for s in sets):
            out.add(False)
        # AND can be True iff every child can be True.
        if all(True in s for s in sets):
            out.add(True)
        # AND can be Unknown iff every child can avoid False and some child
        # can be Unknown (children are treated as independent).
        if all(s - {False} for s in sets) and any(None in s for s in sets):
            out.add(None)
        return frozenset(out)

    def to_sql(self) -> str:
        return "(" + " AND ".join(c.to_sql() for c in self.children) + ")"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and other.children == self.children

    def __hash__(self) -> int:
        # Cached and never pickled, as for Comparison.
        if self._hash is None:
            self._hash = hash(("And", self.children))
        return self._hash

    def __reduce__(self):
        return And, (self.children,)

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(c) for c in self.children) + ")"


class Or(Predicate):
    """Kleene disjunction."""

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Predicate]):
        kids = tuple(children)
        if len(kids) < 2:
            raise PredicateError("Or requires at least two children")
        self.children = kids

    def attributes(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for c in self.children:
            out |= c.attributes()
        return out

    def evaluate(self, row: Mapping[str, Any]) -> TruthValue:
        return tv_or(*(c.evaluate(row) for c in self.children))

    def possible_truths(self, null_attrs: FrozenSet[str]) -> PossibleTruths:
        sets = [c.possible_truths(null_attrs) for c in self.children]
        out: set[TruthValue] = set()
        # OR can be True iff some child can be True.
        if any(True in s for s in sets):
            out.add(True)
        # OR can be False iff every child can be False.
        if all(False in s for s in sets):
            out.add(False)
        # OR can be Unknown iff every child can avoid True and some child can
        # be Unknown.
        if all(s - {True} for s in sets) and any(None in s for s in sets):
            out.add(None)
        return frozenset(out)

    def to_sql(self) -> str:
        return "(" + " OR ".join(c.to_sql() for c in self.children) + ")"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and other.children == self.children

    def __hash__(self) -> int:
        return hash(("Or", self.children))

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(c) for c in self.children) + ")"


class CustomPredicate(Predicate):
    """An opaque predicate given by a Python function.

    Used by the Section-5 language for the access-path predicates
    ``NestedIn(@r, @value)`` and ``LinkedTo(@r, @value)``; the paper notes
    that "the implementation technique for these predicates is not relevant
    to correctness of query reordering" — only their attribute sets and
    strongness matter, so both are declared explicitly here.

    The function is compared by identity: two opaque predicates with the
    same name and attributes but different functions are different
    predicates (every cache keyed by a predicate relies on this).  The
    ``repr`` shows only the name and attributes.

    ``null_rejecting`` lists attributes on which the predicate is
    individually null-rejecting: a null in any one of them forces the
    predicate to be non-true.  Strongness w.r.t. a set ``S`` then follows
    whenever ``S`` intersects ``null_rejecting``.
    """

    __slots__ = ("name", "fn", "_attrs", "null_rejecting")

    def __init__(
        self,
        name: str,
        fn: Callable[[Mapping[str, Any]], TruthValue],
        attributes: Iterable[str],
        null_rejecting: Iterable[str] = (),
    ):
        self.name = name
        self.fn = fn
        self._attrs = frozenset(attributes)
        self.null_rejecting = frozenset(null_rejecting)
        if not self.null_rejecting <= self._attrs:
            raise PredicateError("null_rejecting attributes must be referenced attributes")

    def attributes(self) -> FrozenSet[str]:
        return self._attrs

    def evaluate(self, row: Mapping[str, Any]) -> TruthValue:
        if any(is_null(row[a]) for a in self.null_rejecting):
            return False
        return self.fn(row)

    def possible_truths(self, null_attrs: FrozenSet[str]) -> PossibleTruths:
        if null_attrs & self.null_rejecting:
            return _ONLY_FALSE
        return _ANYTHING

    def to_sql(self) -> str:
        from repro.algebra.sqlrender import SQLRenderError

        raise SQLRenderError(
            f"opaque predicate {self.name!r} has no SQL rendering; conformance "
            "checks against SQLite must exclude queries that use it"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CustomPredicate)
            and other.name == self.name
            and other._attrs == self._attrs
            and other.fn is self.fn
            and other._attrs == self._attrs
            and other.null_rejecting == self.null_rejecting
        )

    def __hash__(self) -> int:
        return hash(("CustomPredicate", self.name, id(self.fn), self._attrs, self.null_rejecting))

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(sorted(self._attrs))})"


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def eq(left: Any, right: Any) -> Comparison:
    """Equality comparison; strings become attribute references."""
    return Comparison(left, "=", right)


def lt(left: Any, right: Any) -> Comparison:
    return Comparison(left, "<", right)


def gt(left: Any, right: Any) -> Comparison:
    return Comparison(left, ">", right)


def conjunction(predicates: Iterable[Predicate]) -> Predicate:
    """Conjoin predicates, flattening nested ``And`` and dropping ``TRUE``.

    Zero conjuncts yield :class:`TruePredicate`; one yields it unchanged.
    This is the collapse rule for parallel query-graph edges: "we will
    treat them as if they were a single conjunct" (Section 1.2).

    Conjuncts are put into a canonical (sorted-by-repr) order so that two
    operators labeled with the same conjunct set — however they were
    assembled by reassociations — compare structurally equal.  Lemma 3's
    closure computation relies on this.
    """
    flat: list[Predicate] = []
    for p in predicates:
        flat.extend(p.conjuncts())
    if not flat:
        return TruePredicate()
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=repr)
    return And(flat)


def references(predicate: Predicate, attributes: Iterable[str]) -> bool:
    """True iff the predicate references any of the given attributes."""
    return bool(predicate.attributes() & frozenset(attributes))


#: Decomposition of a join predicate against a (left, right) scheme pair:
#: parallel key-attribute tuples plus the residual conjuncts.
Decomposition = Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[Predicate, ...]]

_DECOMP_CACHE: Dict[Tuple[Predicate, frozenset, frozenset], Decomposition] = {}
_DECOMP_CACHE_LIMIT = 4096


def decompose_join_predicate(
    predicate: Predicate, left_attrs: frozenset, right_attrs: frozenset
) -> Decomposition:
    """Split a predicate into hashable equality key pairs and a residual.

    Returns ``(left_keys, right_keys, residual_conjuncts)`` with
    ``left_keys[i] = right_keys[i]`` the i-th equality conjunct.  Empty
    key tuples mean the predicate has no cross-scheme equality conjunct:
    a hash join then builds one bucket under the empty key and the whole
    predicate is the residual.  Memoized per (predicate, schemes), because
    the same operator predicate is applied to thousands of randomized
    databases in a property-test run.
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


class PairView(Mapping[str, Any]):
    """A zero-copy view of two rows as one, for join-predicate evaluation.

    Join loops evaluate ``p(t1, t2)`` millions of times; building a merged
    ``Row`` for each pair would dominate run time, so physical operators
    evaluate against this lazy two-row view instead.
    """

    __slots__ = ("first", "second")

    def __init__(self, first: Mapping[str, Any], second: Mapping[str, Any]):
        self.first = first
        self.second = second

    def __getitem__(self, attribute: str) -> Any:
        try:
            return self.first[attribute]
        except KeyError:
            return self.second[attribute]

    def __iter__(self):
        yield from self.first
        yield from self.second

    def __len__(self) -> int:
        return len(self.first) + len(self.second)
