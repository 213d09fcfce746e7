"""The join-like algebra operators of Sections 1.2, 2.1, and the classics.

Implemented here, all under bag semantics (multiplicities multiply through
matches and add through union):

* ``join``          — regular join ``JN[p](R1, R2)`` (Section 1.2)
* ``outerjoin``     — one-sided outerjoin ``OJ[p](R1, R2)``; ``R1`` is the
                      preserved relation, ``R2`` the null-supplied one
* ``antijoin``      — ``AJ[p](R1, R2)`` = ``R1 ▷ R2`` (Section 2.1)
* ``semijoin``      — the complement of antijoin (needed by Section 6.3's
                      discussion and useful on its own)
* ``restrict``      — selection, keeping rows whose predicate is True
* ``project``       — projection, optionally duplicate-removing (the π of
                      Section 6.2 removes duplicates)
* ``union_padded``  — union under the Section 2.1 convention: both inputs
                      are first padded to the union scheme
* ``difference``    — set or bag difference (set form is the "−" of
                      equation 14)
* ``cross``         — Cartesian product (excluded from implementing trees,
                      but the engine and tests need it)

Every binary operator validates the paper's standing convention that
operand schemes are disjoint.

Each join-like operator exists in two forms that share no join code: the
naive nested-loop transcription of the paper (``naive_join`` & co., the
semantic oracle) and the public name, which always runs the hash
build/probe loop (:func:`repro.algebra.kernels.hash_counts`) — a
predicate with no equality across the schemes is one bucket with the
whole predicate as residual.  The two are property-tested bag-equal on
randomized null-bearing databases (``tests/test_kernel_equivalence.py``).

An :class:`OperatorTable` names one implementation of every operator an
expression tree can hold; ``Expression.eval(db, ops=...)`` evaluates
with it.  :data:`PUBLIC_OPS` (the default) binds the public names,
:data:`ORACLE_OPS` the nested loops, so the oracle is an argument of the
evaluation rather than a mode of the process.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.algebra import kernels
from repro.algebra.predicates import PairView, Predicate
from repro.algebra.nulls import satisfied
from repro.algebra.relation import Relation
from repro.algebra.schema import Schema
from repro.algebra.tuples import Row, null_row
from repro.util.errors import SchemaError


def _require_disjoint(left: Relation, right: Relation, op: str) -> None:
    left.schema.require_disjoint(right.schema, context=op)


def _output_schema(left: Relation, right: Relation) -> Schema:
    return left.schema.union(right.schema)


def restrict(relation: Relation, predicate: Predicate) -> Relation:
    """Selection: keep rows on which the predicate evaluates to True.

    Rows with an *unknown* outcome are discarded, matching SQL and the
    two-valued reading of the paper ("p(t) = False").
    """
    out: Counter[Row] = Counter()
    for row, n in relation.counts().items():
        if satisfied(predicate.evaluate(row)):
            out[row] += n
    return Relation.from_counts(relation.schema, out)


def project(relation: Relation, attributes: Iterable[str], dedup: bool = True) -> Relation:
    """Projection.  ``dedup=True`` is the paper's π (removal of duplicates)."""
    attrs = list(attributes)
    target = Schema(attrs)
    if not target.is_subset(relation.schema):
        extra = target.difference(relation.schema)
        raise SchemaError(f"cannot project on absent attributes {sorted(extra.attributes)}")
    out: Counter[Row] = Counter()
    for row, n in relation.counts().items():
        out[row.project(attrs)] += n
    if dedup:
        out = Counter({row: 1 for row in out})
    return Relation.from_counts(target, out)


def cross(left: Relation, right: Relation) -> Relation:
    """Cartesian product (not available inside implementing trees)."""
    _require_disjoint(left, right, "cross")
    out: Counter[Row] = Counter()
    for r1, n1 in left.counts().items():
        for r2, n2 in right.counts().items():
            out[r1.concat(r2)] += n1 * n2
    return Relation.from_counts(_output_schema(left, right), out)


def join(left: Relation, right: Relation, predicate: Predicate) -> Relation:
    """Regular join ``JN[p](R1, R2)``.

    "Yields the concatenations of tuples from R1, R2 that satisfy the join
    predicate p" (Section 1.2).
    """
    _require_disjoint(left, right, "join")
    out = kernels.hash_counts(left, right, predicate, "inner")
    return Relation.from_counts(_output_schema(left, right), out)


def naive_join(left: Relation, right: Relation, predicate: Predicate) -> Relation:
    """Nested-loop reference implementation of :func:`join` (the oracle)."""
    _require_disjoint(left, right, "join")
    out: Counter[Row] = Counter()
    for r1, n1 in left.counts().items():
        for r2, n2 in right.counts().items():
            if satisfied(predicate.evaluate(PairView(r1, r2))):
                out[r1.concat(r2)] += n1 * n2
    return Relation.from_counts(_output_schema(left, right), out)


def outerjoin(left: Relation, right: Relation, predicate: Predicate) -> Relation:
    """One-sided outerjoin ``OJ[p](R1, R2)`` = ``R1 → R2``.

    ``JN[p](R1, R2)`` plus the non-matched tuples of ``R1`` padded with
    nulls on the attributes of ``R2`` (Section 1.2).  The arrow of the
    paper's infix notation points at the null-supplied relation, i.e. at
    ``right`` here.
    """
    _require_disjoint(left, right, "outerjoin")
    out = kernels.hash_counts(left, right, predicate, "left_outer")
    return Relation.from_counts(_output_schema(left, right), out)


def naive_outerjoin(left: Relation, right: Relation, predicate: Predicate) -> Relation:
    """Nested-loop reference implementation of :func:`outerjoin`."""
    _require_disjoint(left, right, "outerjoin")
    schema = _output_schema(left, right)
    padding = null_row(right.schema)
    out: Counter[Row] = Counter()
    for r1, n1 in left.counts().items():
        matched = False
        for r2, n2 in right.counts().items():
            if satisfied(predicate.evaluate(PairView(r1, r2))):
                matched = True
                out[r1.concat(r2)] += n1 * n2
        if not matched:
            out[r1.concat(padding)] += n1
    return Relation.from_counts(schema, out)


def full_outerjoin(left: Relation, right: Relation, predicate: Predicate) -> Relation:
    """Two-sided outerjoin: preserve both inputs.

    The paper excludes this operator from its core development ("Two-sided
    outerjoin will not be discussed", Section 1.2) but leans on it in
    Section 4: "A similar argument can be used to convert 2-sided
    outerjoin to one-sided outerjoin" — a restriction strong on one side's
    attributes makes that side's padding pointless.  The operator is
    provided so that conversion can be implemented and tested.

    ``JN(R1,R2) ∪ (unmatched R1 padded) ∪ (unmatched R2 padded)``.
    """
    _require_disjoint(left, right, "full_outerjoin")
    out = kernels.hash_counts(left, right, predicate, "full_outer")
    return Relation.from_counts(_output_schema(left, right), out)


def naive_full_outerjoin(
    left: Relation, right: Relation, predicate: Predicate
) -> Relation:
    """Nested-loop reference implementation of :func:`full_outerjoin`."""
    _require_disjoint(left, right, "full_outerjoin")
    schema = _output_schema(left, right)
    left_padding = null_row(right.schema)
    right_padding = null_row(left.schema)
    out: Counter[Row] = Counter()
    matched_right: set[Row] = set()
    for r1, n1 in left.counts().items():
        matched = False
        for r2, n2 in right.counts().items():
            if satisfied(predicate.evaluate(PairView(r1, r2))):
                matched = True
                matched_right.add(r2)
                out[r1.concat(r2)] += n1 * n2
        if not matched:
            out[r1.concat(left_padding)] += n1
    for r2, n2 in right.counts().items():
        if r2 not in matched_right:
            out[right_padding.concat(r2)] += n2
    return Relation.from_counts(schema, out)


def antijoin(left: Relation, right: Relation, predicate: Predicate) -> Relation:
    """Antijoin ``AJ[p](R1, R2)`` = ``R1 ▷ R2``.

    ``{r1 ∈ R1 | no tuple of R2 satisfies p(r1, r2)}`` (Section 2.1).
    The output scheme is ``sch(R1)``.
    """
    _require_disjoint(left, right, "antijoin")
    out = kernels.hash_counts(left, right, predicate, "anti")
    return Relation.from_counts(left.schema, out)


def naive_antijoin(left: Relation, right: Relation, predicate: Predicate) -> Relation:
    """Nested-loop reference implementation of :func:`antijoin`."""
    _require_disjoint(left, right, "antijoin")
    out: Counter[Row] = Counter()
    # Materialize the probe side once; re-walking right.distinct_rows()
    # per left row was the suite's hottest loop.
    right_rows = tuple(right.distinct_rows())
    for r1, n1 in left.counts().items():
        if not _has_match(r1, right_rows, predicate):
            out[r1] += n1
    return Relation.from_counts(left.schema, out)


def semijoin(left: Relation, right: Relation, predicate: Predicate) -> Relation:
    """Semijoin: the tuples of ``R1`` that do have a match in ``R2``."""
    _require_disjoint(left, right, "semijoin")
    out = kernels.hash_counts(left, right, predicate, "semi")
    return Relation.from_counts(left.schema, out)


def naive_semijoin(left: Relation, right: Relation, predicate: Predicate) -> Relation:
    """Nested-loop reference implementation of :func:`semijoin`."""
    _require_disjoint(left, right, "semijoin")
    out: Counter[Row] = Counter()
    right_rows = tuple(right.distinct_rows())
    for r1, n1 in left.counts().items():
        if _has_match(r1, right_rows, predicate):
            out[r1] += n1
    return Relation.from_counts(left.schema, out)


def _has_match(r1: Row, right_rows: Iterable[Row], predicate: Predicate) -> bool:
    """Does any (pre-materialized) right row satisfy the predicate with r1?"""
    for r2 in right_rows:
        if satisfied(predicate.evaluate(PairView(r1, r2))):
            return True
    return False


def union_padded(left: Relation, right: Relation) -> Relation:
    """Union under the padding convention of Section 2.1.

    "For comparing or computing the union of relations X, Y, we first pad
    the tuples of each relation to scheme sch(X) ∪ sch(Y)."  Multiplicities
    add (bag union), which is what makes the expansions such as equation 10
    (``X → Y = X − Y ∪ X ▷ Y``) exact under duplicates.
    """
    schema = left.schema.union(right.schema)
    a = left.pad_to(schema)
    b = right.pad_to(schema)
    out: Counter[Row] = Counter(a.counts())
    for row, n in b.counts().items():
        out[row] += n
    return Relation.from_counts(schema, out)


def difference(left: Relation, right: Relation, bag: bool = False) -> Relation:
    """Difference of relations on the same scheme.

    ``bag=False`` (default) is set difference — the "−" of equation 14's
    ``π[S](R1) − π[S]JN(R1, R2)``: a row survives iff it never occurs in
    ``right``.  ``bag=True`` subtracts multiplicities.
    """
    if left.schema != right.schema:
        raise SchemaError(
            f"difference requires equal schemes, got {sorted(left.scheme)} "
            f"vs {sorted(right.scheme)}"
        )
    out: Counter[Row] = Counter()
    if bag:
        for row, n in left.counts().items():
            m = n - right.multiplicity(row)
            if m > 0:
                out[row] += m
    else:
        for row, n in left.counts().items():
            if right.multiplicity(row) == 0:
                out[row] += n
    return Relation.from_counts(left.schema, out)


_Binary = Callable[[Relation, Relation, Predicate], Relation]


@dataclass(frozen=True)
class OperatorTable:
    """The operators an expression tree evaluates with.

    The generalized outerjoin has no entry of its own: it takes its inner
    join from the table (:func:`repro.algebra.goj.generalized_outerjoin`).
    """

    join: _Binary
    outerjoin: _Binary
    full_outerjoin: _Binary
    antijoin: _Binary
    semijoin: _Binary
    restrict: Callable[[Relation, Predicate], Relation] = restrict
    project: Callable[..., Relation] = project
    union_padded: Callable[[Relation, Relation], Relation] = union_padded


#: The public operators: every join-like one runs the hash build/probe loop.
PUBLIC_OPS = OperatorTable(join, outerjoin, full_outerjoin, antijoin, semijoin)
#: The nested-loop transcription of the paper — the oracle the rest is checked against.
ORACLE_OPS = OperatorTable(
    naive_join, naive_outerjoin, naive_full_outerjoin, naive_antijoin, naive_semijoin
)
