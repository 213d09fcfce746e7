"""The generalized outerjoin (GOJ) of Section 6.2.

Equation 14 of the paper (with π denoting duplicate-removing projection,
``−`` set difference, and ``×`` Cartesian product with the null tuple):

    GOJ[S](R1, R2) = JN(R1, R2)
                   ∪ (π[S](R1) − π[S] JN(R1, R2)) × null_{sch(R1)∪sch(R2)−S}

GOJ keeps every join result plus, for each ``S``-projection of ``R1`` that
found no match at all, one null-padded witness.  It refines Dayal's
Generalized-Join by omitting unmatched ``R1`` tuples whose S-projection
*did* appear in the join.  GOJ generalizes both join and outerjoin:

* ``S = sch(R1)`` on duplicate-free input reproduces the outerjoin;
* an ``S`` for which every projection is matched reproduces the join.

The operator exists to reassociate queries that fall *outside* the freely
reorderable class, e.g. Example 2's ``X → (Y − Z)``; see
:mod:`repro.core.goj_identities` for identities 15 and 16.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable

from repro.algebra.operators import join
from repro.algebra.predicates import Predicate
from repro.algebra.relation import Relation
from repro.algebra.schema import Schema
from repro.algebra.tuples import Row, null_row
from repro.util.errors import SchemaError


def generalized_outerjoin(
    left: Relation,
    right: Relation,
    predicate: Predicate,
    projection: Iterable[str],
    join: Callable[[Relation, Relation, Predicate], Relation] = join,
) -> Relation:
    """``GOJ[S](R1, R2)`` per equation 14.

    ``projection`` is the attribute set ``S``; it must be contained in
    ``sch(R1)``.  ``join`` computes ``JN(R1, R2)``: the public join by
    default, the nested loop when the oracle's operator table evaluates.
    """
    s_attrs = list(projection)
    s_schema = Schema(s_attrs)
    if not s_schema.is_subset(left.schema):
        extra = s_schema.difference(left.schema)
        raise SchemaError(
            f"GOJ projection attributes must lie in sch(R1); stray: {sorted(extra.attributes)}"
        )
    left.schema.require_disjoint(right.schema, context="generalized_outerjoin")

    out_schema = left.schema.union(right.schema)
    joined = join(left, right, predicate)

    # π[S](R1) and π[S](JN): duplicate-removing projections (sets).
    left_projections = {row.project(s_attrs) for row in left.distinct_rows()}
    matched_projections = {row.project(s_attrs) for row in joined.distinct_rows()}

    out: Counter[Row] = Counter(joined.counts())
    padding = null_row(out_schema.difference(s_schema))
    for proj in left_projections - matched_projections:
        out[proj.concat(padding)] += 1
    return Relation.from_counts(out_schema, out)
