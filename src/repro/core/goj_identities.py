"""Generalized-outerjoin reassociation — Section 6.2, identities 15 and 16.

The result-preserving basic transforms cannot reassociate Example 2's
``X → (Y − Z)``; the paper's escape hatch is the generalized outerjoin
(equation 14, :func:`repro.algebra.goj.generalized_outerjoin`).  Under the
assumptions the paper states — duplicate-free relations, strong predicates
of the forms ``P_xy`` and ``P_yz`` — the following identities hold:

* identity 15:  ``X OJ (Y JN Z)  =  (X OJ Y) GOJ[sch(X)] Z``
* identity 16:  ``X JN (Y GOJ[S] Z)  =  (X JN Y) GOJ[S ∪ sch(X)] Z``,
  provided ``S ⊆ sch(Y)`` and ``S`` contains all the X–Y join attributes.

Identity 15 read right-to-left is the reassociation Example 2 lacked: the
non-nice query ``X → (Y − Z)`` can be evaluated left-deep by paying for a
GOJ instead of a plain outerjoin.  :func:`reassociate_outerjoin_of_join`
packages that rewrite for optimizer use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.algebra.comparison import RelationDiff, explain_difference
from repro.algebra.goj import generalized_outerjoin
from repro.algebra.operators import PUBLIC_OPS, OperatorTable, join, outerjoin
from repro.algebra.predicates import Predicate
from repro.algebra.relation import Database, Relation
from repro.core.expressions import (
    Expression,
    GeneralizedOuterJoin,
    Join,
    LeftOuterJoin,
)
from repro.util.errors import NotApplicableError, PredicateError


@dataclass
class GojSetting:
    """Inputs for the GOJ identities: X, Y, Z plus linking predicates."""

    x: Relation
    y: Relation
    z: Relation
    pxy: Predicate
    pyz: Predicate

    def validate(self) -> None:
        """Enforce the paper's stated preconditions."""
        for name, rel in (("X", self.x), ("Y", self.y), ("Z", self.z)):
            if not rel.is_duplicate_free():
                raise PredicateError(f"GOJ identities assume duplicate-free relations; {name} is not")
        if not self.pxy.is_strong(self.pxy.attributes()):
            raise PredicateError("P_xy must be strong")
        if not self.pyz.is_strong(self.pyz.attributes()):
            raise PredicateError("P_yz must be strong")


def identity15_sides(s: GojSetting) -> Tuple[Relation, Relation]:
    """LHS and RHS of identity 15."""
    lhs = outerjoin(s.x, join(s.y, s.z, s.pyz), s.pxy)
    rhs = generalized_outerjoin(
        outerjoin(s.x, s.y, s.pxy), s.z, s.pyz, sorted(s.x.scheme)
    )
    return lhs, rhs


def check_identity15(s: GojSetting) -> Tuple[bool, RelationDiff]:
    s.validate()
    lhs, rhs = identity15_sides(s)
    diff = explain_difference(lhs, rhs)
    return diff.equal, diff


def identity16_sides(s: GojSetting, projection: List[str]) -> Tuple[Relation, Relation]:
    """LHS and RHS of identity 16 for a projection set ``S ⊆ sch(Y)``."""
    s_set = frozenset(projection)
    if not s_set <= s.y.scheme:
        raise PredicateError("identity 16 requires S ⊆ sch(Y)")
    xy_join_attrs = s.pxy.attributes() & s.y.scheme
    if not xy_join_attrs <= s_set:
        raise PredicateError("identity 16 requires S to contain all X-Y join attributes")
    lhs = join(s.x, generalized_outerjoin(s.y, s.z, s.pyz, sorted(s_set)), s.pxy)
    rhs = generalized_outerjoin(
        join(s.x, s.y, s.pxy), s.z, s.pyz, sorted(s_set | s.x.scheme)
    )
    return lhs, rhs


def check_identity16(s: GojSetting, projection: List[str]) -> Tuple[bool, RelationDiff]:
    s.validate()
    lhs, rhs = identity16_sides(s, projection)
    diff = explain_difference(lhs, rhs)
    return diff.equal, diff


# ---------------------------------------------------------------------------
# The rewrite that rescues Example 2
# ---------------------------------------------------------------------------


def reassociate_outerjoin_of_join(query: Expression) -> Expression:
    """Rewrite ``X → (Y − Z)`` into ``(X → Y) GOJ[sch-of-X] Z``.

    This is identity 15 right-to-left, applied at the root of an
    expression tree.  The resulting tree is left-deep — exactly the shape
    a pipelined executor wants — at the cost of one generalized outerjoin.
    The caller must guarantee the identity's preconditions (duplicate-free
    inputs, strong predicates); the GOJ projection set is the scheme of X,
    recorded symbolically as X's relation names' attributes at eval time.
    """
    if not isinstance(query, LeftOuterJoin):
        raise NotApplicableError("rewrite expects an outerjoin at the root")
    inner = query.right
    if not isinstance(inner, Join):
        raise NotApplicableError("rewrite expects a join as the null-supplied operand")
    x, y, z = query.left, inner.left, inner.right
    pxy, pyz = query.predicate, inner.predicate
    # The predicate of X → (Y−Z) must reference Y (not Z) for the rewrite
    # to leave a well-formed X → Y behind.
    return _DeferredGoj(LeftOuterJoin(x, y, pxy), z, pyz, x)


class _DeferredGoj(GeneralizedOuterJoin):
    """A GOJ node whose projection set is X's scheme, resolved at eval time.

    ``GeneralizedOuterJoin`` stores an attribute set; the rewrite knows
    only the *expression* X, whose scheme depends on the database.  This
    subclass defers the resolution.
    """

    __slots__ = ("projection_source",)

    def __init__(self, left, right, predicate, projection_source: Expression):
        super().__init__(left, right, predicate, frozenset())
        self.projection_source = projection_source

    def eval(self, db: Database, ops: OperatorTable = PUBLIC_OPS) -> Relation:
        attrs: set[str] = set()
        for name in self.projection_source.relations():
            attrs |= set(db[name].scheme)
        return generalized_outerjoin(
            self.left.eval(db, ops),
            self.right.eval(db, ops),
            self.predicate,
            sorted(attrs),
            join=ops.join,
        )

    def to_infix(self, show_predicates: bool = False) -> str:
        return (
            f"({self.left.to_infix(show_predicates)} "
            f"GOJ[sch({self.projection_source.to_infix()})] "
            f"{self.right.to_infix(show_predicates)})"
        )
