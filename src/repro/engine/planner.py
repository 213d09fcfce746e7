"""Translate logical expression trees into physical plans.

The planner respects the logical join order exactly — choosing a join
*order* is the optimizer's job (:mod:`repro.optimizer`); choosing access
methods is the planner's.  Per node it picks, in order of preference:

1. **Index nested-loop join** when the inner operand is a base table
   (bare, or under a pushed filter, which joins the residual) with a hash
   index on its side of an equi-join conjunct (Example 1's setup);
2. **Hash join** for any equi-join conjunct;
3. **Nested-loop join** otherwise (e.g. Example 1b's ``R1.A > R2.B``):
   the hash join with no key, whose residual is the whole predicate.

Outerjoins plan as left-preserved physical joins; a ``RightOuterJoin``
swaps operands first.  A ``FullOuterJoin`` plans as the ``full_outer``
hash or nested-loop join, whose probe loop ends with the unmatched build
rows, left-padded; it never takes the index nested loop, because an
index probe never sees the inner rows nothing matched.  Preserved-side
semantics never change — only the access path does.

The §6.2 generalized outerjoin plans as the modified hash join, or as a
keyless build (every right row a candidate, the whole predicate the
residual) when no equi conjunct exists.  The §2.1 padded ``Union`` plans
as :class:`~repro.engine.iterators.PaddedUnion`.  A
:class:`~repro.core.wcoj_order.Leapfrog` node plans as one Leapfrog
Triejoin over its leaves' (filtered) base scans.  So every operator the
algebra defines has a plan; :class:`PlanningError` means an expression
type the planner does not know.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.algebra.predicates import Comparison, AttrRef, Predicate, conjunction
from repro.algebra.schema import Schema
from repro.core.expressions import (
    Antijoin,
    Expression,
    FullOuterJoin,
    GeneralizedOuterJoin,
    Join,
    LeftOuterJoin,
    Project,
    Rel,
    Restrict,
    RightAntijoin,
    RightOuterJoin,
    Semijoin,
    Union,
)
from repro.core.pushdown import split_leaf_filters
from repro.core.wcoj_order import Leapfrog
from repro.engine import wcoj
from repro.engine.goj_op import GeneralizedOuterJoinOp
from repro.engine.iterators import (
    Filter,
    HashJoin,
    IndexNestedLoopJoin,
    PaddedUnion,
    PhysicalOp,
    ProjectOp,
    SeqScan,
)
from repro.engine.storage import Storage
from repro.util.errors import PlanningError


def split_equijoin(
    predicate: Predicate, left_schema: Schema, right_schema: Schema
) -> Optional[Tuple[str, str, Optional[Predicate]]]:
    """Find an equi-join conjunct ``left_attr = right_attr`` across the sides.

    Returns ``(left_key, right_key, residual_predicate)`` where the
    residual collects every other conjunct, or ``None`` when no usable
    equality conjunct exists.
    """
    equi: Optional[Tuple[str, str]] = None
    residual = []
    for conjunct in predicate.conjuncts():
        if (
            equi is None
            and isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, AttrRef)
            and isinstance(conjunct.right, AttrRef)
        ):
            a, b = conjunct.left.name, conjunct.right.name
            if a in left_schema and b in right_schema:
                equi = (a, b)
                continue
            if b in left_schema and a in right_schema:
                equi = (b, a)
                continue
        residual.append(conjunct)
    if equi is None:
        return None
    left_key, right_key = equi
    residual_pred = conjunction(residual) if residual else None
    return left_key, right_key, residual_pred


#: Logical operator -> (physical join_type, swap_operands).
_JOIN_KINDS = {
    Join: ("inner", False),
    LeftOuterJoin: ("left_outer", False),
    RightOuterJoin: ("left_outer", True),
    FullOuterJoin: ("full_outer", False),
    Antijoin: ("anti", False),
    RightAntijoin: ("anti", True),
    Semijoin: ("semi", False),
}


class Planner:
    """Physical planner over a :class:`Storage`.  Planning starts by reading
    the row count of each table the expression names, in name order: every
    operator of the plan reads those rows (the plan's snapshot)."""

    def __init__(self, storage: Storage):
        self.storage = storage

    def plan(self, expr: Expression) -> PhysicalOp:
        names = sorted({node.name for _path, node in expr.nodes() if isinstance(node, Rel)})
        self._counts = {name: self.storage[name].n for name in names}
        return self._plan(expr)

    def _plan(self, expr: Expression) -> PhysicalOp:
        if isinstance(expr, Rel):
            return SeqScan(self.storage[expr.name], self._counts[expr.name])
        if isinstance(expr, Restrict):
            return Filter(self._plan(expr.child), expr.predicate)
        if isinstance(expr, Project):
            return ProjectOp(self._plan(expr.child), expr.attributes, dedup=expr.dedup)
        if isinstance(expr, Union):
            return PaddedUnion(self._plan(expr.left), self._plan(expr.right))
        if isinstance(expr, Leapfrog):
            _core, filters = split_leaf_filters(expr.child)
            return wcoj.build_wcoj_plan(expr.spec, self.storage, filters, self._counts)
        if type(expr) is GeneralizedOuterJoin:
            return self._plan_goj(expr)
        kind = _JOIN_KINDS.get(type(expr))
        if kind is None:
            raise PlanningError(f"no physical plan for {type(expr).__name__}")
        join_type, swap = kind
        left_expr, right_expr = (expr.right, expr.left) if swap else (expr.left, expr.right)
        return self._plan_join(left_expr, right_expr, expr.predicate, join_type)

    def _plan_join(
        self,
        left_expr: Expression,
        right_expr: Expression,
        predicate: Predicate,
        join_type: str,
    ) -> PhysicalOp:
        left_plan = self._plan(left_expr)
        left_schema = left_plan.schema
        right_schema = self._schema_of(right_expr)
        split = split_equijoin(predicate, left_schema, right_schema)

        # Preference 1: index nested loop against an indexed base table,
        # whose pushed filter (if any) joins the residual.
        inner, inner_filter = right_expr, None
        if isinstance(inner, Restrict) and isinstance(inner.child, Rel):
            inner, inner_filter = inner.child, inner.predicate
        if split is not None and isinstance(inner, Rel) and join_type != "full_outer":
            left_key, right_key, residual = split
            table = self.storage[inner.name]
            index = table.index_on(right_key)
            if index is not None:
                if inner_filter is not None:
                    residual = conjunction(p for p in (residual, inner_filter) if p is not None)
                n = self._counts[inner.name]
                return IndexNestedLoopJoin(left_plan, table, index, left_key, residual, join_type, n)

        right_plan = self._plan(right_expr)
        # Preference 2: hash join on the equi-key.
        if split is not None:
            left_key, right_key, residual = split
            return HashJoin(left_plan, right_plan, left_key, right_key, residual, join_type)

        # Fallback: nested loops, a keyless build whose residual is the full predicate.
        return HashJoin(left_plan, right_plan, None, None, predicate, join_type)

    def _plan_goj(self, expr: GeneralizedOuterJoin) -> PhysicalOp:
        """Plan a generalized outerjoin via the modified hash join (keyless
        when no equi conjunct exists, as the nested-loop join is)."""
        left_plan = self._plan(expr.left)
        right_plan = self._plan(expr.right)
        split = split_equijoin(expr.predicate, left_plan.schema, right_plan.schema)
        left_key, right_key, residual = split or (None, None, expr.predicate)
        return GeneralizedOuterJoinOp(
            left_plan, right_plan, left_key, right_key, sorted(expr.projection), residual
        )

    def _schema_of(self, expr: Expression) -> Schema:
        if isinstance(expr, Rel):
            return self.storage[expr.name].schema
        return expr.scheme(self.storage.registry)
