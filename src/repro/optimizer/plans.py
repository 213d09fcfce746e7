"""Optimizer plan records."""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from repro.algebra.predicates import Predicate
from repro.core.expressions import Expression, Join, LeftOuterJoin, Rel, RightOuterJoin
from repro.optimizer.cardinality import EstimateInfo

#: Cut kind -> the operator implementing it (operands in cut order).
_OPERATORS = {"join": Join, "loj": LeftOuterJoin, "roj": RightOuterJoin}


class Plan:
    """A costed (sub)plan: the expression, its estimate, accumulated cost.

    A plan made by :meth:`combined` holds backpointers to its two
    subplans instead of a tree, and builds its expression on the first
    access to :attr:`expr`.  The DP costs every legal cut of every
    subset but needs the tree of one plan only, the one it returns.
    """

    __slots__ = ("_expr", "_parts", "estimate", "cost", "base")

    def __init__(self, expr: Expression, estimate: EstimateInfo, cost: float):
        self._expr: Optional[Expression] = expr
        self._parts: Optional[Tuple[str, Plan, Plan, Predicate]] = None
        self.estimate = estimate
        self.cost = cost
        #: The relation name when the plan is a bare leaf, else None.
        self.base: Optional[str] = expr.name if isinstance(expr, Rel) else None

    @classmethod
    def combined(
        cls,
        kind: str,
        left: Plan,
        right: Plan,
        predicate: Predicate,
        estimate: EstimateInfo,
        cost: float,
    ) -> Plan:
        """``left <kind> right`` (``"join"``/``"loj"``/``"roj"``), tree deferred."""
        plan = cls.__new__(cls)
        plan._expr = None
        plan._parts = (kind, left, right, predicate)
        plan.estimate = estimate
        plan.cost = cost
        plan.base = None
        return plan

    @property
    def expr(self) -> Expression:
        if self._expr is None:
            assert self._parts is not None
            kind, left, right, predicate = self._parts
            self._expr = _OPERATORS[kind](left.expr, right.expr, predicate)
        return self._expr

    @property
    def nodes(self) -> FrozenSet[str]:
        return self.estimate.nodes

    @property
    def cardinality(self) -> float:
        return self.estimate.cardinality

    def __str__(self) -> str:
        return (
            f"{self.expr.to_infix()}  "
            f"(cost={self.cost:.1f}, est. rows={self.cardinality:.1f})"
        )
