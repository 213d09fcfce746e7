"""Cardinality estimation for join/outerjoin plans.

A System-R-style estimator: equi-join selectivity ``1 / max(V(a), V(b))``
over distinct counts, constant selectivities for inequalities and opaque
predicates, with distinct counts propagated (capped by output cardinality)
through intermediate results.  Outerjoins estimate as
``max(join_cardinality, |preserved|)`` — the preserved side never shrinks,
which is precisely the property that makes outerjoin placement matter so
much for cost (Example 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.algebra.nulls import NULL
from repro.algebra.predicates import AttrRef, Comparison, Predicate, conjunction
from repro.core.expressions import Expression
from repro.engine.batch.kernels import compile_filter
from repro.engine.storage import Storage

#: Default selectivity for non-equality comparisons (System R's 1/3).
INEQUALITY_SELECTIVITY = 1.0 / 3.0
#: Default selectivity for predicates the estimator cannot analyze.
OPAQUE_SELECTIVITY = 0.2


@dataclass
class EstimateInfo:
    """Cardinality summary of a (sub)plan.

    ``join_cardinality`` is ``|L|·|R|·sel`` of the operator that produced
    the estimate (before outerjoin padding), which the retrieval cost
    model prices index probes with; None for leaves.
    """

    nodes: FrozenSet[str]
    cardinality: float
    distinct: Dict[str, float] = field(default_factory=dict)
    join_cardinality: Optional[float] = None

    def distinct_of(self, attribute: str) -> float:
        return max(1.0, min(self.distinct.get(attribute, self.cardinality), self.cardinality))


class CardinalityEstimator:
    """Estimates over the statistics of a :class:`Storage`'s live tables.

    ``filters`` maps a relation to the conjuncts pushed onto its leaf
    (the pipeline's leaf filters).  A leaf without one reads its table's
    cached :meth:`~repro.engine.storage.Table.stats`; a filtered leaf is
    counted once per estimator from the rows that satisfy its filter, and
    is never cached on the table, because filters are query-specific.

    Only the filtered leaves are kept.  The DP calls the two steps of
    :meth:`combine` itself and asks for each split's numbers once and for
    each subset's full estimate once; greedy and the cyclic cost gate
    recompute the few estimates they repeat.
    """

    def __init__(
        self, storage: Storage, filters: Optional[Mapping[str, List[Predicate]]] = None
    ):
        self.storage = storage
        self.filters = filters or {}
        self._filtered: Dict[str, EstimateInfo] = {}

    def base(self, name: str) -> EstimateInfo:
        info = self._filtered.get(name)
        if info is None:
            preds = self.filters.get(name)
            if preds:
                info = self._filtered[name] = self.filtered(name, preds)
            else:
                table = self.storage[name]
                info = self._leaf(name, len(table), table.stats())
        return info

    def filtered(self, name: str, preds: List[Predicate]) -> EstimateInfo:
        """The leaf ``name`` under the conjuncts ``preds``, counted from the
        rows that satisfy them (not memoized), as selected by the engine's
        own filter kernel: a predicate reads the same here as in a plan."""
        table = self.storage[name]
        batch = table.batch(0, table.n)
        selected = compile_filter(conjunction(preds)).apply(batch)
        distinct = {a: len({c[i] for i in selected} - {NULL}) for a, c in batch.columns.items()}
        return self._leaf(name, len(selected), distinct)

    @staticmethod
    def _leaf(name: str, rows: int, distinct: Dict[str, int]) -> EstimateInfo:
        return EstimateInfo(
            nodes=frozenset({name}),
            cardinality=float(rows),
            distinct={attr: float(max(1, n)) for attr, n in distinct.items()},
        )

    # -- selectivities -----------------------------------------------------------

    def conjunct_selectivity(
        self, conjunct: Predicate, left: EstimateInfo, right: EstimateInfo
    ) -> float:
        if isinstance(conjunct, Comparison) and isinstance(conjunct.left, AttrRef) and isinstance(
            conjunct.right, AttrRef
        ):
            a, b = conjunct.left.name, conjunct.right.name
            side_of_a = left if a in left.distinct else right
            side_of_b = left if b in left.distinct else right
            if conjunct.op == "=":
                return 1.0 / max(side_of_a.distinct_of(a), side_of_b.distinct_of(b))
            return INEQUALITY_SELECTIVITY
        return OPAQUE_SELECTIVITY

    def join_selectivity(
        self, predicate: Predicate, left: EstimateInfo, right: EstimateInfo
    ) -> float:
        selectivity = 1.0
        for conjunct in predicate.conjuncts():
            selectivity *= self.conjunct_selectivity(conjunct, left, right)
        return selectivity

    # -- operator estimates ---------------------------------------------------------

    def combine(
        self, kind: str, predicate: Predicate, left: EstimateInfo, right: EstimateInfo
    ) -> EstimateInfo:
        """Estimate the output of a join-like operator.

        ``kind`` is one of ``"join"``, ``"left_outer"`` (left side
        preserved), ``"semi"``, ``"anti"``.  The composition of
        :meth:`combine_cardinality` and :meth:`combine_estimate`.
        """
        return self.combine_estimate(
            left, right, *self.combine_cardinality(kind, predicate, left, right)
        )

    def combine_cardinality(
        self, kind: str, predicate: Predicate, left: EstimateInfo, right: EstimateInfo
    ) -> Tuple[float, float]:
        """``(cardinality, join_cardinality)`` of a join-like operator, the
        two numbers the cost models read (``kind`` as in :meth:`combine`).

        A join's pair is the same in both operand orders: the selectivity
        takes a max over the two sides and the product commutes.
        """
        selectivity = self.join_selectivity(predicate, left, right)
        join_card = left.cardinality * right.cardinality * selectivity
        if kind == "join":
            card = join_card
        elif kind == "left_outer":
            card = max(join_card, left.cardinality)
        elif kind == "semi":
            card = left.cardinality * min(1.0, right.cardinality * selectivity)
        elif kind == "anti":
            card = left.cardinality * max(0.0, 1.0 - right.cardinality * selectivity)
        else:
            raise ValueError(f"unknown operator kind {kind!r}")
        return max(card, 0.0), join_card

    @staticmethod
    def combine_estimate(
        left: EstimateInfo, right: EstimateInfo, cardinality: float, join_cardinality: float
    ) -> EstimateInfo:
        """The full estimate of an operator over ``left`` and ``right`` whose
        :meth:`combine_cardinality` is ``(cardinality, join_cardinality)``:
        every distinct count of both sides, capped by the output."""
        cap = max(cardinality, 1.0)
        distinct = {attr: min(v, cap) for attr, v in left.distinct.items()}
        for attr, v in right.distinct.items():
            distinct[attr] = min(v, cap)
        return EstimateInfo(
            nodes=left.nodes | right.nodes,
            cardinality=cardinality,
            distinct=distinct,
            join_cardinality=join_cardinality,
        )

    def estimate_expression(self, expr: Expression) -> EstimateInfo:
        """Estimate any join/outerjoin expression tree bottom-up; its
        leaves are relations, bare or under their pushed filter."""
        from repro.core.expressions import (
            Antijoin,
            Join,
            LeftOuterJoin,
            Rel,
            Restrict,
            RightAntijoin,
            RightOuterJoin,
            Semijoin,
        )
        from repro.core.wcoj_order import Leapfrog

        if isinstance(expr, Rel):
            return self.base(expr.name)
        if isinstance(expr, Restrict) and isinstance(expr.child, Rel):
            # A chosen tree's filtered leaf: the base the optimizer counts.
            return self.filtered(expr.child.name, list(expr.predicate.conjuncts()))
        if isinstance(expr, Leapfrog):
            return self.estimate_expression(expr.child)
        if isinstance(expr, Join):
            return self.combine(
                "join",
                expr.predicate,
                self.estimate_expression(expr.left),
                self.estimate_expression(expr.right),
            )
        if isinstance(expr, LeftOuterJoin):
            return self.combine(
                "left_outer",
                expr.predicate,
                self.estimate_expression(expr.left),
                self.estimate_expression(expr.right),
            )
        if isinstance(expr, RightOuterJoin):
            return self.combine(
                "left_outer",
                expr.predicate,
                self.estimate_expression(expr.right),
                self.estimate_expression(expr.left),
            )
        if isinstance(expr, Semijoin):
            return self.combine(
                "semi",
                expr.predicate,
                self.estimate_expression(expr.left),
                self.estimate_expression(expr.right),
            )
        if isinstance(expr, (Antijoin, RightAntijoin)):
            left, right = (
                (expr.left, expr.right) if isinstance(expr, Antijoin) else (expr.right, expr.left)
            )
            return self.combine(
                "anti",
                expr.predicate,
                self.estimate_expression(left),
                self.estimate_expression(right),
            )
        raise ValueError(f"cannot estimate {type(expr).__name__}")
