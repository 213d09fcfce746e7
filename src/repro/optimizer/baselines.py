"""Baseline strategies: what an optimizer does *without* Theorem 1.

The paper's motivation (Sections 1.1, 6.1) is that a conventional
optimizer, lacking the free-reorderability analysis, must treat outerjoins
as barriers: joins may be reordered within outerjoin-free regions, but no
operator may cross an outerjoin.  Two baselines capture the spectrum:

* :func:`fixed_order_plan` — execute the query exactly as written (no
  reordering at all);
* :class:`OuterjoinBarrierOptimizer` — reorder joins freely *inside* each
  maximal join-only region, but keep every outerjoin where the original
  tree put it (its operands are optimized recursively as black boxes).

The optimizer-comparison benchmark pits these against the DP of
:mod:`repro.optimizer.dp`, which reorders across outerjoins because
Theorem 1 says it may.
"""

from __future__ import annotations

from typing import List

from repro.core.expressions import (
    Expression,
    Join,
    LeftOuterJoin,
    Rel,
    RightOuterJoin,
)
from repro.optimizer.cost import CostModel
from repro.optimizer.dp import DPOptimizer
from repro.optimizer.plans import Plan


def fixed_order_plan(expr: Expression, cost_model: CostModel) -> Plan:
    """Cost the tree exactly as written."""
    estimator = cost_model.estimator
    return Plan(expr, estimator.estimate_expression(expr), cost_model.plan_cost(expr))


class OuterjoinBarrierOptimizer:
    """Join-only reordering with outerjoins pinned in place.

    Every maximal join-connected cluster of operands is re-optimized with
    the DP (joins only); outerjoin nodes keep their position and
    direction, their operands being optimized recursively.  This emulates
    a pre-Theorem-1 optimizer faithfully: it *is* allowed to reorder
    joins, it just refuses to move anything past an outerjoin.
    """

    def __init__(self, registry, cost_model: CostModel):
        self.registry = registry
        self.cost_model = cost_model

    def optimize(self, expr: Expression) -> Plan:
        optimized = self._optimize_expr(expr)
        return fixed_order_plan(optimized, self.cost_model)

    def _optimize_expr(self, expr: Expression) -> Expression:
        if isinstance(expr, Rel):
            return expr
        if isinstance(expr, (LeftOuterJoin, RightOuterJoin)):
            # The outerjoin is a barrier: recurse into both operands but
            # keep the operator itself fixed.
            return expr.with_parts(
                self._optimize_expr(expr.left), self._optimize_expr(expr.right)
            )
        if isinstance(expr, Join):
            # Collect the maximal join-connected cluster rooted here.
            operands = self._join_cluster_operands(expr)
            optimized_operands = [self._optimize_expr(op) for op in operands]
            return self._reorder_cluster(expr, optimized_operands)
        raise ValueError(f"baseline cannot optimize {type(expr).__name__}")

    def _join_cluster_operands(self, expr: Expression) -> List[Expression]:
        """Flatten a maximal tree of Join nodes into its operand list."""
        if isinstance(expr, Join):
            return self._join_cluster_operands(expr.left) + self._join_cluster_operands(
                expr.right
            )
        return [expr]

    def _reorder_cluster(self, cluster_root: Join, operands: List[Expression]) -> Expression:
        """DP-reorder one join cluster, treating operands as pseudo-tables.

        The operand expressions become temporary "relations" whose schemes
        are their output schemes; the cluster's join conjuncts connect
        them.  Running the shared DP on this operand-level graph reorders
        joins without ever crossing an outerjoin boundary.
        """
        if len(operands) <= 1:
            return operands[0]
        # Map each operand to a placeholder name, build the operand graph.
        placeholder: dict[str, Expression] = {}
        rel_to_placeholder: dict[str, str] = {}
        for i, op in enumerate(operands):
            name = f"__cluster{i}"
            placeholder[name] = op
            for rel_name in op.relations():
                rel_to_placeholder[rel_name] = name

        # Rebuild the cluster's conjuncts against placeholders.
        conjuncts = self._cluster_conjuncts(cluster_root, set(id(o) for o in operands))
        from repro.core.graph import QueryGraph

        join_triples = []
        for conjunct in conjuncts:
            owners = sorted(self.registry.owners(conjunct.attributes()))
            pa = rel_to_placeholder[owners[0]]
            pb = rel_to_placeholder[owners[1]]
            if pa == pb:
                # A conjunct internal to one operand: leave it to recursion.
                continue
            join_triples.append((pa, pb, conjunct))
        graph = QueryGraph.from_edges(join=join_triples, isolated=list(placeholder))
        if not graph.is_connected():
            # Cross-operand predicates do not connect everything (can happen
            # when an operand pair only relates through an outerjoin deeper
            # down); fall back to the written order.
            return cluster_root

        cluster_model = _PlaceholderCostModel(self.cost_model, placeholder, self.registry)
        plan = DPOptimizer(graph, cluster_model).optimize()
        return _substitute_placeholders(plan.expr, placeholder)

    def _cluster_conjuncts(self, expr: Expression, operand_ids) -> List:
        if id(expr) in operand_ids or not isinstance(expr, Join):
            return []
        return (
            list(expr.predicate.conjuncts())
            + self._cluster_conjuncts(expr.left, operand_ids)
            + self._cluster_conjuncts(expr.right, operand_ids)
        )


def _substitute_placeholders(expr: Expression, placeholder) -> Expression:
    if isinstance(expr, Rel):
        return placeholder.get(expr.name, expr)
    return expr.with_parts(
        _substitute_placeholders(expr.left, placeholder),
        _substitute_placeholders(expr.right, placeholder),
    )


class _PlaceholderCostModel(CostModel):
    """Adapts the real cost model to operand placeholders.

    A placeholder's base estimate is the estimate of the expression it
    stands for; combination costs delegate to the wrapped model.
    """

    def __init__(self, inner: CostModel, placeholder, registry):
        self.inner = inner
        self.placeholder = placeholder
        self.registry = registry
        self.estimator = _PlaceholderEstimator(inner.estimator, placeholder)

    def leaf_cost(self, name: str) -> float:
        expr = self.placeholder[name]
        return self.inner.plan_cost(expr) if not isinstance(expr, Rel) else self.inner.leaf_cost(expr.name)

    def _resolve(self, plan: Plan) -> Plan:
        """Swap placeholder leaves back for their real expressions so the
        wrapped model can reason about access paths."""
        expr = _substitute_placeholders(plan.expr, self.placeholder)
        if expr is plan.expr:
            return plan
        return Plan(expr, plan.estimate, plan.cost)

    def combine_cost(self, kind, predicate, left, right, cardinality, join_cardinality) -> float:
        left, right = self._resolve(left), self._resolve(right)
        return self.inner.combine_cost(kind, predicate, left, right, cardinality, join_cardinality)


class _PlaceholderEstimator:
    """Estimator view where each placeholder reports its expression's stats.

    Everything but :meth:`base` (``combine`` and its two steps,
    ``estimate_expression``) is the wrapped estimator's own.
    """

    def __init__(self, inner, placeholder):
        self.inner = inner
        self.placeholder = placeholder

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def base(self, name: str):
        expr = self.placeholder[name]
        est = self.inner.estimate_expression(expr)
        # Re-key to the placeholder name so the DP's node bookkeeping works.
        return type(est)(
            nodes=frozenset({name}), cardinality=est.cardinality, distinct=dict(est.distinct)
        )

