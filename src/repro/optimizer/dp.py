"""Dynamic-programming optimizer over join/outerjoin query graphs.

Section 6.1: "Optimizers already implement a query graph by generating
expression trees with different associations of the graph edges; now it
must fill in Join or else Outerjoin (preserving the operator direction).
There is no need to insert additional operators, or perform a subtle
analysis."  This DP does exactly that: it enumerates connected subgraphs,
combines them through cuts that support a single operator, and keeps the
cheapest plan per node set.  On a freely-reorderable (nice + strong) graph
every plan the DP can produce is an implementing tree and hence evaluates
to the query's one true result — correctness comes from Theorem 1, not
from optimizer-side case analysis.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from repro.core.expressions import Join, LeftOuterJoin, Rel, RightOuterJoin
from repro.core.graph import QueryGraph
from repro.observability.spans import maybe_span
from repro.optimizer.cost import CostModel
from repro.optimizer.plans import Plan
from repro.optimizer.subgraphs import combinable_pairs, connected_subsets
from repro.tools import instrumentation
from repro.util.errors import PlanningError

_KIND_TO_ESTIMATOR = {"join": "join", "loj": "left_outer", "roj": "left_outer"}


class DPOptimizer:
    """Exact (cost-model-optimal) optimizer via DP over connected subsets."""

    def __init__(self, graph: QueryGraph, cost_model: CostModel):
        self.graph = graph
        self.cost_model = cost_model

    def optimize(self) -> Plan:
        """The cheapest implementing tree of the graph under the cost model."""
        if not self.graph.is_connected():
            raise PlanningError("cannot optimize a disconnected query graph")
        estimator = self.cost_model.estimator
        with maybe_span(
            "optimizer.dp", category="optimizer", relations=len(self.graph.nodes)
        ) as span:
            with estimator.memo_scope(self.graph.bitset_index()):
                plan = self._optimize_table(estimator, span)
        instrumentation.bump("plans_optimized")
        return plan

    def _optimize_table(self, estimator, span=None) -> Plan:
        best: Dict[FrozenSet[str], Plan] = {}
        for subset in connected_subsets(self.graph):
            if len(subset) == 1:
                name = next(iter(subset))
                best[subset] = Plan(
                    Rel(name), estimator.base(name), self.cost_model.leaf_cost(name)
                )
                continue
            candidate: Optional[Plan] = None
            for side_a, side_b, kind, predicate in combinable_pairs(self.graph, subset):
                left = best.get(side_a)
                right = best.get(side_b)
                if left is None or right is None:
                    continue
                if kind == "join":
                    expr = Join(left.expr, right.expr, predicate)
                    est_left, est_right = left, right
                elif kind == "loj":
                    expr = LeftOuterJoin(left.expr, right.expr, predicate)
                    est_left, est_right = left, right
                else:  # "roj": the preserved side is side_b
                    expr = RightOuterJoin(left.expr, right.expr, predicate)
                    est_left, est_right = right, left
                estimate = estimator.combine(
                    _KIND_TO_ESTIMATOR[kind], predicate, est_left.estimate, est_right.estimate
                )
                extra = self.cost_model.combine_cost(
                    _KIND_TO_ESTIMATOR[kind], predicate, est_left, est_right, estimate
                )
                cost = left.cost + right.cost + extra
                if candidate is None or cost < candidate.cost:
                    candidate = Plan(expr, estimate, cost)
            if candidate is not None:
                # Subsets with no combinable partition simply never become
                # building blocks (they implement nothing; e.g. part of an
                # outerjoin cycle).
                best[subset] = candidate
        final = best.get(self.graph.nodes)
        if final is None:
            raise PlanningError(
                "the query graph has no implementing trees (no legal cut "
                "decomposition exists)"
            )
        instrumentation.bump("dp_subsets", len(best))
        if span is not None:
            span.counters["dp_subsets"] = len(best)
            span.set(cost=final.cost)
        return final


def optimize_graph(graph: QueryGraph, cost_model: CostModel) -> Plan:
    """Convenience wrapper around :class:`DPOptimizer`."""
    return DPOptimizer(graph, cost_model).optimize()
