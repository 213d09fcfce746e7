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

from typing import Dict, Optional, Tuple

from repro.algebra.predicates import Predicate
from repro.core.expressions import Rel
from repro.core.graph import QueryGraph
from repro.observability.spans import maybe_span
from repro.optimizer.cardinality import EstimateInfo
from repro.optimizer.cost import CostModel
from repro.optimizer.plans import Plan
from repro.tools import instrumentation
from repro.util.errors import PlanningError


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
        index = self.graph.bitset_index()
        names = index.nodes
        cost_model = self.cost_model
        cut_operator = index.cut_operator
        best: Dict[int, Plan] = {}
        # Ascending masks put every subset after all of its submasks.
        for mask in index.connected_subset_masks():
            if mask & (mask - 1) == 0:
                name = names[mask.bit_length() - 1]
                best[mask] = Plan(Rel(name), estimator.base(name), cost_model.leaf_cost(name))
                continue
            winner: Optional[Tuple[str, Plan, Plan, Predicate, EstimateInfo]] = None
            winner_cost = 0.0
            sub = mask & -mask  # ascending submasks: the tie-break order
            while sub != mask:
                rest = mask ^ sub
                # ``best`` holds only connected subsets, so a miss on either
                # half also covers the connectivity test.
                left = best.get(sub)
                right = best.get(rest)
                if left is not None and right is not None:
                    op = cut_operator(sub, rest)
                    if op is not None:
                        kind, predicate = op
                        if kind == "join":
                            est_kind, est_left, est_right = "join", left, right
                        elif kind == "loj":
                            est_kind, est_left, est_right = "left_outer", left, right
                        else:  # "roj": the preserved side is ``rest``
                            est_kind, est_left, est_right = "left_outer", right, left
                        estimate = estimator.combine(
                            est_kind, predicate, est_left.estimate, est_right.estimate
                        )
                        extra = cost_model.combine_cost(
                            est_kind, predicate, est_left, est_right, estimate
                        )
                        cost = left.cost + right.cost + extra
                        if winner is None or cost < winner_cost:
                            winner = (kind, left, right, predicate, estimate)
                            winner_cost = cost
                sub = (sub - mask) & mask
            if winner is not None:
                # Subsets with no combinable partition simply never become
                # building blocks (they implement nothing; e.g. part of an
                # outerjoin cycle).
                best[mask] = Plan.combined(*winner, winner_cost)
        final = best.get(index.all_mask)
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
