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

The table is keyed by bitset masks (:mod:`repro.core.bitset`).  Each
unordered split of a subset into two connected halves is visited once
and asked for its operator once; its candidates are the operand orders
that operator allows (both for a join, the preserved side's for an
outerjoin), priced from the two numbers the cost models read.  The
winner is the minimum of ``(cost, left mask)``, and only the winner of
each subset gets a full estimate (distinct counts included).  One tree
is built, at the end.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.algebra.predicates import Predicate
from repro.core.expressions import Rel
from repro.core.graph import QueryGraph
from repro.observability.spans import maybe_span
from repro.optimizer.cost import CostModel
from repro.optimizer.plans import Plan
from repro.tools import instrumentation
from repro.util.errors import PlanningError


#: The same outerjoin with its operands swapped.
_FLIPPED = {"loj": "roj", "roj": "loj"}


class DPOptimizer:
    """Exact (cost-model-optimal) optimizer via DP over connected subsets."""

    def __init__(self, graph: QueryGraph, cost_model: CostModel):
        self.graph = graph
        self.cost_model = cost_model

    def optimize(self) -> Plan:
        """The cheapest implementing tree of the graph under the cost model."""
        if not self.graph.is_connected():
            raise PlanningError("cannot optimize a disconnected query graph")
        with maybe_span(
            "optimizer.dp", category="optimizer", relations=len(self.graph.nodes)
        ) as span:
            return self._optimize_table(self.cost_model.estimator, span)

    def _optimize_table(self, estimator, span=None) -> Plan:
        index = self.graph.bitset_index()
        names = index.nodes
        cost_model = self.cost_model
        combine_cost = cost_model.combine_cost
        cardinality = estimator.combine_cardinality
        cut_operator = index.cut_operator
        best: Dict[int, Plan] = {}
        # Ascending masks put every subset after all of its submasks.
        for mask in index.connected_subset_masks():
            low = mask & -mask
            if low == mask:
                name = names[low.bit_length() - 1]
                best[mask] = Plan(Rel(name), estimator.base(name), cost_model.leaf_cost(name))
                continue
            winner: Optional[Tuple[str, Plan, Plan, Predicate, Tuple[float, float]]] = None
            winner_cost = 0.0
            winner_left = 0
            # Each unordered split {s1, s2} once: s1 is the half that holds
            # the lowest bit, ``low`` plus a proper submask of the others.
            others = mask ^ low
            sub = 0
            while sub != others:
                s1 = low | sub
                s2 = mask ^ s1
                sub = (sub - others) & others
                # ``best`` holds only connected subsets, so a miss on either
                # half also covers the connectivity test.
                p1 = best.get(s1)
                if p1 is None:
                    continue
                p2 = best.get(s2)
                if p2 is None:
                    continue
                op = cut_operator(s1, s2)
                if op is None:
                    continue
                kind, predicate = op
                base = p1.cost + p2.cost
                if kind == "join":
                    # One estimate serves both operand orders.
                    sizes = cardinality("join", predicate, p1.estimate, p2.estimate)
                    candidates = [
                        (base + combine_cost(kind, predicate, p1, p2, *sizes), s1, kind, p1, p2),
                        (base + combine_cost(kind, predicate, p2, p1, *sizes), s2, kind, p2, p1),
                    ]
                else:
                    # The estimator and the cost model take the preserved
                    # side first, so ``loj`` with s1 on the left and ``roj``
                    # with s2 on the left cost the same: keep the written
                    # form whose left mask is smaller.
                    preserved, supplied = (p1, p2) if kind == "loj" else (p2, p1)
                    sizes = cardinality(
                        "left_outer", predicate, preserved.estimate, supplied.estimate
                    )
                    cost = base + combine_cost("left_outer", predicate, preserved, supplied, *sizes)
                    if s1 < s2:
                        candidates = [(cost, s1, kind, p1, p2)]
                    else:
                        candidates = [(cost, s2, _FLIPPED[kind], p2, p1)]
                for cost, left_mask, written, left, right in candidates:
                    if (
                        winner is None
                        or cost < winner_cost
                        or (cost == winner_cost and left_mask < winner_left)
                    ):
                        winner = (written, left, right, predicate, sizes)
                        winner_cost = cost
                        winner_left = left_mask
            if winner is not None:
                # Subsets with no combinable partition simply never become
                # building blocks (they implement nothing; e.g. part of an
                # outerjoin cycle).
                kind, left, right, predicate, sizes = winner
                # The full estimate is the same in either operand order.
                estimate = estimator.combine_estimate(left.estimate, right.estimate, *sizes)
                best[mask] = Plan.combined(kind, left, right, predicate, estimate, winner_cost)
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
