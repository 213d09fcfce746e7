"""A greedy join/outerjoin ordering heuristic.

The classic alternative to exact DP: repeatedly merge the pair of
connected components whose combination is cheapest, until one component
(the full plan) remains.  Uses the same cut-legality rule as the DP, so on
nice graphs every plan it emits is an implementing tree.  Greedy is
included as the scalability baseline in the optimizer benchmarks: it
explores O(n^3) combinations instead of the DP's exponential table, at the
price of missing the optimum on adversarial cardinalities.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.enumeration import root_operator
from repro.core.expressions import Rel
from repro.core.graph import QueryGraph
from repro.optimizer.cost import CostModel
from repro.optimizer.plans import Plan
from repro.tools import instrumentation
from repro.util.errors import PlanningError

_KIND_TO_ESTIMATOR = {"join": "join", "loj": "left_outer", "roj": "left_outer"}


class GreedyOptimizer:
    """Cheapest-merge-first planning over the query graph."""

    def __init__(self, graph: QueryGraph, cost_model: CostModel):
        self.graph = graph
        self.cost_model = cost_model

    def _combine(
        self, a: Plan, b: Plan
    ) -> Optional[Plan]:
        """The cheaper of the two orientations of merging components a, b."""
        best: Optional[Plan] = None
        for left, right in ((a, b), (b, a)):
            op = root_operator(self.graph, left.nodes, right.nodes)
            if op is None:
                continue
            kind, predicate = op
            # The estimator takes the preserved side first.
            est_left, est_right = (right, left) if kind == "roj" else (left, right)
            estimate, extra = self.cost_model.combine(
                _KIND_TO_ESTIMATOR[kind], predicate, est_left, est_right
            )
            plan = Plan.combined(
                kind, left, right, predicate, estimate, left.cost + right.cost + extra
            )
            if best is None or plan.cost < best.cost:
                best = plan
        return best

    def optimize(self) -> Plan:
        if not self.graph.is_connected():
            raise PlanningError("cannot optimize a disconnected query graph")
        estimator = self.cost_model.estimator
        components: Dict[FrozenSet[str], Plan] = {
            frozenset({n}): Plan(Rel(n), estimator.base(n), self.cost_model.leaf_cost(n))
            for n in self.graph.nodes
        }
        while len(components) > 1:
            keys: List[FrozenSet[str]] = list(components)
            best_merge: Optional[Tuple[FrozenSet[str], FrozenSet[str], Plan]] = None
            for i in range(len(keys)):
                for j in range(i + 1, len(keys)):
                    merged = self._combine(components[keys[i]], components[keys[j]])
                    if merged is None:
                        continue
                    if best_merge is None or merged.cost < best_merge[2].cost:
                        best_merge = (keys[i], keys[j], merged)
            if best_merge is None:
                raise PlanningError(
                    "greedy merge is stuck: no pair of components is combinable "
                    "(the graph has no implementing trees)"
                )
            ka, kb, plan = best_merge
            del components[ka], components[kb]
            components[plan.nodes] = plan
        instrumentation.bump("plans_optimized")
        return next(iter(components.values()))


def greedy_optimize(graph: QueryGraph, cost_model: CostModel) -> Plan:
    return GreedyOptimizer(graph, cost_model).optimize()
