"""Cost models for join/outerjoin plans.

Two models, matching the two ways the paper talks about cost:

* :class:`CoutCostModel` — the classic ``C_out``: the cost of a plan is
  the sum of the (estimated) cardinalities of all intermediate results.
  This is access-path agnostic and is the model used in the optimizer
  comparison benchmarks.

* :class:`RetrievalCostModel` — Example 1's currency: estimated *base
  tuples retrieved*, aware of access paths.  A base relation used as the
  inner of an equi-join with an index costs the expected number of
  matching probes instead of a full scan, which is exactly why
  ``(R1 − R2) → R3`` costs 3 retrievals while ``R1 − (R2 → R3)`` costs
  ``2·10^7 + 1``.

Both models are *monotone* in the DP sense (the cost of a plan only grows
when a subplan's cost grows), so dynamic programming over connected
subgraphs is safe with either.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.algebra.predicates import Predicate
from repro.algebra.schema import Schema
from repro.core.expressions import Expression, Rel, Restrict
from repro.engine.planner import split_equijoin
from repro.engine.storage import Storage
from repro.optimizer.cardinality import CardinalityEstimator, EstimateInfo
from repro.optimizer.plans import Plan


class CostModel:
    """Interface: incremental cost of combining two subplans."""

    def __init__(self, estimator: CardinalityEstimator):
        self.estimator = estimator

    def leaf_cost(self, name: str) -> float:
        raise NotImplementedError

    def combine_cost(
        self,
        kind: str,
        predicate: Predicate,
        left: Plan,
        right: Plan,
        cardinality: float,
        join_cardinality: float,
    ) -> float:
        """Extra cost the new operator adds on top of its children's costs.

        ``cardinality`` and ``join_cardinality`` are the operator's
        :meth:`~repro.optimizer.cardinality.CardinalityEstimator.combine_cardinality`:
        the models read those two numbers, never the output's distinct
        counts, so the DP prices a candidate before (and usually without)
        building its full estimate.
        """
        raise NotImplementedError

    def combine(
        self, kind: str, predicate: Predicate, left: Plan, right: Plan
    ) -> Tuple[EstimateInfo, float]:
        """The estimator's :meth:`~CardinalityEstimator.combine`
        of two subplans and the extra cost :meth:`combine_cost` charges."""
        estimate = self.estimator.combine(kind, predicate, left.estimate, right.estimate)
        assert estimate.join_cardinality is not None  # None only on leaves
        extra = self.combine_cost(
            kind, predicate, left, right, estimate.cardinality, estimate.join_cardinality
        )
        return estimate, extra

    def plan_cost(self, expr: Expression) -> float:
        """Cost an existing expression tree (baselines use this)."""
        from repro.core.expressions import (
            Join,
            LeftOuterJoin,
            RightOuterJoin,
        )
        from repro.core.wcoj_order import Leapfrog

        def walk(node: Expression) -> Plan:
            leaf = node.child if isinstance(node, Restrict) else node
            if isinstance(leaf, Rel):
                # A filtered leaf prices as its base, like the DP's leaves.
                est = self.estimator.estimate_expression(node)
                return Plan(leaf, est, self.leaf_cost(leaf.name))
            if isinstance(node, Leapfrog):
                return walk(node.child)
            if isinstance(node, Join):
                kind, left_node, right_node = "join", node.left, node.right
            elif isinstance(node, LeftOuterJoin):
                kind, left_node, right_node = "left_outer", node.left, node.right
            elif isinstance(node, RightOuterJoin):
                # Preserved side first, matching the estimator convention.
                kind, left_node, right_node = "left_outer", node.right, node.left
            else:
                raise ValueError(f"cannot cost {type(node).__name__}")
            left = walk(left_node)
            right = walk(right_node)
            est, extra = self.combine(kind, node.predicate, left, right)
            return Plan(node, est, left.cost + right.cost + extra)

        return walk(expr).cost


def agm_bound(
    hyperedges: Mapping[str, FrozenSet[str]],
    cardinalities: Mapping[str, float],
) -> float:
    """An AGM-style fractional-cover bound on the join output size.

    AGM (Atserias–Grohe–Marx) bounds the output of a full conjunctive
    query by ``Π |R|^{w_R}`` for any *fractional edge cover* ``w`` — any
    weighting of the relations with ``Σ_{R ∋ v} w_R ≥ 1`` for every
    variable ``v``.  We use the closed-form feasible cover
    ``w_R = max_{v ∈ R} 1/deg(v)`` (each variable ``v`` then collects at
    least ``deg(v) · 1/deg(v) = 1``), which is not always the *optimal*
    cover but is exact on the symmetric cyclic shapes the dispatch gate
    cares about: the triangle gets ``w ≡ 1/2`` and bound ``√(Π|R|)``,
    the k-clique ``w ≡ 1/(k-1)``.  An upper bound from a feasible cover
    is a sound gate either way — it can only overestimate, never let a
    too-optimistic WCOJ estimate through.
    """
    degree: dict = {}
    for vertices in hyperedges.values():
        for vertex in vertices:
            degree[vertex] = degree.get(vertex, 0) + 1
    bound = 1.0
    for name, vertices in hyperedges.items():
        if not vertices:
            continue
        weight = max(1.0 / degree[v] for v in vertices)
        bound *= max(cardinalities[name], 0.0) ** weight
    return bound


class CoutCostModel(CostModel):
    """Sum of intermediate-result cardinalities."""

    def leaf_cost(self, name: str) -> float:
        return 0.0

    def combine_cost(self, kind, predicate, left, right, cardinality, join_cardinality) -> float:
        return cardinality


class RetrievalCostModel(CostModel):
    """Estimated base tuples retrieved, mirroring the planner's access paths.

    Accounting (matches :mod:`repro.engine.iterators`):

    * a base relation consumed as an outer input or as a hash/NL join
      input is fully scanned — pay its cardinality once, when consumed;
    * a base relation consumed as the *inner* of an equi-join whose key is
      indexed pays only the expected matching tuples (the estimated join
      cardinality);
    * composite inputs were already paid for in their own subplans.

    Only the plans' ``base`` and cardinalities are read, never their
    trees: the DP calls this for every orientation of every legal cut.
    """

    def __init__(self, estimator: CardinalityEstimator, storage: Storage):
        super().__init__(estimator)
        self.storage = storage
        self._probe_keys: Dict[Tuple[Predicate, str], Optional[str]] = {}

    def leaf_cost(self, name: str) -> float:
        # Leaves cost nothing until they are consumed by an operator; the
        # access path decides the price.
        return 0.0

    @staticmethod
    def _scan_cost(plan: Plan) -> float:
        # A leaf's estimate is its (filtered) relation's size.
        return plan.cardinality if plan.base is not None else 0.0

    def _probe_key(self, predicate: Predicate, inner: str) -> Optional[str]:
        """The inner-side key of the equi-join conjunct the planner would
        probe ``inner`` with, or None.

        A cut predicate references only attributes of its two sides, and
        schemes are disjoint, so "on the outer side" is "not in the inner
        scheme": the outer side's tree is never needed.  The key depends
        on the predicate and the inner scheme only and is memoized on
        them; whether it is indexed is asked afresh on every call.
        """
        memo_key = (predicate, inner)
        try:
            return self._probe_keys[memo_key]
        except KeyError:
            pass
        schema = self.storage[inner].schema
        outer = Schema(predicate.attributes()).difference(schema)
        split = split_equijoin(predicate, outer, schema)
        key = split[1] if split is not None else None
        self._probe_keys[memo_key] = key
        return key

    def combine_cost(self, kind, predicate, left, right, cardinality, join_cardinality) -> float:
        join_card = min(cardinality, join_cardinality)
        # Outer (preserved/probe) side: base relations are scanned.
        cost = self._scan_cost(left)
        # Inner side: index probes if possible, scan otherwise.
        if right.base is not None:
            table = self.storage[right.base]
            key = self._probe_key(predicate, right.base)
            if key is not None and table.index_on(key) is not None:
                cost += max(join_card, 0.0)  # expected tuples fetched via the index
            else:
                cost += right.cardinality
        return cost
