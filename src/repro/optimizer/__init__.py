"""Join/outerjoin optimizer: cardinality model, DP, greedy, and baselines."""

from repro.optimizer.baselines import OuterjoinBarrierOptimizer, fixed_order_plan
from repro.optimizer.cardinality import CardinalityEstimator, EstimateInfo
from repro.optimizer.cost import CostModel, CoutCostModel, RetrievalCostModel
from repro.optimizer.dp import DPOptimizer, optimize_graph
from repro.optimizer.fingerprint import graph_fingerprint, plan_cache_key, predicate_signature
from repro.optimizer.greedy import GreedyOptimizer, greedy_optimize
from repro.optimizer.pipeline import PipelineResult, optimize_and_run, optimize_query
from repro.optimizer.plancache import (
    CacheStats,
    PlanCache,
    default_plan_cache,
    reset_default_plan_cache,
)
from repro.optimizer.plans import Plan
from repro.optimizer.rewriter import RewriteOptimizer, RewriteResult
from repro.optimizer.subgraphs import combinable_pairs, connected_subsets, count_dp_entries

__all__ = [
    "CacheStats",
    "CardinalityEstimator",
    "CostModel",
    "CoutCostModel",
    "DPOptimizer",
    "EstimateInfo",
    "GreedyOptimizer",
    "OuterjoinBarrierOptimizer",
    "Plan",
    "PlanCache",
    "PipelineResult",
    "RewriteOptimizer",
    "RewriteResult",
    "RetrievalCostModel",
    "combinable_pairs",
    "connected_subsets",
    "count_dp_entries",
    "default_plan_cache",
    "fixed_order_plan",
    "graph_fingerprint",
    "greedy_optimize",
    "optimize_and_run",
    "optimize_graph",
    "optimize_query",
    "plan_cache_key",
    "predicate_signature",
    "reset_default_plan_cache",
]
