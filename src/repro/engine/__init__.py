"""Instrumented physical execution engine (Example 1's measurement bench)."""

from repro.engine.executor import ExecutionResult, execute, execute_plan, verify_against_algebra
from repro.engine.indexes import HashIndex
from repro.engine.iterators import (
    Filter,
    HashJoin,
    IndexNestedLoopJoin,
    PhysicalOp,
    ProjectOp,
    SeqScan,
)
from repro.engine.explain import ExplainNode, explain, explain_analyze
from repro.engine.goj_op import GeneralizedOuterJoinOp
from repro.engine.metrics import Metrics
from repro.engine.planner import Planner, split_equijoin
from repro.engine.storage import Storage, Table

__all__ = [
    "ExecutionResult",
    "ExplainNode",
    "Filter",
    "GeneralizedOuterJoinOp",
    "HashIndex",
    "HashJoin",
    "IndexNestedLoopJoin",
    "Metrics",
    "PhysicalOp",
    "Planner",
    "ProjectOp",
    "SeqScan",
    "Storage",
    "Table",
    "execute",
    "execute_plan",
    "explain",
    "explain_analyze",
    "split_equijoin",
    "verify_against_algebra",
]
