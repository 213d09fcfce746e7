"""EXPLAIN / EXPLAIN ANALYZE for physical plans.

``explain`` annotates every operator of a plan with the optimizer's
cardinality estimate; with ``analyze=True`` (or via ``explain_analyze``)
the plan is *executed under a forced tracer* and every operator is
additionally annotated with what actually happened: rows out, wall time,
hash-build timings, index probe hits, materialized row counts, and
the planner's dispatch decision (hash, index or nested-loop join).
This is the estimate-vs-actual view DBAs use to debug optimizer choices — and it is
how this reproduction shows, per operator, where Example 1's tuple
accounting comes from.

EXPLAIN ANALYZE always traces (an explicit request for actuals overrides
``REPRO_TRACE=0``); plain query execution honours the environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.iterators import PhysicalOp, SeqScan
from repro.engine.storage import Storage
from repro.observability.contract import memory_high_water
from repro.observability.spans import Span, tracing

#: How the planner's operator choice reads in dispatch terms, by the head
#: of the operator's label (a keyless ``HashJoin`` labels itself
#: ``NestedLoopJoin[...]``).
_DISPATCH = {
    "HashJoin": "hash-kernel",
    "IndexNLJ": "index-kernel",
    "GeneralizedOuterJoin": "goj-hash-kernel",
    "NestedLoopJoin": "naive-nested-loop",
    "Yannakakis": "semijoin-reducer",
    "LeapfrogTriejoin": "leapfrog-triejoin",
}

#: Per-operator span counters surfaced in the rendered tree, in order.
#: ``batches_out`` is the number of non-empty column batches an operator
#: emitted (absent on an operator that emitted none).
_DETAIL_COUNTERS = (
    "index_probes",
    "index_hits",
    "build_buckets",
    "mem_rows",
    "batches_out",
    "reducer_passes",
    "reducer_dropped",
    "trie_builds",
    "wcoj_seeks",
    "wcoj_ties",
)


@dataclass
class ExplainNode:
    """One operator's line in the EXPLAIN output."""

    label: str
    estimated_rows: Optional[float]
    actual_rows: Optional[int]
    children: List["ExplainNode"] = field(default_factory=list)
    #: Wall time of the operator (EXPLAIN ANALYZE only).
    time_ms: Optional[float] = None
    #: Extra per-operator facts: dispatch decision, build time, index hits...
    details: Dict[str, object] = field(default_factory=dict)

    def render(self, indent: int = 0) -> str:
        parts = [self.label]
        if self.estimated_rows is not None:
            parts.append(f"est={self.estimated_rows:.1f}")
        if self.actual_rows is not None:
            parts.append(f"actual={self.actual_rows}")
        if self.time_ms is not None:
            parts.append(f"time={self.time_ms:.3f}ms")
        for key, value in self.details.items():
            parts.append(f"{key}={value}")
        line = " " * indent + "-> " + "  ".join(parts)
        return "\n".join([line] + [c.render(indent + 3) for c in self.children])

    def worst_q_error(self) -> float:
        """Largest estimate/actual discrepancy anywhere in the subtree."""
        worst = 1.0
        if self.estimated_rows is not None and self.actual_rows is not None:
            est = max(self.estimated_rows, 1.0)
            act = max(float(self.actual_rows), 1.0)
            worst = max(est / act, act / est)
        for child in self.children:
            worst = max(worst, child.worst_q_error())
        return worst

    def find(self, fragment: str) -> Optional["ExplainNode"]:
        """First node (pre-order) whose label contains ``fragment``."""
        if fragment in self.label:
            return self
        for child in self.children:
            hit = child.find(fragment)
            if hit is not None:
                return hit
        return None


def _label_of(op: PhysicalOp) -> str:
    return op.span_label()


def _estimate_for(op: PhysicalOp, storage: Storage) -> Optional[float]:
    # Only base scans have an estimate independent of the logical tree; for
    # composite operators the estimator needs the logical expression, which
    # the caller can supply via `explain(expr=...)` — handled in `explain`.
    if isinstance(op, SeqScan):
        return float(op.n)
    return None


def explain(
    plan: PhysicalOp,
    storage: Storage,
    expr=None,
    analyze: bool = False,
) -> ExplainNode:
    """Annotate a plan with cardinality estimates.

    With ``analyze=False`` nothing is executed.  When the logical
    expression ``expr`` is supplied, the root estimate comes from
    :class:`~repro.optimizer.cardinality.CardinalityEstimator`; leaf
    scans are estimated from table statistics either way.  With
    ``analyze=True`` this delegates to :func:`explain_analyze`.
    """
    if analyze:
        return explain_analyze(plan, storage, expr=expr)
    root_estimate: Optional[float] = None
    if expr is not None:
        from repro.optimizer.cardinality import CardinalityEstimator

        root_estimate = CardinalityEstimator(storage).estimate_expression(expr).cardinality

    def walk(op: PhysicalOp, is_root: bool) -> ExplainNode:
        estimate = root_estimate if is_root and root_estimate is not None else _estimate_for(op, storage)
        return ExplainNode(
            label=_label_of(op),
            estimated_rows=estimate,
            actual_rows=None,
            children=[walk(child, False) for child in op.children()],
        )

    return walk(plan, True)


def _attach_span(node: ExplainNode, span: Span) -> None:
    """Copy one operator span's actuals onto its ExplainNode (recursively;
    the span tree mirrors the plan tree by construction)."""
    node.actual_rows = span.counters.get("rows_out", 0)
    if span.finished:
        node.time_ms = round(span.duration_ns / 1e6, 6)
    dispatch = _DISPATCH.get(node.label.split("[", 1)[0])
    if dispatch is not None:
        node.details["dispatch"] = dispatch
    if "build_ns" in span.counters:
        node.details["build_ms"] = round(span.counters["build_ns"] / 1e6, 3)
    for key in _DETAIL_COUNTERS:
        if key in span.counters:
            node.details[key] = span.counters[key]
    op_children = [c for c in span.children if c.category == "engine.op"]
    for child_node, child_span in zip(node.children, op_children):
        _attach_span(child_node, child_span)


def explain_analyze(
    plan: PhysicalOp,
    storage: Storage,
    expr=None,
) -> ExplainNode:
    """Run the plan and annotate every operator with actuals.

    Execution happens under a forced tracer, so the annotations are the
    span tree's numbers: actual row counts, per-operator wall time,
    build/probe timings, index hits, and dispatch decisions.
    """
    from repro.engine.executor import execute_plan

    with tracing(enabled=True):
        result = execute_plan(plan)

    annotated = explain(plan, storage, expr=expr)
    root_span = result.trace
    op_spans = [s for s in root_span.children if s.category == "engine.op"]
    if op_spans:
        _attach_span(annotated, op_spans[0])
    annotated.details.setdefault("mem_high_water_rows", memory_high_water(root_span))
    return annotated
