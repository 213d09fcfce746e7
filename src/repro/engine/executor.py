"""Running physical plans and collecting metrics.

The executor is the meeting point of the theory and the engine: a logical
expression (possibly reordered by :mod:`repro.optimizer`) is planned,
drained, and returned together with the metered costs — which is exactly
how the Example-1 benchmark compares ``R1 − (R2 → R3)`` against
``(R1 − R2) → R3``.

The drain is one batch materializer
(:func:`~repro.engine.batch.columns.materialize`), polling the cancel
token once per root batch.  The result is complete when
:func:`execute_plan` returns: the query over the row counts the plan
fixed when it was built (:attr:`ExecutionResult.snapshot`).

When tracing is active (see :mod:`repro.observability`), every execution
produces a ``query.execute`` span carrying the query's metric totals; at
*full* detail (``REPRO_TRACE=1`` or a forced tracer, e.g. EXPLAIN
ANALYZE) the span's children additionally mirror the physical plan:
per-operator rows in/out, wall time, build/probe timings, index hits,
and a memory high-water estimate.  The ambient default (``REPRO_TRACE``
unset) records phase-level spans only, so tracing adds no per-row work.
The trace is observational either way — plans, results, and Metrics are
bit-identical with tracing off (``REPRO_TRACE=0``), which
``tests/test_explain.py`` asserts byte-level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set, Tuple

from repro.algebra.relation import Relation
from repro.core.expressions import Expression
from repro.engine.batch.columns import materialize
from repro.engine.iterators import PhysicalOp, trace_plan, untrace_plan
from repro.engine.metrics import Metrics
from repro.engine.planner import Planner
from repro.engine.storage import Storage
from repro.observability.spans import Span, current_tracer, maybe_span
from repro.util.cancel import CancelToken


@dataclass
class ExecutionResult:
    """A drained plan: its rows, its costs, and the plan that produced them."""

    relation: Relation
    metrics: Metrics
    plan: PhysicalOp
    #: The plan's sorted ``(table, n)`` reads: ``relation`` is the query
    #: over the first ``n`` rows of each table.
    snapshot: Tuple[Tuple[str, int], ...] = ()
    #: Root span of the traced execution (None when tracing is off).
    trace: Optional[Span] = field(default=None, repr=False)

    @property
    def tuples_retrieved(self) -> int:
        return self.metrics.total_retrieved

    def __str__(self) -> str:
        return (
            f"{len(self.relation)} rows\n{self.plan.describe()}\n{self.metrics.summary()}"
        )


def execute_plan(plan: PhysicalOp, cancel: Optional[CancelToken] = None) -> ExecutionResult:
    """Drain a physical plan with a fresh metrics sink.

    The root's batches go straight into the result bag
    (:func:`~repro.engine.batch.columns.materialize`); the relation is
    complete when this returns.  Traced when a tracer is active: the plan
    tree is transparently wrapped for per-operator metering and restored
    afterwards.  When a ``cancel`` token is given, the materializer polls
    it once per root batch (and the per-query metrics sink polls it
    inside operator builds), raising its ``CancellationError``
    cooperatively.
    """
    metrics = Metrics(cancel=cancel)
    snapshot = tuple(sorted(_reads(plan)))
    tracer = current_tracer()
    if tracer is None:
        relation = materialize(plan.schema, plan.execute_batches(metrics), cancel)
        return ExecutionResult(relation, metrics, plan, snapshot)

    with tracer.span("query.execute", category="engine") as root:
        wrapped, undo = trace_plan(plan, root) if tracer.trace_operators else (plan, [])
        try:
            relation = materialize(plan.schema, wrapped.execute_batches(metrics), cancel)
        finally:
            untrace_plan(undo)
        metrics.flush_to_span(root)
        root.set(rows=len(relation))
    return ExecutionResult(relation, metrics, plan, snapshot, trace=root)


def _reads(op: PhysicalOp) -> Set[Tuple[str, int]]:
    """``(table, n)`` of every base-table read under ``op``, fixed at plan time."""
    table = getattr(op, "table", None)
    own = {(table.name, op.n)} if table is not None else set()
    return own.union(*map(_reads, op.children()))


def plan_expression(expr: Expression, storage: Storage) -> PhysicalOp:
    """The physical plan of a logical expression (under a ``query.plan`` span)."""
    with maybe_span("query.plan", category="engine") as span:
        plan = Planner(storage).plan(expr)
        if span is not None:
            span.set(plan=plan.span_label())
    return plan


def execute(
    expr: Expression, storage: Storage, cancel: Optional[CancelToken] = None
) -> ExecutionResult:
    """Plan and run a logical expression against the storage.

    Every execution gets its own planner, plan tree and metrics sink, so
    concurrent ``execute`` calls share nothing mutable but the append-only
    storage — the property :mod:`repro.service` builds on.
    """
    return execute_plan(plan_expression(expr, storage), cancel=cancel)


def verify_against_algebra(expr: Expression, storage: Storage) -> bool:
    """Cross-check the engine against the algebra-level evaluator.

    The algebra operators are the semantic oracle (they transcribe the
    paper's definitions directly); the engine must agree with them on
    every plan it produces.  Used throughout the integration tests.

    Routed through the conformance harness so the comparison, its skip
    rules, and its instrumentation live in one place; the storage's
    cached oracle view makes repeated checks cheap.
    """
    from repro.conformance.check import cross_check

    result = cross_check(
        expr,
        storage.to_database(),
        executors=("algebra", "engine"),
        storage=storage,
        strict=True,
    )
    return result.ok
