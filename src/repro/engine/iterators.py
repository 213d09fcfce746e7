"""Physical operators with metered base access.

One protocol: every operator implements only
``execute_batches(metrics)``, yielding
:class:`~repro.engine.batch.ColumnBatch` chunks on its ``schema``, and
consumes its children the same way.  Rows appear only where a consumer
asks for them: ``execute()``, defined once on :class:`PhysicalOp`,
flattens the batches of whatever operator it is called on, and the
executor (like ``run()``) counts the root's batches straight into the
result bag (:func:`~repro.engine.batch.columns.materialize`).  Join
operators preserve their *left* input for the outer/semi/anti variants
(``full_outer`` preserves both, emitting the unmatched right rows after
the probe loop); the planner swaps operands where the logical node asks.
Every join probes through one loop,
:class:`~repro.engine.batch.kernels.BatchHashJoiner`: the hash join over
a drained, bucketed right input (one bucket when it has no key: the
nested-loop join), the index nested-loop join over a base table whose
hash index is the buckets.

Retrieval metering follows Example 1's accounting:

* a sequential scan retrieves every row of its table's snapshot (the
  first ``n``, its row count when the plan was built);
* an index nested-loop join retrieves exactly the inner rows it examines;
* intermediate results live in memory and are never re-counted.

Tracing: when an execution is traced, :func:`trace_plan` wraps every
operator in a transparent :class:`TracedOp` that meters its open/next/
close lifecycle — ``rows_out`` (rows it yielded), ``rows_in`` credited to
its consumer, and wall-time per operator — into a span tree mirroring the
plan (category ``engine.op``).  Operators additionally report their own
internals (hash-build time, index hits, materialized row counts) through
``self._span``, which the wrapper assigns; untraced runs leave ``_span``
None and skip all accounting.
"""

from __future__ import annotations

from time import perf_counter_ns
from collections.abc import Iterable, Iterator
from functools import partial
from typing import List, Optional, Tuple

from repro.observability.spans import Span

from repro.algebra.nulls import NULL
from repro.algebra.predicates import Predicate, TruePredicate
from repro.algebra.relation import Relation
from repro.algebra.schema import Schema
from repro.algebra.tuples import Row
from repro.engine.batch.columns import (
    ColumnBatch,
    batches_from_rows,
    materialize,
    rows_from_batches,
)
from repro.engine.batch.kernels import (
    BatchHashJoiner,
    BuildSide,
    compile_filter,
)
from repro.engine.indexes import HashIndex
from repro.engine.metrics import Metrics
from repro.engine.storage import Table
from repro.tools import instrumentation
from repro.util.errors import PlanningError
from repro.util.fastpath import batch_size

#: Join variants supported by the physical operators.
JOIN_TYPES = ("inner", "left_outer", "full_outer", "semi", "anti")


class PhysicalOp:
    """Base class for all physical operators."""

    schema: Schema

    #: Span assigned by :func:`trace_plan` for fine-grained accounting
    #: (build timings, index hits, materialized rows); None when untraced.
    _span: Optional[Span] = None

    def execute(self, metrics: Metrics) -> Iterator[Row]:
        """Row iterator over the operator's output: its batches, flattened."""
        return rows_from_batches(self.execute_batches(metrics))

    def execute_batches(self, metrics: Metrics) -> Iterator[ColumnBatch]:
        """Batch iterator over the operator's output (every operator's one
        implementation)."""
        raise NotImplementedError

    def _emit_batch(self, batch: ColumnBatch) -> ColumnBatch:
        """Account one emitted batch (instrumentation + span counters)."""
        instrumentation.bump("batches_emitted")
        instrumentation.bump("batch_rows", batch.num_rows)
        if self._span is not None:
            self._span.counters["batches_out"] += 1
        return batch

    def _emit_rows(self, rows: Iterable[Row]) -> Iterator[ColumnBatch]:
        """Chunk a row-internal algorithm's output (Yannakakis) into emitted batches."""
        for batch in batches_from_rows(rows, self.schema, batch_size()):
            yield self._emit_batch(batch)

    def _hash_build(
        self, right: "PhysicalOp", key: Optional[str], metrics: Metrics
    ) -> BuildSide:
        """Drain ``right`` into a build side keyed on ``key`` (one bucket
        when ``key`` is None).

        Span counters: ``build_ns``, ``mem_rows`` (bucketed build rows),
        ``build_buckets`` (keyed builds only).
        """
        span = self._span
        build_started = perf_counter_ns() if span is not None else 0
        build = BuildSide(key, tuple(sorted(right.schema.attributes)))
        for batch in right.execute_batches(metrics):
            build.add_batch(batch)
        if span is not None:
            span.counters["build_ns"] = perf_counter_ns() - build_started
            span.counters["mem_rows"] = build.bucketed_rows
            if key is not None:
                span.counters["build_buckets"] = len(build.buckets)
        return build

    def _probe_all(self, joiner: BatchHashJoiner, metrics: Metrics) -> Iterator[ColumnBatch]:
        """Probe ``joiner`` with every batch of ``self.left``, then emit its
        full-outer tail (the unmatched build rows, left-padded)."""
        for batch in self.left.execute_batches(metrics):
            out = joiner.probe(batch)
            if out is not None:
                yield self._emit_batch(out)
        tail = joiner.finish(sorted(self.left.schema.attributes))
        if tail is not None:
            yield self._emit_batch(tail)

    def span_label(self) -> str:
        """One-line operator label used for spans and EXPLAIN output."""
        return self.describe().splitlines()[0].strip()

    def describe(self, indent: int = 0) -> str:
        """Multi-line plan rendering (EXPLAIN-style)."""
        raise NotImplementedError

    def children(self) -> tuple["PhysicalOp", ...]:
        return ()

    def run(self, metrics: Optional[Metrics] = None) -> Relation:
        """Drain the operator into a relation (convenience for tests)."""
        metrics = metrics or Metrics()
        return materialize(self.schema, self.execute_batches(metrics))


def _check_join_type(join_type: str) -> None:
    if join_type not in JOIN_TYPES:
        raise PlanningError(f"unknown join type {join_type!r}; expected one of {JOIN_TYPES}")


class SeqScan(PhysicalOp):
    """Full scan of a base table's first ``n`` rows (default: its row count
    when the scan is made); every row is a metered retrieval."""

    def __init__(self, table: Table, n: Optional[int] = None):
        self.table = table
        self.schema = table.schema
        self.n = table.n if n is None else n

    def execute_batches(self, metrics: Metrics) -> Iterator[ColumnBatch]:
        """Slice the table's columns a batch at a time; retrieval metering
        is bumped per batch with its row count."""
        size, n = batch_size(), self.n
        for start in range(0, n, size):
            batch = self.table.batch(start, min(start + size, n))
            metrics.retrieved(self.table.name, batch.length)
            yield self._emit_batch(batch)

    def describe(self, indent: int = 0) -> str:
        return " " * indent + f"SeqScan({self.table.name})"


class Filter(PhysicalOp):
    """Selection on top of any child operator."""

    def __init__(self, child: PhysicalOp, predicate: Predicate):
        self.child = child
        self.predicate = predicate
        self.schema = child.schema

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def execute_batches(self, metrics: Metrics) -> Iterator[ColumnBatch]:
        """Run the compiled filter kernel, narrowing selection vectors.

        Surviving rows are a zero-copy selection over the child's batch;
        batches filtered to zero rows are dropped.
        """
        kernel = compile_filter(self.predicate)
        for batch in self.child.execute_batches(metrics):
            alive = batch.num_rows
            if alive:
                metrics.evaluated(alive)
            selection = kernel.apply(batch)
            if selection:
                yield self._emit_batch(batch.with_selection(selection))

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        return f"{pad}Filter[{self.predicate!r}]\n{self.child.describe(indent + 2)}"


class ProjectOp(PhysicalOp):
    """Projection; optional duplicate elimination."""

    def __init__(self, child: PhysicalOp, attributes, dedup: bool = False):
        self.child = child
        self.attributes = sorted(attributes)
        self.dedup = dedup
        self.schema = Schema(self.attributes)

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def execute_batches(self, metrics: Metrics) -> Iterator[ColumnBatch]:
        """Column-slice projection; dedup keys on value tuples.

        Without dedup the output batch *shares* the child's column lists
        (a pure scheme restriction).  With dedup, rows key on their value
        tuple in fixed attribute order — equivalent to ``Row`` equality,
        which compares the same values under the same attributes — and
        first occurrence wins.
        """
        attrs = self.attributes
        seen = set() if self.dedup else None
        for batch in self.child.execute_batches(metrics):
            projected = batch.project(attrs)
            if seen is None:
                if projected.num_rows:
                    yield self._emit_batch(projected)
                continue
            cols = [projected.columns[a] for a in projected.attrs]
            selection: List[int] = []
            keep = selection.append
            add = seen.add
            for i in projected.indices():
                key = tuple(col[i] for col in cols)
                if key not in seen:
                    add(key)
                    keep(i)
            if selection:
                yield self._emit_batch(projected.with_selection(selection))

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        return f"{pad}Project[{self.attributes}]\n{self.child.describe(indent + 2)}"


class _IndexSide:
    """A base table as a build side: its columns, read up to ordinal ``n``,
    bucketed by a hash index (``get`` is the index lookup below ``n``)."""

    __slots__ = ("columns", "rows", "get")

    def __init__(self, columns, rows: int, get):
        self.columns = columns
        self.rows = rows
        self.get = get


class IndexNestedLoopJoin(PhysicalOp):
    """Probe a base table's hash index once per outer row.

    This is Example 1's fast path: joining a one-row outer against an
    indexed ten-million-row table retrieves one tuple instead of ten
    million.  The join is :class:`BatchHashJoiner` over the table itself:
    the index is the build's buckets, so nothing is built.  Only the inner
    rows the join examines are metered as retrieved (all of a probe's
    matches, or up to the first satisfied one for a semi join); the
    joiner counts exactly those rows as predicate evaluations.  That is
    also why it has no ``full_outer`` variant: the inner rows no probe
    returned are never seen.
    """

    def __init__(
        self,
        left: PhysicalOp,
        table: Table,
        index: HashIndex,
        outer_key: str,
        residual: Optional[Predicate] = None,
        join_type: str = "inner",
        n: Optional[int] = None,
    ):
        _check_join_type(join_type)
        if join_type == "full_outer":
            raise PlanningError("an index nested-loop join cannot emit unmatched inner rows")
        self.left = left
        self.table = table
        self.n = table.n if n is None else n
        self.index = index
        self.outer_key = outer_key
        self.residual = residual or TruePredicate()
        self.join_type = join_type
        if join_type in ("semi", "anti"):
            self.schema = left.schema
        else:
            self.schema = left.schema.union(table.schema)

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.left,)

    def execute_batches(self, metrics: Metrics) -> Iterator[ColumnBatch]:
        """Probe the index through the joiner; one output batch per probe batch.

        Per probe batch, the live rows are index probes and the rows the
        joiner examined (its predicate evaluations) are retrievals.  Span
        counters: ``index_probes`` (live probe rows), ``index_hits`` (the
        ordinals the lookups returned).
        """
        lookup = partial(self.index.lookup, n=self.n)
        span = self._span
        get = lookup
        if span is not None:
            counters = span.counters

            def get(key):
                matches = lookup(key)
                counters["index_hits"] += len(matches)
                return matches

        joiner = BatchHashJoiner(
            _IndexSide(self.table.columns, self.n, get),
            self.outer_key,
            self.join_type,
            self.residual,
            metrics,
            f"INLJ[{self.join_type}]",
        )
        for batch in self.left.execute_batches(metrics):
            evaluated = metrics.predicate_evaluations
            out = joiner.probe(batch)
            live = batch.num_rows
            metrics.probed(self.index.name, live)
            examined = metrics.predicate_evaluations - evaluated
            if examined:
                metrics.retrieved(self.table.name, examined)
            if span is not None:
                counters["index_probes"] += live
                counters["index_hits"] += 0  # listed even when every key was NULL
            if out is not None:
                yield self._emit_batch(out)

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        residual = "" if isinstance(self.residual, TruePredicate) else f", {self.residual!r}"
        return (
            f"{pad}IndexNLJ[{self.join_type}, {self.outer_key} -> {self.index.name}{residual}]\n"
            f"{self.left.describe(indent + 2)}"
        )


class HashJoin(PhysicalOp):
    """Build on the right input, probe with the left (preserved).

    ``left_key``/``right_key`` are single equi-join attributes; additional
    conjuncts go into ``residual``.  Null keys never match, as in the
    algebra layer.  With no keys (both None) the build is one bucket:
    every right row is a candidate for every left row and ``residual`` is
    the whole predicate — the nested-loop join, which still describes
    itself as ``NestedLoopJoin`` and labels its rows ``NLJ[...]``.  Every
    (left row, right row) pair is then one predicate evaluation, except
    that a semi join stops at a left row's first satisfied pair.
    """

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        left_key: Optional[str],
        right_key: Optional[str],
        residual: Optional[Predicate] = None,
        join_type: str = "inner",
    ):
        _check_join_type(join_type)
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.residual = residual or TruePredicate()
        self.join_type = join_type
        if join_type in ("semi", "anti"):
            self.schema = left.schema
        else:
            self.schema = left.schema.union(right.schema)

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def execute_batches(self, metrics: Metrics) -> Iterator[ColumnBatch]:
        """Vectorized build/probe; one output batch per probe batch.

        Both children are consumed batch-at-a-time.  Null keys never enter or probe the
        build side.  Span counters: ``build_ns``, ``mem_rows`` (bucketed
        build rows), ``build_buckets`` (keyed builds only).
        """
        build = self._hash_build(self.right, self.right_key, metrics)
        label = "HashJoin" if self.left_key is not None else "NLJ"
        joiner = BatchHashJoiner(
            build,
            self.left_key,
            self.join_type,
            self.residual,
            metrics,
            f"{label}[{self.join_type}]",
        )
        yield from self._probe_all(joiner, metrics)

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        if self.left_key is None:
            head = f"NestedLoopJoin[{self.join_type}, {self.residual!r}]"
        else:
            head = f"HashJoin[{self.join_type}, {self.left_key} = {self.right_key}]"
        return (
            f"{pad}{head}\n"
            f"{self.left.describe(indent + 2)}\n{self.right.describe(indent + 2)}"
        )


class PaddedUnion(PhysicalOp):
    """Bag union under the Section 2.1 padding convention.

    Each side's batches pass through with an all-NULL column for every
    attribute only the other side has; multiplicities add, as in
    :func:`repro.algebra.operators.union_padded`.
    """

    def __init__(self, left: PhysicalOp, right: PhysicalOp):
        self.left = left
        self.right = right
        self.schema = left.schema.union(right.schema)

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def execute_batches(self, metrics: Metrics) -> Iterator[ColumnBatch]:
        attrs = tuple(sorted(self.schema.attributes))
        for side in (self.left, self.right):
            missing = [a for a in attrs if a not in side.schema]
            for batch in side.execute_batches(metrics):
                columns = dict(batch.columns)
                for a in missing:
                    columns[a] = [NULL] * batch.length
                yield self._emit_batch(
                    ColumnBatch(attrs, columns, batch.length, batch.selection)
                )

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        return (
            f"{pad}PaddedUnion\n"
            f"{self.left.describe(indent + 2)}\n{self.right.describe(indent + 2)}"
        )


# ---------------------------------------------------------------------------
# Tracing wrappers
# ---------------------------------------------------------------------------

#: Attributes through which operators hold child operators.
_CHILD_ATTRS = ("left", "right", "child")


class TracedOp(PhysicalOp):
    """Transparent wrapper metering one operator's open/next/close cycle.

    The wrapper owns the operator's span: it begins it on open (first
    pull), counts every yielded row (``rows_out``), credits the consumer's
    ``rows_in``, and finishes the span on close.  Before closing it force-
    closes any still-live child generators so that abandoned subtrees
    (semi/anti short-circuits) finalize *inside* the parent's interval —
    the nesting half of the metrics contract depends on this ordering.
    """

    def __init__(self, inner: PhysicalOp, span: Span, parent_span: Optional[Span]):
        self.inner = inner
        self.span = span
        self.parent_span = parent_span
        self.schema = inner.schema
        self.child_wrappers: List["TracedOp"] = []
        #: Still-open batch generators handed to consumers.
        self._live: List[Iterator] = []

    def children(self) -> tuple[PhysicalOp, ...]:
        return self.inner.children()

    def describe(self, indent: int = 0) -> str:
        return self.inner.describe(indent)

    def span_label(self) -> str:
        return self.inner.span_label()

    def execute_batches(self, metrics: Metrics) -> Iterator[ColumnBatch]:
        """Meter the inner operator's batch stream.

        Row accounting (``rows_out``/``rows_in``) is bumped per batch
        with the batch's row count.  Batch-level
        counters (``batches_out``) belong to the *inner* operator's
        ``_emit_batch`` on the shared span, so nothing double-counts.
        """
        gen = self._meter_batches(metrics)
        self._live.append(gen)
        return gen

    def _meter_batches(self, metrics: Metrics) -> Iterator[ColumnBatch]:
        span = self.span
        span.begin()
        rows = 0
        try:
            for batch in self.inner.execute_batches(metrics):
                rows += batch.num_rows
                yield batch
        finally:
            for wrapper in self.child_wrappers:
                wrapper.close_live()
            span.counters["rows_out"] += rows
            if self.parent_span is not None:
                self.parent_span.counters["rows_in"] += rows
            span.finish()

    def close_live(self) -> None:
        """Close any generators still open on this wrapper (and, through
        their ``finally`` blocks, on the whole subtree beneath it)."""
        live, self._live = self._live, []
        for gen in live:
            gen.close()


def trace_plan(plan: PhysicalOp, parent_span: Span) -> Tuple[PhysicalOp, "list"]:
    """Wrap every operator of ``plan`` in a :class:`TracedOp`.

    Builds a span tree mirroring the plan under ``parent_span`` and
    returns ``(wrapped_root, undo_log)``; pass the undo log to
    :func:`untrace_plan` to restore the original tree afterwards (plans
    are reusable objects — tracing must not permanently rewire them).
    """
    undo: List[Tuple[PhysicalOp, str, PhysicalOp]] = []

    def wrap(op: PhysicalOp, parent: Span) -> TracedOp:
        span = parent.child(op.span_label(), category="engine.op")
        span.set(op=type(op).__name__)
        wrapper = TracedOp(op, span, parent)
        undo.append((op, "_span", op._span))
        op._span = span
        for attr in _CHILD_ATTRS:
            child = getattr(op, attr, None)
            if isinstance(child, PhysicalOp):
                child_wrapper = wrap(child, span)
                child_wrapper.parent_span = span
                wrapper.child_wrappers.append(child_wrapper)
                undo.append((op, attr, child))
                setattr(op, attr, child_wrapper)
        inputs = getattr(op, "inputs", None)
        if isinstance(inputs, tuple) and inputs and all(
            isinstance(c, PhysicalOp) for c in inputs
        ):
            wrapped_inputs = []
            for child in inputs:
                child_wrapper = wrap(child, span)
                child_wrapper.parent_span = span
                wrapper.child_wrappers.append(child_wrapper)
                wrapped_inputs.append(child_wrapper)
            undo.append((op, "inputs", inputs))
            op.inputs = tuple(wrapped_inputs)
        return wrapper

    return wrap(plan, parent_span), undo


def untrace_plan(undo: "list") -> None:
    """Undo the rewiring performed by :func:`trace_plan`."""
    for op, attr, value in reversed(undo):
        if attr == "_span":
            if value is None and "_span" not in op.__dict__:
                continue
            op._span = value
        else:
            setattr(op, attr, value)
