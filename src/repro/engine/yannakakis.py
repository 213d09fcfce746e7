"""The acyclic fast path: full semijoin reduction + output-linear join.

:class:`YannakakisOp` executes a rooted :class:`~repro.core.gyo.JoinTree`
in the classic three phases of Yannakakis' algorithm:

1. **Materialize** every node's input (base scans with their pushed
   filters, run by their vectorized kernels);
2. **Full reducer**: a bottom-up pass semijoin-reduces each parent by its
   children, then a top-down pass reduces each child by its parent.  Both
   passes reuse the hash-join key machinery
   (:func:`~repro.algebra.predicates.decompose_join_predicate`): composite
   equality keys hash-partition the probe, residual conjuncts are
   evaluated verbatim, and null keys never match (SQL 3VL).  On an
   outerjoin edge the preserved parent is *never* reduced by its
   null-supplied child (the child cannot eliminate parent output); the
   top-down direction is always legal because a null-supplied row that
   matches no preserved row cannot appear in the output.
3. **Join**: a preorder left-deep chain of hash joins — inner for join
   edges, left-outer (padding the child's scheme) for outerjoin edges.
   Chord predicates (graph edges the tree does not use; pure-join graphs
   only) are applied as filters as soon as both endpoints have been
   joined, which preserves correctness — any row the tree predicates
   drop fails a predicate of the final result too — at the price of
   output-linearity.

After reduction every intermediate row of a chord-free tree participates
in at least one output row, which is the output-linearity guarantee the
benchmarks measure against the binary-tree DP plans.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.algebra.nulls import is_null, satisfied
from repro.algebra.predicates import (
    PairView,
    Predicate,
    conjunction,
    decompose_join_predicate,
)
from repro.algebra.tuples import Row, null_row
from repro.core.gyo import JoinTree, JoinTreeEdge
from repro.engine.batch.columns import ColumnBatch
from repro.engine.iterators import Filter, PhysicalOp, SeqScan
from repro.engine.metrics import Metrics
from repro.engine.storage import Storage
from repro.util.errors import PlanningError


def _key_of(row: Row, keys: Tuple[str, ...]):
    """The composite key tuple of a row, or None if any part is null."""
    values = []
    for attr in keys:
        value = row[attr]
        if is_null(value):
            return None
        values.append(value)
    return tuple(values)


class YannakakisOp(PhysicalOp):
    """N-ary semijoin-reduced join over a rooted join tree.

    ``inputs`` is aligned with ``tree.order`` (one physical child per
    relation, preorder).  The operator materializes all inputs, runs the
    full reducer, then emits the preorder left-deep join — see the module
    docstring for phase semantics.
    """

    def __init__(self, tree: JoinTree, inputs: Tuple[PhysicalOp, ...]):
        if len(inputs) != len(tree.order):
            raise PlanningError(
                f"Yannakakis plan needs one input per tree node: "
                f"{len(tree.order)} nodes, {len(inputs)} inputs"
            )
        self.tree = tree
        self.inputs = tuple(inputs)
        self._schemas = {
            node: op.schema for node, op in zip(tree.order, self.inputs)
        }
        schema = self.inputs[0].schema
        for op in self.inputs[1:]:
            schema = schema.union(op.schema)
        self.schema = schema
        self._edge_plans: List[
            Tuple[JoinTreeEdge, Tuple[str, ...], Tuple[str, ...], Optional[Predicate]]
        ] = []
        for edge in tree.edges:
            parent_keys, child_keys, residual = decompose_join_predicate(
                edge.predicate,
                self._schemas[edge.parent].attributes,
                self._schemas[edge.child].attributes,
            )
            if not parent_keys:
                raise PlanningError(
                    f"join-tree edge {edge.parent}-{edge.child} has no equality key"
                )
            residual_pred = conjunction(list(residual)) if residual else None
            self._edge_plans.append((edge, parent_keys, child_keys, residual_pred))

    def children(self) -> tuple[PhysicalOp, ...]:
        return self.inputs

    # -- reducer ---------------------------------------------------------------

    def _semijoin(
        self,
        target_rows: List[Row],
        target_keys: Tuple[str, ...],
        source_rows: List[Row],
        source_keys: Tuple[str, ...],
        residual: Optional[Predicate],
        metrics: Metrics,
    ) -> List[Row]:
        """``target ⋉ source``: keep target rows with a matching source row."""
        if residual is None:
            keys = set()
            for row in source_rows:
                key = _key_of(row, source_keys)
                if key is not None:
                    keys.add(key)
            kept = [row for row in target_rows if _key_of(row, target_keys) in keys]
        else:
            buckets: Dict[tuple, List[Row]] = {}
            for row in source_rows:
                key = _key_of(row, source_keys)
                if key is not None:
                    buckets.setdefault(key, []).append(row)
            kept = []
            for row in target_rows:
                key = _key_of(row, target_keys)
                if key is None:
                    continue
                for other in buckets.get(key, ()):
                    metrics.evaluated()
                    if satisfied(residual.evaluate(PairView(row, other))):
                        kept.append(row)
                        break
        if self._span is not None:
            self._span.counters["reducer_passes"] += 1
            self._span.counters["reducer_dropped"] += len(target_rows) - len(kept)
        return kept

    def _reduce(self, rows: Dict[str, List[Row]], metrics: Metrics) -> None:
        # Bottom-up (reversed preorder processes every subtree before its
        # parent edge): parents shed rows with no match below — join
        # edges only, a preserved side keeps its dangling rows.
        for edge, parent_keys, child_keys, residual in reversed(self._edge_plans):
            if edge.kind != "join":
                continue
            rows[edge.parent] = self._semijoin(
                rows[edge.parent], parent_keys,
                rows[edge.child], child_keys,
                residual, metrics,
            )
        # Top-down (preorder processes every parent before its children):
        # children shed rows their (already reduced) parent cannot reach.
        for edge, parent_keys, child_keys, residual in self._edge_plans:
            rows[edge.child] = self._semijoin(
                rows[edge.child], child_keys,
                rows[edge.parent], parent_keys,
                residual, metrics,
            )

    # -- join phase ------------------------------------------------------------

    def _rows(self, metrics: Metrics) -> Iterator[Row]:
        """The row-at-a-time join itself; ``execute_batches`` chunks it."""
        rows: Dict[str, List[Row]] = {}
        total = 0
        for node, op in zip(self.tree.order, self.inputs):
            rows[node] = list(op.execute(metrics))
            total += len(rows[node])
        if self._span is not None:
            self._span.counters["mem_rows"] = total

        self._reduce(rows, metrics)

        chords = [
            (frozenset({u, v}), predicate, [False])
            for u, v, predicate in self.tree.chords
        ]
        label = "Yannakakis"
        acc = rows[self.tree.root]
        joined = {self.tree.root}
        for edge, parent_keys, child_keys, residual in self._edge_plans:
            child_schema = self._schemas[edge.child]
            buckets: Dict[tuple, List[Row]] = {}
            for row in rows[edge.child]:
                key = _key_of(row, child_keys)
                if key is not None:
                    buckets.setdefault(key, []).append(row)
            padding = null_row(child_schema)
            new_acc: List[Row] = []
            for row in acc:
                key = _key_of(row, parent_keys)
                matched = False
                if key is not None:
                    for other in buckets.get(key, ()):
                        if residual is not None:
                            metrics.evaluated()
                            if not satisfied(residual.evaluate(PairView(row, other))):
                                continue
                        matched = True
                        new_acc.append(row.concat(other))
                if not matched and edge.kind == "oj":
                    new_acc.append(row.concat(padding))
            acc = new_acc
            joined.add(edge.child)
            for pair, predicate, applied in chords:
                if not applied[0] and pair <= joined:
                    applied[0] = True
                    kept = []
                    for row in acc:
                        metrics.evaluated()
                        if satisfied(predicate.evaluate(row)):
                            kept.append(row)
                    acc = kept
        for row in acc:
            metrics.emitted(label)
            yield row

    def execute_batches(self, metrics: Metrics) -> Iterator[ColumnBatch]:
        return self._emit_rows(self._rows(metrics))

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        head = (
            f"{pad}Yannakakis[root={self.tree.root}, nodes={len(self.tree.order)}, "
            f"chords={len(self.tree.chords)}]"
        )
        return "\n".join([head] + [op.describe(indent + 2) for op in self.inputs])


def build_yannakakis_plan(
    tree: JoinTree, storage: Storage, filters: Dict[str, List[Predicate]]
) -> YannakakisOp:
    """A Yannakakis physical plan: filtered scans under the reducer op."""
    inputs: List[PhysicalOp] = []
    for node in tree.order:
        op: PhysicalOp = SeqScan(storage[node])
        preds = filters.get(node)
        if preds:
            op = Filter(op, conjunction(list(preds)))
        inputs.append(op)
    return YannakakisOp(tree, tuple(inputs))
