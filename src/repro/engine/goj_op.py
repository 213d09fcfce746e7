"""Physical operator for the generalized outerjoin (Section 6.2).

The paper: "As with Generalized-Join, GOJ can be computed by a slightly
modified join algorithm."  This operator is that modification over the
hash-join skeleton: build on the right, probe with the left, track which
S-projections of the left input found a match, and emit one null-padded
witness per unmatched projection at the end.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import repeat
from time import perf_counter_ns
from typing import List, Optional

from repro.algebra.nulls import NULL, satisfied
from repro.algebra.predicates import Predicate, TruePredicate
from repro.algebra.schema import Schema
from repro.engine.batch.columns import ColumnBatch, _fast_row
from repro.engine.batch.kernels import BuildSide, PairColsView, gather_pairs
from repro.engine.iterators import PhysicalOp
from repro.engine.metrics import Metrics


class GeneralizedOuterJoinOp(PhysicalOp):
    """Hash-based GOJ: join results plus one padded row per unmatched
    S-projection of the left input."""

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        left_key: str,
        right_key: str,
        projection: List[str],
        residual: Optional[Predicate] = None,
    ):
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.projection = sorted(projection)
        self.residual = residual or TruePredicate()
        self.schema = left.schema.union(right.schema)
        if not Schema(self.projection).is_subset(left.schema):
            from repro.util.errors import PlanningError

            raise PlanningError("GOJ projection must be a subset of the left schema")

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def execute_batches(self, metrics: Metrics) -> Iterator[ColumnBatch]:
        """Vectorized GOJ: inner-style probe + projection match tracking.

        Projections key on their value tuple in (sorted) projection-attr
        order — equivalent to ``Row`` set membership — and the unmatched
        witnesses are rebuilt as rows and sorted by ``repr`` so the tail
        batch has a deterministic order.
        """
        span = self._span
        build_started = perf_counter_ns() if span is not None else 0
        build = BuildSide(
            self.right_key, tuple(sorted(self.right.schema.attributes))
        )
        for batch in self.right.execute_batches(metrics):
            build.add_batch(batch)
        if span is not None:
            span.counters["build_ns"] = perf_counter_ns() - build_started
            span.counters["mem_rows"] = build.bucketed_rows
            span.counters["build_buckets"] = len(build.buckets)

        label = "GOJ"
        proj_attrs = tuple(self.projection)
        residual = (
            None if isinstance(self.residual, TruePredicate) else self.residual
        )
        rcols = build.columns
        buckets_get = build.buckets.get
        seen: set = set()
        matched: set = set()
        for batch in self.left.execute_batches(metrics):
            lcols = batch.columns
            key_col = lcols[self.left_key]
            pcols = [lcols[a] for a in proj_attrs]
            out_l: List[int] = []
            out_r: List[int] = []
            if residual is None:
                extend_l = out_l.extend
                extend_r = out_r.extend
                evaluated = 0
                for i in batch.indices():
                    seen.add(tuple(col[i] for col in pcols))
                    key = key_col[i]
                    bucket = None if key is NULL else buckets_get(key)
                    if bucket:
                        n = len(bucket)
                        evaluated += n
                        extend_r(bucket)
                        extend_l(repeat(i, n))
                        matched.add(tuple(col[i] for col in pcols))
                if evaluated:
                    metrics.evaluated(evaluated)
            else:
                view = PairColsView(lcols, rcols)
                evaluate = residual.evaluate
                for i in batch.indices():
                    proj_key = tuple(col[i] for col in pcols)
                    seen.add(proj_key)
                    key = key_col[i]
                    bucket = None if key is NULL else buckets_get(key)
                    if bucket:
                        metrics.evaluated(len(bucket))
                        view.li = i
                        for j in bucket:
                            view.ri = j
                            if satisfied(evaluate(view)):
                                matched.add(proj_key)
                                out_l.append(i)
                                out_r.append(j)
            if out_l:
                metrics.emitted(label, len(out_l))
                yield self._emit_batch(gather_pairs(lcols, out_l, rcols, out_r))

        unmatched = seen - matched
        if unmatched:
            pad_attrs = tuple(
                sorted(self.schema.difference(Schema(self.projection)).attributes)
            )
            witnesses = sorted(
                (_fast_row(dict(zip(proj_attrs, values))) for values in unmatched),
                key=repr,
            )
            tail = len(witnesses)
            columns = {
                a: [w._values[a] for w in witnesses] for a in proj_attrs
            }
            for a in pad_attrs:
                columns[a] = [NULL] * tail
            out = ColumnBatch(tuple(sorted(columns)), columns, tail)
            metrics.emitted(label, tail)
            yield self._emit_batch(out)

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        return (
            f"{pad}GeneralizedOuterJoin[S={self.projection}, "
            f"{self.left_key} = {self.right_key}]\n"
            f"{self.left.describe(indent + 2)}\n{self.right.describe(indent + 2)}"
        )
