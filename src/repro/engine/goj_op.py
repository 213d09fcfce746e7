"""Physical operator for the generalized outerjoin (Section 6.2).

The paper: "As with Generalized-Join, GOJ can be computed by a slightly
modified join algorithm."  This operator is that modification of the
hash join: build on the right, probe with the left through the
:class:`~repro.engine.batch.kernels.BatchHashJoiner`'s inner match, track
which S-projections of the left input found a match, and emit one
null-padded witness per unmatched projection at the end (the witness
tail).  Only the projection sets and the tail are GOJ-specific.  With
no equi conjunct the build is keyless, as in the nested-loop join: every
right row is a candidate and the whole predicate is the residual.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import List, Optional

from repro.algebra.nulls import NULL
from repro.algebra.predicates import Predicate, TruePredicate
from repro.algebra.schema import Schema
from repro.algebra.tuples import layout_of, row_of
from repro.engine.batch.columns import ColumnBatch
from repro.engine.batch.kernels import BatchHashJoiner
from repro.engine.iterators import PhysicalOp
from repro.engine.metrics import Metrics


class GeneralizedOuterJoinOp(PhysicalOp):
    """Hash-based GOJ: join results plus one padded row per unmatched
    S-projection of the left input."""

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        left_key: Optional[str],
        right_key: Optional[str],
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
        witnesses are sorted by the ``repr`` of their rows so the tail
        batch has a deterministic order.
        """
        build = self._hash_build(self.right, self.right_key, metrics)
        joiner = BatchHashJoiner(
            build, self.left_key, "inner", self.residual, metrics, "GOJ"
        )
        proj_attrs = tuple(self.projection)
        seen: set = set()
        matched: set = set()
        for batch in self.left.execute_batches(metrics):
            pcols = [batch.columns[a] for a in proj_attrs]
            seen.update(tuple(col[i] for col in pcols) for i in batch.indices())
            out_l, out_r = joiner.match_pairs(batch)
            matched.update(tuple(col[i] for col in pcols) for i in set(out_l))
            out = joiner.emit_pairs(batch, out_l, out_r)
            if out is not None:
                yield self._emit_batch(out)

        unmatched = seen - matched
        if unmatched:
            layout = layout_of(proj_attrs)
            witnesses = sorted(unmatched, key=lambda values: repr(row_of(layout, values)))
            tail = len(witnesses)
            columns = dict(zip(proj_attrs, map(list, zip(*witnesses))))
            for a in self.schema.attributes.difference(proj_attrs):
                columns[a] = [NULL] * tail
            out = ColumnBatch(tuple(sorted(columns)), columns, tail)
            metrics.emitted("GOJ", tail)
            yield self._emit_batch(out)

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        if self.left_key is None:
            condition = repr(self.residual)
        else:
            condition = f"{self.left_key} = {self.right_key}"
        return (
            f"{pad}GeneralizedOuterJoin[S={self.projection}, {condition}]\n"
            f"{self.left.describe(indent + 2)}\n{self.right.describe(indent + 2)}"
        )
