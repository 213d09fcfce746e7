"""The columnar batch representation: per-column lists + selection vector.

A :class:`ColumnBatch` is the unit of work of the vectorized engine: a
fixed scheme, one Python list per attribute holding the column's values
(with :data:`~repro.algebra.nulls.NULL` marking nulls in place), and an
optional *selection vector* — a list of row positions that are logically
alive.  Filters produce selections instead of copying columns; gathering
operators (join output, the batch->row flattening) resolve the selection
when they materialize.

Null handling is the 3VL contract of :mod:`repro.algebra.nulls`, stated
columnar:

* the value lists store the ``NULL`` singleton in place, so a value ``v``
  is null iff ``v is NULL`` — no out-of-band state to keep in sync;
* :meth:`null_mask` derives (and caches) an explicit boolean mask per
  column for kernels that want branch-light null tests (``IS NULL``
  filters, key-column routing).  The mask is a *view* of the value list:
  it is always consistent with it because batches are immutable once
  emitted.

Batches preserve row order: ``to_rows()`` of the batches an operator
emits is its row sequence, independent of the chunk size
(``tests/test_batch_exec.py`` checks every size against 1024).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import partial
from itertools import repeat
from typing import Any, Dict, List, Optional, Tuple

from repro.algebra.nulls import NULL
from repro.algebra.relation import Relation
from repro.algebra.schema import Schema
from repro.algebra.tuples import Row, layout_of, row_of
from repro.util.cancel import CancelToken
from repro.util.errors import SchemaError


class ColumnBatch:
    """An immutable chunk of rows in columnar form.

    ``attrs`` fixes the column order (sorted attribute names, so two
    batches on the same scheme always agree); ``columns`` maps attribute
    -> value list, each of the same *physical* length; ``selection`` is
    either None (every physical row is alive) or a list of alive
    positions in ascending emission order.
    """

    __slots__ = ("attrs", "columns", "length", "selection", "_masks")

    def __init__(
        self,
        attrs: Sequence[str],
        columns: Dict[str, List[Any]],
        length: int,
        selection: Optional[List[int]] = None,
    ):
        self.attrs: Tuple[str, ...] = tuple(attrs)
        self.columns = columns
        self.length = length
        self.selection = selection
        self._masks: Dict[str, List[bool]] = {}
        for attr in self.attrs:
            col = columns.get(attr)
            if col is None:
                raise SchemaError(f"batch is missing column {attr!r}")
            if len(col) != length:
                raise SchemaError(
                    f"column {attr!r} has {len(col)} values, batch length is {length}"
                )

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: Schema | Iterable[str], rows: Sequence[Row]) -> "ColumnBatch":
        """Columnarize a chunk of rows: one transpose of their value
        tuples when every row is on the batch's scheme, one lookup per
        cell otherwise (rows on a wider scheme)."""
        attrs = _attrs_of(schema)
        layout = layout_of(attrs)
        if rows and all(r._layout is layout for r in rows):
            return cls(attrs, dict(zip(attrs, map(list, zip(*[r._vals for r in rows])))), len(rows))
        return cls(attrs, {a: [r[a] for r in rows] for a in attrs}, len(rows))

    @classmethod
    def empty(cls, schema: Schema | Iterable[str]) -> "ColumnBatch":
        """A zero-row batch on the given scheme."""
        attrs = _attrs_of(schema)
        return cls(attrs, {a: [] for a in attrs}, 0)

    # -- shape ---------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Logical (post-selection) row count."""
        if self.selection is not None:
            return len(self.selection)
        return self.length

    def is_empty(self) -> bool:
        return self.num_rows == 0

    def indices(self) -> Sequence[int]:
        """The alive row positions, in emission order."""
        if self.selection is not None:
            return self.selection
        return range(self.length)

    # -- null masks ----------------------------------------------------------

    def null_mask(self, attr: str) -> List[bool]:
        """Explicit null mask of one column (cached; covers *physical* rows).

        ``mask[i]`` is True iff ``columns[attr][i] is NULL`` — derived
        from the in-band marker, so it can never drift from the values.
        """
        mask = self._masks.get(attr)
        if mask is None:
            mask = [v is NULL for v in self.columns[attr]]
            self._masks[attr] = mask
        return mask

    # -- transforms ----------------------------------------------------------

    def with_selection(self, selection: List[int]) -> "ColumnBatch":
        """The same physical batch narrowed to ``selection`` (zero copy)."""
        return ColumnBatch(self.attrs, self.columns, self.length, selection)

    def compact(self) -> "ColumnBatch":
        """Resolve the selection vector into dense columns."""
        if self.selection is None:
            return self
        sel = self.selection
        columns = {a: [col[i] for i in sel] for a, col in self.columns.items()}
        return ColumnBatch(self.attrs, columns, len(sel))

    def project(self, attributes: Iterable[str]) -> "ColumnBatch":
        """Restrict to a subset of columns (shares the value lists)."""
        attrs = tuple(sorted(attributes))
        missing = [a for a in attrs if a not in self.columns]
        if missing:
            raise SchemaError(f"cannot project batch on absent attributes {missing}")
        return ColumnBatch(
            attrs, {a: self.columns[a] for a in attrs}, self.length, self.selection
        )

    # -- row compatibility ----------------------------------------------------

    def value_tuples(self) -> Iterator[Tuple[Any, ...]]:
        """The alive rows as value tuples in ``attrs`` order, in order.

        A tuple is the value tuple of the alive row: two tuples are equal
        (and hash alike) exactly when the rows on this layout are, so
        counting tuples counts rows.
        """
        cols: List[Iterable[Any]] = [self.columns[a] for a in self.attrs]
        if not cols:
            return repeat((), self.num_rows)
        sel = self.selection
        if sel is not None:
            cols = [map(col.__getitem__, sel) for col in cols]
        return zip(*cols)

    def iter_rows(self) -> Iterator[Row]:
        """The alive rows as :class:`Row` objects, in order."""
        return map(partial(row_of, layout_of(self.attrs)), self.value_tuples())

    def to_rows(self) -> List[Row]:
        return list(self.iter_rows())

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sel = f", selection={len(self.selection)}" if self.selection is not None else ""
        return f"ColumnBatch({list(self.attrs)}, rows={self.num_rows}{sel})"


def _attrs_of(schema: Schema | Iterable[str]) -> Tuple[str, ...]:
    if isinstance(schema, Schema):
        return tuple(sorted(schema.attributes))
    return tuple(sorted(schema))


def batches_from_rows(
    rows: Iterable[Row], schema: Schema | Iterable[str], size: int
) -> Iterator[ColumnBatch]:
    """Chunk a row stream into column batches.

    The n-ary joins whose algorithms are row-internal (Leapfrog
    Triejoin, Yannakakis) emit their output through this.
    """
    attrs = _attrs_of(schema)
    chunk: List[Row] = []
    append = chunk.append
    for row in rows:
        append(row)
        if len(chunk) >= size:
            yield ColumnBatch.from_rows(attrs, chunk)
            chunk = []
            append = chunk.append
    if chunk:
        yield ColumnBatch.from_rows(attrs, chunk)


def rows_from_batches(batches: Iterable[ColumnBatch]) -> Iterator[Row]:
    """Flatten a batch stream into rows (``PhysicalOp.execute``)."""
    for batch in batches:
        yield from batch.iter_rows()


def materialize(
    schema: Schema, batches: Iterator[ColumnBatch], cancel: Optional[CancelToken] = None
) -> Relation:
    """Drain a batch stream into the bag it denotes.

    Per batch the scheme is checked once (``batch.attrs`` against the
    sorted attributes of ``schema``) and the alive value tuples are
    counted into one C-level ``Counter``.  After the drain each distinct
    tuple is adopted as the value tuple of one :class:`Row`, in
    first-seen order, and the bag is filled in one ``dict.update``.  The
    bag equals ``Relation(schema, rows)`` over the flattened rows: the
    same first-seen representative per key, the same key order, the
    same multiplicities.  It is fully built before this returns; the
    one result-sized structure held besides it is the tuple counter.

    ``cancel`` is polled before the drain, after every batch and at the
    end.  A raise closes the stream first, so the operators' ``finally``
    blocks (and traced spans) finish before it propagates, and no
    partial relation escapes.
    """
    attrs = _attrs_of(schema)
    counts: Counter[Tuple[Any, ...]] = Counter()
    try:
        if cancel is not None:
            cancel.check()
        for batch in batches:
            if batch.attrs != attrs:
                raise SchemaError(
                    f"batch scheme {list(batch.attrs)} does not match relation scheme "
                    f"{list(attrs)}"
                )
            counts.update(batch.value_tuples())
            if cancel is not None:
                cancel.check()
    finally:
        close = getattr(batches, "close", None)
        if close is not None:
            close()
    if cancel is not None:
        cancel.check()
    bag: Counter[Row] = Counter()
    dict.update(bag, zip(map(partial(row_of, layout_of(attrs)), counts), counts.values()))
    return Relation.adopt(schema, bag)
