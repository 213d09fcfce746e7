"""Vectorized columnar batch execution (MonetDB/X100 style).

Every physical operator — scan, filter, project, the hash, index
nested-loop and nested-loop joins, GOJ, and the n-ary joins — executes
batch-at-a-time over :class:`ColumnBatch` chunks instead of one
``Row`` at a time, amortizing Python interpreter overhead across
hundreds of tuples per operator call.  It is the only implementation of
every operator; row consumers see the batches flattened.

Layout:

* :mod:`~repro.engine.batch.columns` — the :class:`ColumnBatch`
  representation (per-column lists, selection vectors, cached null
  masks), the batch->row flattening behind ``PhysicalOp.execute``,
  the executor's result materializer, and the row chunking that the
  row-internal Yannakakis join emits through.
* :mod:`~repro.engine.batch.kernels` — compiled filter kernels and the
  batch hash-join build/probe for every variant.

The chunk size (:func:`~repro.util.fastpath.batch_size`,
:func:`~repro.util.fastpath.batch_sized`) lives in
:mod:`repro.util.fastpath` and is re-exported here for convenience.
"""

from repro.engine.batch.columns import (
    ColumnBatch,
    batches_from_rows,
    rows_from_batches,
)
from repro.engine.batch.kernels import (
    BatchHashJoiner,
    BuildSide,
    FilterKernel,
    compile_filter,
)
from repro.util.fastpath import batch_size, batch_sized

__all__ = [
    "ColumnBatch",
    "batches_from_rows",
    "rows_from_batches",
    "BatchHashJoiner",
    "BuildSide",
    "FilterKernel",
    "compile_filter",
    "batch_size",
    "batch_sized",
]
