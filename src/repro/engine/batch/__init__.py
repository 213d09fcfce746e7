"""Vectorized columnar batch execution (MonetDB/X100 style).

The engine's hot path — scan, filter, project, hash join — can execute
batch-at-a-time over :class:`ColumnBatch` chunks instead of one
``Row``-dict at a time, amortizing Python interpreter overhead across
hundreds of tuples per operator call (ROADMAP item 1).  The layer is a
*representation* change only: every batch-native operator emits exactly
the row sequence its row-at-a-time twin would, so ``REPRO_BATCH=0`` and
``=1`` are byte-identical and the row path stays the differential
baseline for the ``batch`` conformance tier.

Layout:

* :mod:`~repro.engine.batch.columns` — the :class:`ColumnBatch`
  representation (per-column lists, selection vectors, cached null
  masks) plus the row<->batch shims.
* :mod:`~repro.engine.batch.kernels` — compiled filter kernels and the
  batch hash-join build/probe for every variant.

The switches (:func:`~repro.util.fastpath.batch_enabled`,
:func:`~repro.util.fastpath.batch_mode`,
:func:`~repro.util.fastpath.batch_size`) live in
:mod:`repro.util.fastpath` with the other dispatch toggles and are
re-exported here for convenience.
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
from repro.util.fastpath import (
    batch_enabled,
    batch_mode,
    batch_size,
    batch_sized,
)

__all__ = [
    "ColumnBatch",
    "batches_from_rows",
    "rows_from_batches",
    "BatchHashJoiner",
    "BuildSide",
    "FilterKernel",
    "compile_filter",
    "batch_enabled",
    "batch_mode",
    "batch_size",
    "batch_sized",
]
