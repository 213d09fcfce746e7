"""Batch-native kernels: compiled filters and hash build/probe.

Two families live here:

**Filter compilation.**  :func:`compile_filter` turns a predicate into a
:class:`FilterKernel` whose ``apply(batch)`` returns a selection vector.
Simple conjuncts — ``attr op const``, ``attr op attr``, ``attr IS
NULL``, ``NOT (attr IS NULL)`` — compile to per-column loops that test
the ``NULL`` marker inline (SQL 3VL: a null operand makes a comparison
*unknown*, and unknown does not satisfy); every other conjunct falls back
to three-valued :meth:`~repro.algebra.predicates.Predicate.evaluate`
against a zero-copy column-row view.  A mixed predicate vectorizes the
conjuncts it can and row-evaluates the rest over the (already narrowed)
selection.  Any ``TypeError`` raised by a vectorized comparison re-runs
that conjunct through the scalar evaluator so the error (and its
message) is the algebra evaluator's.

**Join build/probe.**  A *build side* is anything with ``columns``
(attribute -> value list), ``rows`` and ``get(key) -> ordinals``.
:class:`BuildSide` accumulates build batches into columnar storage plus
a key-value -> row-index bucket dict (null keys go to a never-matching
pool, exactly as in :mod:`repro.algebra.kernels`) and offers the dict's
``get``; a build with no key puts every row in one bucket.  The index
nested-loop join's side is a base table's columns with ``get`` its hash
index's lookup below the plan's row count.
:class:`BatchHashJoiner` is the engine's one probe loop.  It serves every
variant — ``inner``, ``left_outer``, ``full_outer``, ``semi``, ``anti``
— for the hash join, for the keyless join (a one-bucket build whose
whole predicate is the residual), for the index nested-loop join and
for the generalized outerjoin (the inner match plus its own witness
tail).  Output is in probe order: matches in bucket order, then
full-outer right pads at the end.  An unmatched probe row of a padding
variant is paired inline with the pad ordinal ``-1``, which
:func:`gather_pairs` reads as NULL in every build column.  ``Metrics``
accounting is one predicate evaluation per candidate pair, including
the semi join's first-match short circuit.

The probe loop batches its bookkeeping: match lists are extended with
C-level ``list.extend`` / ``itertools.repeat`` instead of per-pair
Python appends, and output columns are materialized with one gather
comprehension per column — this is where the interpreter amortization
the module exists for actually happens.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algebra.nulls import NULL, satisfied
from repro.algebra.predicates import (
    AttrRef,
    Comparison,
    Const,
    IsNull,
    Not,
    Predicate,
    TruePredicate,
    _COMPARATORS,
)
from repro.engine.batch.columns import ColumnBatch

#: Selection pass: (batch, candidate indices) -> surviving indices.
_Pass = Callable[[ColumnBatch, Sequence[int]], List[int]]


class PairColsView(Mapping):
    """A zero-copy view of a (probe row, build row) pair for residuals, or
    of one batch row (empty ``rcols``) for the scalar predicate fallback.

    One instance is reused across a whole probe batch (the kernels mutate
    ``li``/``ri`` between evaluations) instead of allocating a
    :class:`~repro.algebra.predicates.PairView` per pair.
    """

    __slots__ = ("lcols", "rcols", "li", "ri")

    def __init__(self, lcols: Dict[str, List[Any]], rcols: Dict[str, List[Any]]):
        self.lcols = lcols
        self.rcols = rcols
        self.li = 0
        self.ri = 0

    def __getitem__(self, attr: str) -> Any:
        col = self.lcols.get(attr)
        if col is not None:
            return col[self.li]
        return self.rcols[attr][self.ri]

    def __iter__(self):
        yield from self.lcols
        yield from self.rcols

    def __len__(self) -> int:
        return len(self.lcols) + len(self.rcols)


# ---------------------------------------------------------------------------
# Filter compilation
# ---------------------------------------------------------------------------


def _scalar_pass(conjunct: Predicate) -> _Pass:
    """Fallback pass: three-valued evaluation per surviving row."""

    def run(batch: ColumnBatch, indices: Sequence[int]) -> List[int]:
        view = PairColsView(batch.columns, {})
        evaluate = conjunct.evaluate
        out = []
        append = out.append
        for i in indices:
            view.li = i
            if satisfied(evaluate(view)):
                append(i)
        return out

    return run


def _comparison_pass(conjunct: Comparison) -> Optional[_Pass]:
    """A vectorized pass for ``attr op const`` / ``attr op attr``, or None."""
    cmp = _COMPARATORS[conjunct.op]
    left, right = conjunct.left, conjunct.right

    if isinstance(left, AttrRef) and isinstance(right, Const):
        attr, const = left.name, right.const
        if const is NULL:
            return lambda batch, indices: []  # NULL operand: always unknown

        def run_ac(batch: ColumnBatch, indices: Sequence[int]) -> List[int]:
            col = batch.columns[attr]
            try:
                return [i for i in indices if (v := col[i]) is not NULL and cmp(v, const)]
            except TypeError:
                return _scalar_pass(conjunct)(batch, indices)

        return run_ac

    if isinstance(left, Const) and isinstance(right, AttrRef):
        const, attr = left.const, right.name
        if const is NULL:
            return lambda batch, indices: []

        def run_ca(batch: ColumnBatch, indices: Sequence[int]) -> List[int]:
            col = batch.columns[attr]
            try:
                return [i for i in indices if (v := col[i]) is not NULL and cmp(const, v)]
            except TypeError:
                return _scalar_pass(conjunct)(batch, indices)

        return run_ca

    if isinstance(left, AttrRef) and isinstance(right, AttrRef):
        a, b = left.name, right.name

        def run_aa(batch: ColumnBatch, indices: Sequence[int]) -> List[int]:
            ca, cb = batch.columns[a], batch.columns[b]
            try:
                return [
                    i
                    for i in indices
                    if (va := ca[i]) is not NULL
                    and (vb := cb[i]) is not NULL
                    and cmp(va, vb)
                ]
            except TypeError:
                return _scalar_pass(conjunct)(batch, indices)

        return run_aa

    return None


def _vector_pass(conjunct: Predicate) -> Optional[_Pass]:
    """A vectorized pass for one conjunct, or None when not compilable."""
    if isinstance(conjunct, Comparison):
        return _comparison_pass(conjunct)
    if isinstance(conjunct, IsNull) and isinstance(conjunct.term, AttrRef):
        attr = conjunct.term.name

        def run_isnull(batch: ColumnBatch, indices: Sequence[int]) -> List[int]:
            mask = batch.null_mask(attr)
            return [i for i in indices if mask[i]]

        return run_isnull
    if (
        isinstance(conjunct, Not)
        and isinstance(conjunct.child, IsNull)
        and isinstance(conjunct.child.term, AttrRef)
    ):
        attr = conjunct.child.term.name

        def run_notnull(batch: ColumnBatch, indices: Sequence[int]) -> List[int]:
            mask = batch.null_mask(attr)
            return [i for i in indices if not mask[i]]

        return run_notnull
    if isinstance(conjunct, TruePredicate):
        return lambda batch, indices: list(indices)
    return None


class FilterKernel:
    """A predicate compiled to selection passes over column batches."""

    __slots__ = ("predicate", "passes")

    def __init__(self, predicate: Predicate):
        self.predicate = predicate
        self.passes: List[_Pass] = [
            _vector_pass(conjunct) or _scalar_pass(conjunct)
            for conjunct in predicate.conjuncts()
        ]
        if not self.passes:  # TruePredicate: conjuncts() is empty
            self.passes.append(lambda batch, indices: list(indices))

    def apply(self, batch: ColumnBatch) -> List[int]:
        """The selection vector of rows satisfying the whole predicate."""
        indices: Sequence[int] = batch.indices()
        for run in self.passes:
            if not indices:
                return []
            indices = run(batch, indices)
        return indices if isinstance(indices, list) else list(indices)


_FILTER_CACHE: Dict[Predicate, FilterKernel] = {}
_FILTER_CACHE_LIMIT = 4096


def compile_filter(predicate: Predicate) -> FilterKernel:
    """Compile (and memoize) a predicate into a :class:`FilterKernel`."""
    kernel = _FILTER_CACHE.get(predicate)
    if kernel is None:
        kernel = FilterKernel(predicate)
        if len(_FILTER_CACHE) >= _FILTER_CACHE_LIMIT:
            _FILTER_CACHE.clear()
        _FILTER_CACHE[predicate] = kernel
    return kernel


# ---------------------------------------------------------------------------
# Hash join build/probe
# ---------------------------------------------------------------------------

#: Join variants the batch joiner serves (GOJ rides on the inner probe in
#: :mod:`repro.engine.goj_op`).
JOIN_VARIANTS = ("inner", "left_outer", "full_outer", "semi", "anti")


class BuildSide:
    """A drained build side: its columns plus the key -> row-index buckets.

    ``get(key)`` is the bucket dict's ``get``: the ordinals of the build
    rows with that key, or None.  Rows whose key is null are kept in the
    columns (a full outerjoin must pad them out at the end) but never
    enter a bucket, so they can never match — the same null-key fate the
    algebra kernels realize.  With ``key=None`` there is no key: every
    row enters the one bucket ``()``, so each probe row's candidates are
    the whole build side.
    """

    __slots__ = ("key", "attrs", "columns", "buckets", "get", "null_indices", "rows")

    def __init__(self, key: Optional[str], attrs: Sequence[str]):
        self.key = key
        self.attrs = tuple(attrs)
        self.columns: Dict[str, List[Any]] = {a: [] for a in self.attrs}
        self.buckets: Dict[Any, List[int]] = {}
        self.get = self.buckets.get
        self.null_indices: List[int] = []
        self.rows = 0

    def add_batch(self, batch: ColumnBatch) -> None:
        if batch.selection is not None:
            batch = batch.compact()
        base = self.rows
        for attr in self.attrs:
            self.columns[attr].extend(batch.columns[attr])
        self.rows = base + batch.length
        if self.key is None:
            self.buckets.setdefault((), []).extend(range(base, self.rows))
            return
        setdefault = self.buckets.setdefault
        null_append = self.null_indices.append
        i = base
        for v in batch.columns[self.key]:
            if v is NULL:
                null_append(i)
            else:
                setdefault(v, []).append(i)
            i += 1

    @property
    def bucketed_rows(self) -> int:
        """Build rows that entered a bucket (the span's ``mem_rows``)."""
        return self.rows - len(self.null_indices)


class BatchHashJoiner:
    """The probe side of one join over a finished build side.

    ``build`` is a :class:`BuildSide` or any object with its ``columns``,
    ``rows`` and ``get``.  ``left_key`` is None exactly when the build has
    no key.  ``metrics`` accounting: one predicate evaluation per
    candidate (bucket) pair — with the semi join's short circuit after
    the first satisfied pair — and one emitted row per output row under
    ``label``.
    """

    __slots__ = (
        "build",
        "left_key",
        "variant",
        "residual",
        "metrics",
        "label",
        "pad",
        "matched_build",
    )

    def __init__(
        self,
        build,
        left_key: Optional[str],
        variant: str,
        residual: Optional[Predicate],
        metrics,
        label: str,
    ):
        if variant not in JOIN_VARIANTS:
            from repro.util.errors import PlanningError

            raise PlanningError(f"unknown batch join variant {variant!r}")
        self.build = build
        self.left_key = left_key
        self.variant = variant
        if residual is None or isinstance(residual, TruePredicate):
            self.residual = None
        else:
            self.residual = residual
        self.metrics = metrics
        self.label = label
        #: Does an unmatched probe row pair with the pad ordinal -1?
        self.pad = variant in ("left_outer", "full_outer")
        self.matched_build: set[int] = set()

    # -- probe ----------------------------------------------------------------

    def probe(self, batch: ColumnBatch) -> Optional[ColumnBatch]:
        """Join one probe batch; None when it produces no output rows."""
        if self.variant in ("semi", "anti"):
            return self._probe_semi_anti(batch)
        return self.emit_pairs(batch, *self.match_pairs(batch))

    def _key_column(self, batch: ColumnBatch) -> List[Any]:
        """The probe keys of ``batch``: one ``()`` per row for a keyless build."""
        if self.left_key is None:
            return [()] * batch.length
        return batch.columns[self.left_key]

    def match_pairs(self, batch: ColumnBatch) -> Tuple[List[int], List[int]]:
        """(probe_positions, build_indices): the pairs ``batch`` joins into.

        The two lists are parallel, in probe order with each bucket's
        matches in insertion order — the join's emission order.  When the
        variant pads, a probe row with no satisfied pair appears once,
        paired with the pad ordinal -1.
        """
        metrics = self.metrics
        buckets_get = self.build.get
        key_col = self._key_column(batch)
        residual = self.residual
        pad = self.pad
        out_l: List[int] = []
        out_r: List[int] = []
        append_l = out_l.append
        append_r = out_r.append
        track_full = self.variant == "full_outer"
        matched_build = self.matched_build
        if residual is None:
            extend_l = out_l.extend
            extend_r = out_r.extend
            evaluated = 0
            for i in batch.indices():
                key = key_col[i]
                bucket = None if key is NULL else buckets_get(key)
                if bucket:
                    n = len(bucket)
                    evaluated += n
                    extend_r(bucket)
                    extend_l(repeat(i, n))
                    if track_full:
                        matched_build.update(bucket)
                elif pad:
                    append_l(i)
                    append_r(-1)
            if evaluated:
                metrics.evaluated(evaluated)
        else:
            view = PairColsView(batch.columns, self.build.columns)
            evaluate = residual.evaluate
            for i in batch.indices():
                key = key_col[i]
                bucket = None if key is NULL else buckets_get(key)
                matched = False
                if bucket:
                    metrics.evaluated(len(bucket))
                    view.li = i
                    for j in bucket:
                        view.ri = j
                        if satisfied(evaluate(view)):
                            matched = True
                            append_l(i)
                            append_r(j)
                            if track_full:
                                matched_build.add(j)
                if not matched and pad:
                    append_l(i)
                    append_r(-1)
        return out_l, out_r

    def emit_pairs(
        self, batch: ColumnBatch, out_l: List[int], out_r: List[int]
    ) -> Optional[ColumnBatch]:
        """Gather and account the pairs of :meth:`match_pairs`; None if empty."""
        if not out_l:
            return None
        self.metrics.emitted(self.label, len(out_l))
        return gather_pairs(batch.columns, out_l, self.build.columns, out_r, self.pad)

    def _probe_semi_anti(self, batch: ColumnBatch) -> Optional[ColumnBatch]:
        metrics = self.metrics
        buckets_get = self.build.get
        key_col = self._key_column(batch)
        residual = self.residual
        want = self.variant == "semi"
        sel: List[int] = []
        append = sel.append
        if residual is None:
            evaluated = 0
            for i in batch.indices():
                key = key_col[i]
                bucket = None if key is NULL else buckets_get(key)
                if bucket:
                    # Bucket pairs are evaluated until the first
                    # match: with no residual that is one evaluation for
                    # semi, the whole bucket for anti (no short circuit).
                    evaluated += 1 if want else len(bucket)
                    if want:
                        append(i)
                elif not want:
                    append(i)
            if evaluated:
                metrics.evaluated(evaluated)
        else:
            view = PairColsView(batch.columns, self.build.columns)
            evaluate = residual.evaluate
            for i in batch.indices():
                key = key_col[i]
                bucket = None if key is NULL else buckets_get(key)
                matched = False
                if bucket:
                    view.li = i
                    if want:
                        for j in bucket:
                            metrics.evaluated()
                            view.ri = j
                            if satisfied(evaluate(view)):
                                matched = True
                                break
                    else:
                        metrics.evaluated(len(bucket))
                        for j in bucket:
                            view.ri = j
                            if satisfied(evaluate(view)):
                                matched = True
                if matched is want:
                    append(i)
        if not sel:
            return None
        out = batch.with_selection(sel)
        metrics.emitted(self.label, len(sel))
        return out

    # -- full-outer tail -------------------------------------------------------

    def finish(self, left_attrs: Sequence[str]) -> Optional[ColumnBatch]:
        """Unmatched build rows, null-padded on the left (full outer only)."""
        if self.variant != "full_outer":
            return None
        matched = self.matched_build
        tail = [j for j in range(self.build.rows) if j not in matched]
        if not tail:
            return None
        columns: Dict[str, List[Any]] = {
            a: [NULL] * len(tail) for a in left_attrs
        }
        for a, col in self.build.columns.items():
            columns[a] = [col[j] for j in tail]
        attrs = tuple(sorted(columns))
        out = ColumnBatch(attrs, columns, len(tail))
        self.metrics.emitted(self.label, len(tail))
        return out


def gather_pairs(
    lcols: Dict[str, List[Any]],
    out_l: Sequence[int],
    rcols: Dict[str, List[Any]],
    out_r: Sequence[int],
    pad: bool = False,
) -> ColumnBatch:
    """The batch of joined pairs: left columns gathered at ``out_l``, right
    columns at the parallel ``out_r`` (one comprehension per column).  With
    ``pad``, the right ordinal -1 reads NULL in every right column."""
    columns = {a: [col[i] for i in out_l] for a, col in lcols.items()}
    for a, col in rcols.items():
        if pad:
            columns[a] = [NULL if j < 0 else col[j] for j in out_r]
        else:
            columns[a] = [col[j] for j in out_r]
    return ColumnBatch(tuple(sorted(columns)), columns, len(out_l))
