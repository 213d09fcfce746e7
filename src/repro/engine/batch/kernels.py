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

The probe loop batches its bookkeeping: candidate pairs are collected
with C-level ``list.extend`` / ``itertools.repeat`` instead of per-pair
Python appends.  A residual (the conjuncts the bucket key does not
cover, or a keyless join's whole predicate) is never evaluated pair by
pair: its attributes are gathered at the candidate pairs into one
:class:`ColumnBatch`, and the same compiled filter that :class:`Filter
<repro.engine.iterators.Filter>` runs selects the surviving pairs.  The
candidate buffer is flushed once it holds ``batch_size()`` pairs at the
end of a probe row, so a keyless join never buffers the whole cross
product.  Output columns are then gathered for the survivors only, one
comprehension per column — this is where the interpreter amortization
the module exists for actually happens.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Mapping
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
from repro.util.fastpath import batch_size

#: Selection pass: (batch, candidate indices) -> surviving indices.
_Pass = Callable[[ColumnBatch, Sequence[int]], List[int]]


class BatchRowView(Mapping):
    """A zero-copy view of one row of a batch's columns, for the scalar
    predicate fallback.

    One instance is reused across a whole pass (the pass moves ``i``
    between evaluations) instead of allocating a row per evaluation.
    """

    __slots__ = ("columns", "i")

    def __init__(self, columns: Dict[str, List[Any]]):
        self.columns = columns
        self.i = 0

    def __getitem__(self, attr: str) -> Any:
        return self.columns[attr][self.i]

    def __iter__(self):
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)


# ---------------------------------------------------------------------------
# Filter compilation
# ---------------------------------------------------------------------------


def _scalar_pass(conjunct: Predicate) -> _Pass:
    """Fallback pass: three-valued evaluation per surviving row."""

    def run(batch: ColumnBatch, indices: Sequence[int]) -> List[int]:
        view = BatchRowView(batch.columns)
        evaluate = conjunct.evaluate
        out = []
        append = out.append
        for i in indices:
            view.i = i
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
        buckets = self.buckets
        get = self.get
        null_append = self.null_indices.append
        i = base
        for v in batch.columns[self.key]:
            if v is NULL:
                null_append(i)
            else:
                bucket = get(v)
                if bucket is None:
                    buckets[v] = [i]
                else:
                    bucket.append(i)
            i += 1

    @property
    def bucketed_rows(self) -> int:
        """Build rows that entered a bucket (the span's ``mem_rows``)."""
        return self.rows - len(self.null_indices)


class BatchHashJoiner:
    """The probe side of one join over a finished build side.

    ``build`` is a :class:`BuildSide` or any object with its ``columns``,
    ``rows`` and ``get``.  ``left_key`` is None exactly when the build has
    no key.  A residual is compiled once (:func:`compile_filter`) and runs
    as column passes over the candidate pairs.  ``metrics`` accounting:
    one predicate evaluation per candidate (bucket) pair — with the semi
    join's short circuit after the first satisfied pair — and one emitted
    row per output row under ``label``.
    """

    __slots__ = (
        "build",
        "left_key",
        "variant",
        "residual",
        "residual_attrs",
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
        #: The compiled residual and the attributes it reads, or None.
        self.residual: Optional[FilterKernel] = None
        self.residual_attrs: Tuple[str, ...] = ()
        if residual is not None and not isinstance(residual, TruePredicate):
            self.residual = compile_filter(residual)
            self.residual_attrs = tuple(sorted(residual.attributes()))
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
        out_l: List[int] = []
        out_r: List[int] = []
        if self.residual is not None:
            for chunk in self._residual_chunks(batch):
                self._extend_survivors(out_l, out_r, *chunk)
            return out_l, out_r
        buckets_get = self.build.get
        key_col = self._key_column(batch)
        pad = self.pad
        append_l = out_l.append
        append_r = out_r.append
        extend_l = out_l.extend
        extend_r = out_r.extend
        track_full = self.variant == "full_outer"
        matched_build = self.matched_build
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
            self.metrics.evaluated(evaluated)
        return out_l, out_r

    def _residual_chunks(
        self, batch: ColumnBatch
    ) -> Iterator[Tuple[Sequence[int], List[int], List[int], List[int]]]:
        """``(rows, cand_l, cand_r, keep)`` for each run of whole probe rows.

        ``cand_l``/``cand_r`` are every bucket pair of the probe positions
        ``rows``, in probe order, so ``cand_l`` ascends as a batch's alive
        positions do (the pad merge and the semi join's count bisect on
        it); ``keep`` holds the ascending positions of
        the pairs that satisfy the residual.  A run ends at the first probe
        row that brings it to ``batch_size()`` pairs, so a keyless join
        holds at most one batch of candidates plus one bucket.
        """
        limit = batch_size()
        buckets_get = self.build.get
        key_col = self._key_column(batch)
        indices = batch.indices()
        start = 0
        cand_l: List[int] = []
        cand_r: List[int] = []
        for pos, i in enumerate(indices):
            key = key_col[i]
            bucket = None if key is NULL else buckets_get(key)
            if bucket:
                cand_r.extend(bucket)
                cand_l.extend(repeat(i, len(bucket)))
                if len(cand_l) >= limit:
                    yield indices[start : pos + 1], cand_l, cand_r, self._survivors(
                        batch, cand_l, cand_r
                    )
                    start = pos + 1
                    cand_l, cand_r = [], []
        if start < len(indices):
            yield indices[start:], cand_l, cand_r, self._survivors(batch, cand_l, cand_r)

    def _survivors(
        self, batch: ColumnBatch, cand_l: List[int], cand_r: List[int]
    ) -> List[int]:
        """The positions of the candidate pairs that satisfy the residual:
        its attributes gathered at the pairs into one batch, then its
        compiled passes."""
        if not cand_l:
            return []
        lcols, rcols = batch.columns, self.build.columns
        columns: Dict[str, List[Any]] = {}
        for a in self.residual_attrs:
            col = lcols.get(a)
            if col is not None:
                columns[a] = [col[i] for i in cand_l]
            else:
                col = rcols[a]
                columns[a] = [col[j] for j in cand_r]
        pairs = ColumnBatch(self.residual_attrs, columns, len(cand_l))
        return self.residual.apply(pairs)

    def _extend_survivors(
        self,
        out_l: List[int],
        out_r: List[int],
        rows: Sequence[int],
        cand_l: List[int],
        cand_r: List[int],
        keep: List[int],
    ) -> None:
        """Append the surviving pairs of one run, with a padding variant's
        pads inline: a probe row with no survivor pairs with -1 at its
        place in probe order."""
        if cand_l:
            self.metrics.evaluated(len(cand_l))
        if len(keep) == len(cand_l):
            surv_l, surv_r = cand_l, cand_r
        else:
            surv_l = [cand_l[k] for k in keep]
            surv_r = [cand_r[k] for k in keep]
        if self.variant == "full_outer":
            self.matched_build.update(surv_r)
        at = 0
        if self.pad:
            matched = set(surv_l)
            for i in rows:
                if i not in matched:
                    cut = bisect_left(surv_l, i, at)
                    out_l.extend(surv_l[at:cut])
                    out_r.extend(surv_r[at:cut])
                    out_l.append(i)
                    out_r.append(-1)
                    at = cut
        out_l.extend(surv_l[at:])
        out_r.extend(surv_r[at:])

    def emit_pairs(
        self, batch: ColumnBatch, out_l: List[int], out_r: List[int]
    ) -> Optional[ColumnBatch]:
        """Gather and account the pairs of :meth:`match_pairs`; None if empty."""
        if not out_l:
            return None
        self.metrics.emitted(self.label, len(out_l))
        return gather_pairs(batch.columns, out_l, self.build.columns, out_r, self.pad)

    def _probe_semi_anti(self, batch: ColumnBatch) -> Optional[ColumnBatch]:
        want = self.variant == "semi"
        sel: List[int] = []
        evaluated = 0
        if self.residual is None:
            buckets_get = self.build.get
            key_col = self._key_column(batch)
            append = sel.append
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
        else:
            for rows, cand_l, cand_r, keep in self._residual_chunks(batch):
                # Each matched probe row's first surviving pair (reversed,
                # so the earliest position is the one the dict keeps).
                first = dict(zip(map(cand_l.__getitem__, reversed(keep)), reversed(keep)))
                skipped = 0
                if want:
                    # A semi join stops at that pair: the rest of the
                    # row's bucket is not evaluated.
                    skipped = sum(bisect_right(cand_l, i, k) - k - 1 for i, k in first.items())
                if cand_l:
                    # Metered per run, so a long keyless probe still
                    # polls the cancel token.
                    self.metrics.evaluated(len(cand_l) - skipped)
                sel.extend(i for i in rows if (i in first) is want)
        if evaluated:
            self.metrics.evaluated(evaluated)
        if not sel:
            return None
        out = batch.with_selection(sel)
        self.metrics.emitted(self.label, len(sel))
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
