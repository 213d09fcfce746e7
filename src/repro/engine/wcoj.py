"""The cyclic fast path: sorted tries + Leapfrog Triejoin.

Binary join plans can materialize intermediates far above the final
output on cyclic queries — the triangle query's best binary plan touches
``|R||S|/d`` rows where the output is only ``O(N^1.5)`` (the AGM bound).
:class:`LeapfrogTriejoinOp` joins *variable-at-a-time* instead
(Veldhuizen 2012): every input relation is indexed as a sorted trie
whose key levels follow the :class:`~repro.core.wcoj_order.WcojSpec`'s
global attribute-class order, and each variable is resolved by
*leapfrogging* the participating tries — repeatedly seeking the
smallest-keyed iterator up to the largest current key until all agree —
so no intermediate ever exceeds the fractional-cover bound.

Mechanics worth knowing:

* **Trie keys** are compared through :func:`_sort_key`, which prefixes
  every value with a type tag — one total order over mixed-type
  columns without Python 3 cross-type comparisons.  Numbers share a
  tag, so ``1``, ``1.0`` and ``True`` are one key, as under ``=``.
* **Leaves are row ordinals**, duplicates kept (bag semantics), into
  the table's own columns for a bare scan, else the drained input's.
* **3VL**: a row with NULL in any key attribute, or whose same-class
  attributes disagree, can never join, so its ordinal is left out.
* **Output**: a full match appends the cross product of the matched
  leaves to one ordinal list per input, gathered into a column batch
  every ``batch_size()`` combinations.  The spec's residual conjuncts
  run in a ``Filter`` above the operator (:func:`build_wcoj_plan`).
* **Caching**: base-table tries are memoized through
  :meth:`~repro.engine.storage.Table.derived`, keyed by the key levels
  and valid for the row count they were built at.  Which inputs are
  bare scans is fixed when the operator is built.
* **Metering**: every input is drained, even on a trie cache hit, so
  retrieval/filter metering matches the other executors;
  ``rows_emitted`` is bumped once per batch.  Seeks, ties and trie
  builds go to the span; seeks and builds also to ``STATS``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.nulls import is_null
from repro.algebra.predicates import Predicate, conjunction
from repro.core.wcoj_order import WcojSpec
from repro.engine.batch.columns import ColumnBatch
from repro.engine.iterators import Filter, PhysicalOp, SeqScan
from repro.engine.metrics import Metrics
from repro.engine.storage import Storage, Table
from repro.tools import instrumentation
from repro.util.errors import PlanningError
from repro.util.fastpath import batch_size

#: One trie key level: ``(variable, attributes)`` — the attributes of a
#: single relation that the query places in the class ``variable``.
KeyGroups = Tuple[Tuple[str, Tuple[str, ...]], ...]


def _sort_key(value) -> tuple:
    """A totally-ordered proxy for a trie key value.

    Prefixing a type tag keeps mixed-type columns sortable (Python 3
    refuses ``3 < "x"``).  Numbers (``bool`` is an ``int``) share one
    tag and order by value; any other value is tagged with its class.
    """
    if isinstance(value, (int, float)):
        return ("number", value)
    return (value.__class__.__name__, value)


class _TrieNode:
    """One level of a sorted trie.

    ``values[i]`` / ``wrapped[i]`` are the distinct keys at this level
    (raw and sort-wrapped, kept parallel so :func:`bisect_left` can run
    on the wrapped array).  ``children[i]`` is the next-level node — or,
    at the deepest level, the ascending list of row ordinals carrying
    that full key vector (duplicates preserved: bag semantics).
    """

    __slots__ = ("values", "wrapped", "children")

    def __init__(self, values: list, wrapped: list, children: list):
        self.values = values
        self.wrapped = wrapped
        self.children = children


def _node_of(items: Sequence[tuple], depth: int, levels: int) -> _TrieNode:
    """Build the node at ``depth`` from sorted ``(wrapped, key, ordinals)`` runs."""
    values: list = []
    wrapped: list = []
    children: list = []
    i, n = 0, len(items)
    while i < n:
        w = items[i][0][depth]
        j = i
        while j < n and items[j][0][depth] == w:
            j += 1
        values.append(items[i][1][depth])
        wrapped.append(w)
        if depth + 1 == levels:
            children.append(items[i][2])  # full key vectors are distinct: j == i+1
        else:
            children.append(_node_of(items[i:j], depth + 1, levels))
        i = j
    return _TrieNode(values, wrapped, children)


class TrieIndex:
    """A sorted trie over the row ordinals of one relation's columns."""

    __slots__ = ("key_groups", "levels", "root", "rows_indexed", "rows_excluded")

    def __init__(self, key_groups: KeyGroups, root: _TrieNode, indexed: int, excluded: int):
        self.key_groups = key_groups
        self.levels = len(key_groups)
        self.root = root
        self.rows_indexed = indexed
        self.rows_excluded = excluded

    @classmethod
    def build(cls, columns: Mapping[str, Sequence], n: int, key_groups: KeyGroups) -> "TrieIndex":
        """Index ordinals ``0 .. n-1`` of ``columns`` under ``key_groups``.

        A row with a NULL key attribute, or whose same-class attributes
        disagree, can never join and is left out up front.
        """
        if not key_groups:
            raise PlanningError("a WCOJ trie needs at least one key level")
        levels = [[columns[attr] for attr in attrs] for _var, attrs in key_groups]
        grouped: Dict[tuple, Tuple[tuple, List[int]]] = {}
        excluded = 0
        for ordinal in range(n):
            key: list = []
            for cols in levels:
                values = [col[ordinal] for col in cols]
                first = _sort_key(values[0])
                if any(map(is_null, values)) or any(_sort_key(v) != first for v in values[1:]):
                    break
                key.append(values[0])
            else:
                wkey = tuple(map(_sort_key, key))
                entry = grouped.get(wkey)
                if entry is None:
                    grouped[wkey] = (tuple(key), [ordinal])
                else:
                    entry[1].append(ordinal)
                continue
            excluded += 1
        items = sorted((wkey, key, leaf) for wkey, (key, leaf) in grouped.items())
        root = _node_of(items, 0, len(key_groups)) if items else _TrieNode([], [], [])
        return cls(key_groups, root, n - excluded, excluded)

    def cursor(self) -> "TrieCursor":
        return TrieCursor(self.root)


class TrieCursor:
    """Leapfrog-style cursor: ``open``/``up`` move levels, ``next``/``seek``
    move within one, in sorted key order.

    ``next`` and ``seek`` return True when the level is exhausted (the
    leapfrog's at-end signal).  ``seek`` takes a *wrapped* key and never
    moves backwards, so a full leapfrog pass over a level is linear in
    the level plus the seeks' binary-search logs.
    """

    __slots__ = ("_root", "_stack")

    def __init__(self, root: _TrieNode):
        self._root = root
        self._stack: List[list] = []  # [node, position] frames

    @property
    def depth(self) -> int:
        return len(self._stack)

    def open(self) -> bool:
        """Descend into the current key's child level; True if empty."""
        if self._stack:
            node, pos = self._stack[-1]
            child = node.children[pos]
        else:
            child = self._root
        self._stack.append([child, 0])
        return self.at_end()

    def up(self) -> None:
        self._stack.pop()

    def at_end(self) -> bool:
        node, pos = self._stack[-1]
        return pos >= len(node.values)

    def key(self):
        node, pos = self._stack[-1]
        return node.values[pos]

    def wrapped_key(self) -> tuple:
        node, pos = self._stack[-1]
        return node.wrapped[pos]

    def next(self) -> bool:
        """Step to the next key at this level; True at end."""
        frame = self._stack[-1]
        frame[1] += 1
        return frame[1] >= len(frame[0].values)

    def seek(self, wrapped: tuple) -> bool:
        """Jump forward to the first key >= ``wrapped``; True at end."""
        frame = self._stack[-1]
        frame[1] = bisect_left(frame[0].wrapped, wrapped, frame[1])
        return frame[1] >= len(frame[0].values)

    def leaf_ordinals(self) -> List[int]:
        """The duplicate-preserving ordinal list under the current full key."""
        node, pos = self._stack[-1]
        return node.children[pos]


def trie_for(table: Table, key_groups: KeyGroups, n: int) -> Tuple[TrieIndex, bool]:
    """The trie over the table's first ``n`` rows: (built, True) or (hit, False).

    Built from ``table.columns`` and cached through :meth:`Table.derived`
    for the ``n`` it was built at.
    """
    built = [False]

    def build(n: int) -> TrieIndex:
        built[0] = True
        instrumentation.bump("trie_builds")
        return TrieIndex.build(table.columns, n, key_groups)

    trie = table.derived(("wcoj-trie", key_groups), build, n)
    return trie, built[0]


class LeapfrogTriejoinOp(PhysicalOp):
    """N-ary worst-case optimal join over sorted tries.

    ``inputs`` is aligned with ``spec.order`` (one physical child per
    relation).  Execution indexes every input's row ordinals, then runs
    the leapfrog recursion over ``spec.variables``; a full match emits
    the cross product of the matched leaves (bag semantics).
    """

    def __init__(self, spec: WcojSpec, inputs: Tuple[PhysicalOp, ...]):
        if len(inputs) != len(spec.order):
            raise PlanningError(
                f"Leapfrog plan needs one input per relation: "
                f"{len(spec.order)} relations, {len(inputs)} inputs"
            )
        self.spec = spec
        self.inputs = tuple(inputs)
        schema = self.inputs[0].schema
        for op in self.inputs[1:]:
            schema = schema.union(op.schema)
        self.schema = schema
        #: Per input, ``(table, n)`` when it is a bare scan, whose trie is
        #: the table's cached one; None when it needs an ad-hoc trie.
        self._scans: Tuple[Optional[Tuple[Table, int]], ...] = tuple(
            (op.table, op.n) if isinstance(op, SeqScan) else None for op in self.inputs
        )
        #: Which inputs participate in each global variable, by position.
        self._by_var: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(i for i, name in enumerate(spec.order) if var in dict(spec.keys_for(name)))
            for var in spec.variables
        )

    def children(self) -> tuple[PhysicalOp, ...]:
        return self.inputs

    def execute_batches(self, metrics: Metrics) -> Iterator[ColumnBatch]:
        """Index every input, leapfrog, and gather the matches a batch at a time."""
        tries: List[TrieIndex] = []
        sources: List[Mapping[str, list]] = []  # the columns each trie's ordinals index
        total = builds = 0
        for name, op, scan in zip(self.spec.order, self.inputs, self._scans):
            groups = self.spec.keys_for(name)
            if scan is None:  # drained once into local columns, which its trie indexes
                columns = {attr: [] for attr in sorted(op.schema.attributes)}
                for batch in map(ColumnBatch.compact, op.execute_batches(metrics)):
                    for attr, col in columns.items():
                        col.extend(batch.columns[attr])
                n = len(columns[groups[0][1][0]])  # a key column's length: the row count
                trie, built = TrieIndex.build(columns, n, groups), True
                instrumentation.bump("trie_builds")
            else:
                # The table's own trie indexes it; the drain only meters, so
                # retrieval/filter metering matches the other executors.
                for _batch in op.execute_batches(metrics):
                    pass
                (table, n), columns = scan, scan[0].columns
                trie, built = trie_for(table, groups, n)
            total += n
            builds += built
            tries.append(trie)
            sources.append(columns)
        if self._span is not None:
            self._span.counters["mem_rows"] = total
            self._span.counters["trie_builds"] = builds

        cursors = [trie.cursor() for trie in tries]
        depth = len(self.spec.variables)
        attrs = tuple(sorted(self.schema.attributes))
        size = batch_size()
        #: Per input, the ordinals of the combinations not yet emitted.
        ords: List[List[int]] = [[] for _ in tries]
        *heads, tail = ords
        seeks = ties = 0
        label = "LeapfrogTriejoin"

        def cut(final: bool) -> Iterator[ColumnBatch]:
            """Emit the pending combinations in ``size`` chunks (and the rest if ``final``)."""
            pending = len(tail)
            stop = pending if final else pending - pending % size
            for start in range(0, stop, size):
                end = min(start + size, stop)
                columns: Dict[str, list] = {}
                for cols, idx in zip(sources, ords):
                    part = idx[start:end]
                    for attr, col in cols.items():
                        columns[attr] = list(map(col.__getitem__, part))
                metrics.emitted(label, end - start)
                yield self._emit_batch(ColumnBatch(attrs, columns, end - start))
            for idx in ords:
                del idx[:stop]

        def joined(level: int) -> Iterator[ColumnBatch]:
            nonlocal seeks, ties
            if level == depth:
                *lead, last = [cursor.leaf_ordinals() for cursor in cursors]
                width = len(last)
                for combo in itertools.product(*lead):
                    for idx, ordinal in zip(heads, combo):
                        idx.extend(itertools.repeat(ordinal, width))
                    tail.extend(last)
                    if len(tail) >= size:
                        yield from cut(False)
                return
            active = [cursors[i] for i in self._by_var[level]]
            empty = False
            for cursor in active:
                empty = cursor.open() or empty
            try:
                if empty:
                    return
                active.sort(key=TrieCursor.wrapped_key)
                p, k = 0, len(active)
                x_max = active[-1].wrapped_key()
                while True:
                    cursor = active[p]
                    if cursor.wrapped_key() == x_max:
                        ties += 1
                        yield from joined(level + 1)
                        if cursor.next():
                            return
                    else:
                        seeks += 1
                        if cursor.seek(x_max):
                            return
                    x_max = cursor.wrapped_key()
                    p = (p + 1) % k
            finally:
                for cursor in active:
                    cursor.up()

        try:
            yield from joined(0)
            yield from cut(True)
        finally:
            if seeks:
                instrumentation.bump("wcoj_seeks", seeks)
            if self._span is not None:
                self._span.counters["wcoj_seeks"] += seeks
                self._span.counters["wcoj_ties"] += ties

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        head = (
            f"{pad}LeapfrogTriejoin[vars={','.join(self.spec.variables)}, "
            f"rels={len(self.spec.order)}]"
        )
        return "\n".join([head] + [op.describe(indent + 2) for op in self.inputs])


def build_wcoj_plan(
    spec: WcojSpec,
    storage: Storage,
    filters: Dict[str, List[Predicate]],
    counts: Optional[Dict[str, int]] = None,
) -> PhysicalOp:
    """A Leapfrog Triejoin physical plan: filtered scans under the join op,
    each at its table's row count in ``counts`` if given (else read now),
    and the spec's residual conjuncts in a filter above it."""
    inputs: List[PhysicalOp] = []
    for node in spec.order:
        op: PhysicalOp = SeqScan(storage[node], (counts or {}).get(node))
        preds = filters.get(node)
        if preds:
            op = Filter(op, conjunction(list(preds)))
        inputs.append(op)
    plan: PhysicalOp = LeapfrogTriejoinOp(spec, tuple(inputs))
    if spec.residuals:
        plan = Filter(plan, conjunction(list(spec.residuals)))
    return plan
