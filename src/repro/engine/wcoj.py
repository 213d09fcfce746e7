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
* **3VL**: a row with NULL in any key attribute can never satisfy an
  equality conjunct, so it is excluded from the trie outright (the
  binary hash kernels drop the same rows at probe time).  Likewise a row
  whose same-class attributes disagree is excluded: the query equates
  them.
* **Bag semantics**: trie leaves keep the full duplicate row lists; a
  full variable match emits the cross product of the matched leaves.
* **Caching**: base-table tries are memoized on the table through
  :meth:`~repro.engine.storage.Table.derived`, keyed by the key-level
  layout and valid for the row count they were built at (a scan of
  another ``n`` builds its own) — the same generation discipline as the
  plan cache and the SQLite oracle snapshot.  Filtered inputs get ad-hoc
  tries (the filter changes the row set).
* **Metering**: inputs are always drained through ``op.execute`` so
  retrieval/filter metering matches the other executors even on a trie
  cache hit; the operator reports ``wcoj_seeks`` / ``wcoj_ties`` (and
  trie builds) through its span and the global instrumentation counters.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.algebra.nulls import is_null, satisfied
from repro.algebra.predicates import Predicate, conjunction
from repro.algebra.tuples import Row
from repro.core.wcoj_order import WcojSpec
from repro.engine.batch.columns import ColumnBatch, rows_from_batches
from repro.engine.iterators import Filter, PhysicalOp, SeqScan, TracedOp
from repro.engine.metrics import Metrics
from repro.engine.storage import Storage, Table
from repro.tools import instrumentation
from repro.util.errors import PlanningError

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
    at the deepest level, the list of rows carrying that full key vector
    (duplicates preserved: bag semantics).
    """

    __slots__ = ("values", "wrapped", "children")

    def __init__(self, values: list, wrapped: list, children: list):
        self.values = values
        self.wrapped = wrapped
        self.children = children


def _node_of(items: Sequence[tuple], depth: int, levels: int) -> _TrieNode:
    """Build the node at ``depth`` from sorted ``(wrapped, key, rows)`` runs."""
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
    """A sorted trie over one relation's rows under fixed key levels."""

    __slots__ = ("key_groups", "levels", "root", "rows_indexed", "rows_excluded")

    def __init__(
        self,
        key_groups: KeyGroups,
        root: _TrieNode,
        rows_indexed: int,
        rows_excluded: int,
    ):
        self.key_groups = key_groups
        self.levels = len(key_groups)
        self.root = root
        self.rows_indexed = rows_indexed
        self.rows_excluded = rows_excluded

    @classmethod
    def build(cls, rows: Sequence[Row], key_groups: KeyGroups) -> "TrieIndex":
        """Index ``rows`` under ``key_groups`` (one sorted level each).

        Rows with a NULL key attribute, or whose same-class attributes
        disagree, can never join and are excluded up front.
        """
        if not key_groups:
            raise PlanningError("a WCOJ trie needs at least one key level")
        grouped: Dict[tuple, Tuple[tuple, List[Row]]] = {}
        excluded = 0
        for row in rows:
            key: list = []
            usable = True
            for _var, attrs in key_groups:
                values = [row[attr] for attr in attrs]
                first = _sort_key(values[0])
                if any(is_null(v) for v in values) or any(
                    _sort_key(v) != first for v in values[1:]
                ):
                    usable = False
                    break
                key.append(values[0])
            if not usable:
                excluded += 1
                continue
            wkey = tuple(_sort_key(v) for v in key)
            entry = grouped.get(wkey)
            if entry is None:
                grouped[wkey] = (tuple(key), [row])
            else:
                entry[1].append(row)
        items = sorted(
            (wkey, key, leaf) for wkey, (key, leaf) in grouped.items()
        )
        root = (
            _node_of(items, 0, len(key_groups))
            if items
            else _TrieNode([], [], [])
        )
        return cls(key_groups, root, len(rows) - excluded, excluded)

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

    def leaf_rows(self) -> List[Row]:
        """The duplicate-preserving row list under the current full key."""
        node, pos = self._stack[-1]
        return node.children[pos]


def trie_for(table: Table, key_groups: KeyGroups, n: int) -> Tuple[TrieIndex, bool]:
    """The table's trie over its first ``n`` rows: (built, True) or (hit, False).

    Cached through :meth:`Table.derived` for the ``n`` it was built at: an
    insert invalidates, and a plan built before the insert reads its rows.
    """
    built = [False]

    def build(n: int) -> TrieIndex:
        built[0] = True
        instrumentation.bump("trie_builds")
        return TrieIndex.build(table.rows[:n], key_groups)

    trie = table.derived(("wcoj-trie", key_groups), build, n)
    return trie, built[0]


class LeapfrogTriejoinOp(PhysicalOp):
    """N-ary worst-case optimal join over sorted tries.

    ``inputs`` is aligned with ``spec.order`` (one physical child per
    relation).  Execution materializes/indexes every input, then runs
    the leapfrog recursion over ``spec.variables``; a full match emits
    the cross product of the matched leaf row lists (bag semantics),
    post-filtered by the spec's residual non-equality conjuncts.
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
        self._residual: Optional[Predicate] = (
            conjunction(list(spec.residuals)) if spec.residuals else None
        )
        #: Which inputs participate in each global variable, by position.
        self._by_var: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(
                i
                for i, name in enumerate(spec.order)
                if any(var == v for v, _attrs in spec.keys_for(name))
            )
            for var in spec.variables
        )

    def children(self) -> tuple[PhysicalOp, ...]:
        return self.inputs

    def _rows(self, metrics: Metrics) -> Iterator[Row]:
        """The row-at-a-time join itself; ``execute_batches`` chunks it."""
        tries: List[TrieIndex] = []
        total = 0
        builds = 0
        for name, op in zip(self.spec.order, self.inputs):
            # Every input is drained, even when its trie is cached, so the
            # retrieval/filter metering matches the other executors.
            batches = op.execute_batches(metrics)
            groups = self.spec.keys_for(name)
            inner = op
            while isinstance(inner, TracedOp):
                inner = inner.inner
            if isinstance(inner, SeqScan):
                # The table's own trie indexes it; the batches only meter.
                total += sum(batch.num_rows for batch in batches)
                trie, built = trie_for(inner.table, groups, inner.n)
            else:
                rows = list(rows_from_batches(batches))
                total += len(rows)
                trie = TrieIndex.build(rows, groups)
                built = True
                instrumentation.bump("trie_builds")
            builds += int(built)
            tries.append(trie)
        if self._span is not None:
            self._span.counters["mem_rows"] = total
            self._span.counters["trie_builds"] = builds

        cursors = [trie.cursor() for trie in tries]
        seeks = 0
        ties = 0
        label = "LeapfrogTriejoin"
        residual = self._residual

        def joined(level: int) -> Iterator[Row]:
            nonlocal seeks, ties
            if level == len(self.spec.variables):
                leaves = [cursor.leaf_rows() for cursor in cursors]
                for combo in itertools.product(*leaves):
                    row = combo[0]
                    for other in combo[1:]:
                        row = row.concat(other)
                    if residual is not None:
                        metrics.evaluated()
                        if not satisfied(residual.evaluate(row)):
                            continue
                    yield row
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
            for row in joined(0):
                metrics.emitted(label)
                yield row
        finally:
            if seeks:
                instrumentation.bump("wcoj_seeks", seeks)
            if ties:
                instrumentation.bump("wcoj_ties", ties)
            if self._span is not None:
                self._span.counters["wcoj_seeks"] += seeks
                self._span.counters["wcoj_ties"] += ties

    def execute_batches(self, metrics: Metrics) -> Iterator[ColumnBatch]:
        return self._emit_rows(self._rows(metrics))

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        head = (
            f"{pad}LeapfrogTriejoin[vars={','.join(self.spec.variables)}, "
            f"rels={len(self.spec.order)}, residuals={len(self.spec.residuals)}]"
        )
        return "\n".join([head] + [op.describe(indent + 2) for op in self.inputs])


def build_wcoj_plan(
    spec: WcojSpec,
    storage: Storage,
    filters: Dict[str, List[Predicate]],
    counts: Optional[Dict[str, int]] = None,
) -> LeapfrogTriejoinOp:
    """A Leapfrog Triejoin physical plan: filtered scans under the join op,
    each at its table's row count in ``counts`` if given (else read now)."""
    inputs: List[PhysicalOp] = []
    for node in spec.order:
        op: PhysicalOp = SeqScan(storage[node], (counts or {}).get(node))
        preds = filters.get(node)
        if preds:
            op = Filter(op, conjunction(list(preds)))
        inputs.append(op)
    return LeapfrogTriejoinOp(spec, tuple(inputs))
