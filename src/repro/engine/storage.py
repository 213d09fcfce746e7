"""Base-table storage with simple statistics.

A deliberately small storage layer: append-only column tables (one value
list per attribute and a row count ``n``), per-attribute distinct counts
feeding the optimizer's cardinality model, and named hash indexes over
row ordinals (:mod:`repro.engine.indexes`).  Everything computed from a
table's rows lives in that table's one version-keyed cache
(:meth:`Table.derived`).  Access always flows through the physical
operators so that every base-tuple retrieval is metered.

``insert`` appends a row's values and index entries and only then bumps
``n``, and no row ever changes, so a reader that has seen ``n`` reads
rows ``0 .. n-1`` complete, with no lock.  Each plan fixes every table's
``n`` when it is built: its snapshot (``ExecutionResult.snapshot``).
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Iterable, Iterator, Mapping
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.algebra.nulls import NULL
from repro.algebra.relation import Database, Relation
from repro.algebra.schema import Schema, SchemaRegistry
from repro.algebra.tuples import Row, layout_of, row_of
from repro.engine.batch.columns import ColumnBatch
from repro.engine.indexes import HashIndex
from repro.util.errors import PlanningError, SchemaError


class Table:
    """An append-only column table with optional hash indexes: ``columns``
    maps each of the sorted ``attrs`` to its values, the first ``n`` rows."""

    def __init__(
        self, name: str, schema: Schema | Iterable[str], rows: Iterable[Row] = (), values=()
    ):
        """A table of ``rows`` (on its scheme), then ``values`` (tuples in ``attrs`` order)."""
        self.name = name
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self.attrs: Tuple[str, ...] = tuple(self.schema)
        self._layout = layout_of(self.attrs)
        loaded = [self._values_of(row) for row in rows]
        loaded.extend(values)
        columns = list(zip(*loaded)) or [()] * len(self.attrs)
        self.columns: Dict[str, List[Any]] = dict(zip(self.attrs, map(list, columns)))
        self.n = len(loaded)
        self._indexes: Dict[str, HashIndex] = {}
        self._write_lock = threading.Lock()
        self._derived: Dict[Any, Tuple[int, Any]] = {}
        self._derived_lock = threading.RLock()

    def _values_of(self, row: Row) -> Tuple[Any, ...]:
        if row._layout is not self._layout:
            raise SchemaError(
                f"row scheme {sorted(row)} does not match table {self.name!r} {list(self.attrs)}"
            )
        return row._vals

    def insert(self, row: Row) -> None:
        """Append one row's values, then its index entries, then bump ``n``:
        a reader that has seen ``n`` never sees it half-written."""
        values = self._values_of(row)
        with self._write_lock:
            for col, value in zip(self.columns.values(), values):
                col.append(value)
            for attr, index in self._indexes.items():
                index.insert(row[attr], self.n)
            self.n += 1

    @property
    def rows(self) -> List[Row]:
        """The rows in insertion order (a cached view; treat it as immutable)."""
        return self.derived("rows", self._rows_upto)

    def _rows_upto(self, n: int) -> List[Row]:
        cols = self.columns.values()
        values = zip(*(c[:n] for c in cols)) if cols else itertools.repeat((), n)
        return list(map(partial(row_of, self._layout), values))

    def __len__(self) -> int:
        return self.n

    def batch(self, start: int, stop: int) -> ColumnBatch:
        """Rows ``start .. stop-1`` as one column batch (copied slices)."""
        columns = {a: col[start:stop] for a, col in self.columns.items()}
        return ColumnBatch(self.attrs, columns, stop - start)

    # -- indexes -------------------------------------------------------------

    def create_index(self, attribute: str) -> HashIndex:
        """Build (or return) a hash index on one attribute."""
        if attribute not in self.schema:
            raise SchemaError(f"table {self.name!r} has no attribute {attribute!r}")
        with self._write_lock:
            if attribute not in self._indexes:
                index = HashIndex(f"{self.name}({attribute})")
                for ordinal, key in enumerate(self.columns[attribute]):
                    index.insert(key, ordinal)
                self._indexes[attribute] = index
            return self._indexes[attribute]

    def index_on(self, attribute: str) -> Optional[HashIndex]:
        return self._indexes.get(attribute)

    @property
    def indexed_attributes(self) -> frozenset[str]:
        return frozenset(self._indexes)

    # -- statistics ------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Distinct non-null values per attribute, cached until the next insert."""
        return self.derived(
            "stats", lambda n: {a: len(set(c[:n]) - {NULL}) for a, c in self.columns.items()}
        )

    def to_relation(self) -> Relation:
        """The rows as a relation (a cached view; treat it as immutable)."""
        return self.derived("relation", lambda n: Relation(self.schema, self.rows[:n]))

    # -- derived structures ----------------------------------------------------

    def derived(self, key: Any, build: Callable[[int], Any], n: Optional[int] = None) -> Any:
        """A version-keyed cache slot for a structure computed from the rows.

        ``build(n)`` computes it from the first ``n`` rows (default: every
        row now), under the table's derived-structure lock, when the slot
        holds none for that ``n``; the slot then holds what it built.
        The tenants are the statistics (:meth:`stats`), the WCOJ path's
        tries over :attr:`columns`, which a plan asks for at its snapshot's
        ``n``, and the row and relation views (:attr:`rows`,
        :meth:`to_relation`) that only the oracle and tests read.
        Callers must treat the returned structure as immutable.
        """
        with self._derived_lock:
            n = self.n if n is None else n
            hit = self._derived.get(key)
            if hit is not None and hit[0] == n:
                return hit[1]
            value = build(n)
            self._derived[key] = (n, value)
            return value


#: Process-unique identity tokens for Storage instances, so that two
#: different storages can never present the same generation (even if
#: their tables happen to share names and version counters).
_storage_ids = itertools.count(1)


class Storage(Mapping[str, Table]):
    """A physical database: tables with disjoint schemes, plus a registry."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._registry = SchemaRegistry()
        self._storage_id = next(_storage_ids)

    @classmethod
    def from_database(cls, db: Database) -> "Storage":
        """Materialize an algebra-level database into engine storage."""
        storage = cls()
        for name in db:
            storage.add_table(Table(name, db[name].schema, db[name]))
        return storage

    def add_table(self, table: Table) -> Table:
        self._registry.register(table.name, table.schema)
        self._tables[table.name] = table
        return table

    def create_table(
        self, name: str, schema: Iterable[str], rows: Iterable[Mapping[str, Any]] = ()
    ) -> Table:
        """Add a table holding ``rows``, each a mapping on exactly its scheme."""
        attrs = tuple(Schema(schema))
        wanted = set(attrs)
        values = []
        for row in rows:
            if row.keys() != wanted:
                raise SchemaError(f"row {sorted(row)} does not match table {name!r} {list(attrs)}")
            values.append(tuple(map(row.__getitem__, attrs)))
        return self.add_table(Table(name, attrs, values=values))

    @property
    def registry(self) -> SchemaRegistry:
        return self._registry

    def __getitem__(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise PlanningError(f"unknown table {name!r}") from None

    def __contains__(self, name: object) -> bool:
        # Mapping's __contains__ and get expect KeyError from __getitem__;
        # ours raises PlanningError, so answer both directly.
        return name in self._tables

    def get(self, name: str, default: Optional[Table] = None) -> Optional[Table]:
        return self._tables.get(name, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def generation(self) -> Tuple[int, Tuple[Tuple[str, int], ...]]:
        """A hashable token identifying this storage *instance and state*.

        Composed of the instance's process-unique id and the sorted
        ``(table, n)`` vector, so the token changes whenever a table is
        added or any table's data is modified — and two distinct
        storages never share a token even when their contents coincide.
        The plan cache (:mod:`repro.optimizer.plancache`) stamps every
        entry with it, so a mismatch re-plans for the new statistics.
        It is not what a plan reads: each plan fixes its own row counts.
        """
        return (
            self._storage_id,
            tuple((name, table.n) for name, table in sorted(self._tables.items())),
        )

    def to_database(self) -> Database:
        """View the storage as an algebra-level database (for oracles).

        Each relation is its table's cached :meth:`Table.to_relation`, so
        an insert rebuilds only the relation of the table it touched.
        Relations are immutable; callers must not ``add`` to the view.
        """
        return Database({name: table.to_relation() for name, table in self._tables.items()})
