"""Base-table storage with simple statistics.

A deliberately small storage layer: heap tables of :class:`Row` objects,
per-attribute distinct counts feeding the optimizer's cardinality model,
and named hash indexes (:mod:`repro.engine.indexes`).  Everything computed
from a table's rows lives in that table's one version-keyed cache
(:meth:`Table.derived`).  Access always flows through the physical
operators so that every base-tuple retrieval is metered.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.algebra.nulls import NULL
from repro.algebra.relation import Database, Relation
from repro.algebra.schema import Schema, SchemaRegistry
from repro.algebra.tuples import Row, columns_of
from repro.engine.indexes import HashIndex
from repro.util.errors import PlanningError, SchemaError


def distinct_counts(rows: Sequence[Row], attributes: Iterable[str]) -> Dict[str, int]:
    """Per-attribute count of distinct non-null values over ``rows``."""
    columns = columns_of(rows, tuple(sorted(attributes)))
    return {attr: len(set(col) - {NULL}) for attr, col in columns.items()}


class Table:
    """A heap table: named, schema'd, with rows and optional hash indexes."""

    def __init__(self, name: str, schema: Schema | Iterable[str], rows: Iterable[Row] = ()):
        self.name = name
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self._rows: List[Row] = []
        self._indexes: Dict[str, HashIndex] = {}
        self._version = 0
        self._derived: Dict[Any, Tuple[int, Any]] = {}
        self._derived_lock = threading.Lock()
        for row in rows:
            self.insert(row)

    @property
    def version(self) -> int:
        """Monotonic data-modification counter (bumped by every insert).

        Every slot of :meth:`derived` — statistics, relation view,
        tries — keys its validity on it.
        """
        return self._version

    def insert(self, row: Row) -> None:
        if row.scheme != self.schema.attributes:
            raise SchemaError(
                f"row scheme {sorted(row.scheme)} does not match table {self.name!r} "
                f"scheme {sorted(self.schema.attributes)}"
            )
        self._rows.append(row)
        for index in self._indexes.values():
            index.insert(row)
        self._version += 1

    @property
    def rows(self) -> List[Row]:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def scan(self) -> Iterator[Row]:
        """Raw iteration; physical operators wrap this with metering."""
        return iter(self._rows)

    # -- indexes -------------------------------------------------------------

    def create_index(self, attribute: str) -> HashIndex:
        """Build (or return) a hash index on one attribute."""
        if attribute not in self.schema:
            raise SchemaError(f"table {self.name!r} has no attribute {attribute!r}")
        if attribute not in self._indexes:
            index = HashIndex(f"{self.name}({attribute})", attribute)
            for row in self._rows:
                index.insert(row)
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
        return self.derived("stats", lambda: distinct_counts(self._rows, self.schema))

    def to_relation(self) -> Relation:
        return Relation(self.schema, self._rows)

    # -- derived structures ----------------------------------------------------

    def derived(self, key: Any, build: "Callable[[], Any]") -> Any:
        """A version-keyed cache slot for structures computed from the rows.

        ``build()`` runs (under the table's derived-structure lock) when
        the slot is empty or the table has been modified since the slot
        was filled.  The tenants are the statistics (:meth:`stats`), the
        relation view (:meth:`Storage.to_database`) and the WCOJ fast
        path's trie indexes.  Callers must treat the returned structure
        as immutable.
        """
        with self._derived_lock:
            version = self._version
            hit = self._derived.get(key)
            if hit is not None and hit[0] == version:
                return hit[1]
            value = build()
            # Stamped with the version read before the build, so an insert
            # racing the build invalidates the slot instead of hiding in it.
            self._derived[key] = (version, value)
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
            rel = db[name]
            storage.add_table(Table(name, rel.schema, list(rel)))
        return storage

    def add_table(self, table: Table) -> Table:
        self._registry.register(table.name, table.schema)
        self._tables[table.name] = table
        return table

    def create_table(
        self, name: str, schema: Iterable[str], rows: Iterable[Mapping[str, Any]] = ()
    ) -> Table:
        return self.add_table(Table(name, Schema(schema), (Row(r) for r in rows)))

    @property
    def registry(self) -> SchemaRegistry:
        return self._registry

    def __getitem__(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise PlanningError(f"unknown table {name!r}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def generation(self) -> Tuple[int, Tuple[Tuple[str, int], ...]]:
        """A hashable token identifying this storage *instance and state*.

        Composed of the instance's process-unique id and the sorted
        ``(table, version)`` vector, so the token changes whenever a
        table is added or any table's data is modified — and two
        distinct storages never share a token even when their contents
        coincide.  The plan cache (:mod:`repro.optimizer.plancache`)
        stamps every entry with it: a generation mismatch invalidates
        the entry instead of replaying a plan chosen for other
        statistics.
        """
        return (
            self._storage_id,
            tuple((name, table.version) for name, table in sorted(self._tables.items())),
        )

    def to_database(self) -> Database:
        """View the storage as an algebra-level database (for oracles).

        Each relation is its table's cached ``"relation"`` slot, so an
        insert rebuilds only the relation of the table it touched.
        Relations are immutable; callers must not ``add`` to the view.
        """
        return Database(
            {
                name: table.derived("relation", table.to_relation)
                for name, table in self._tables.items()
            }
        )
