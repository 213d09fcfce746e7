"""SQLite as a warm, persistent oracle engine (promoted from a per-use one).

The conformance oracle used to open a fresh ``:memory:`` connection per
use and re-ship every relation; this backend keeps one **persistent
connection**, syncs data only when the storage *generation* changes,
wraps loads in a single transaction with ``executemany`` **batched
inserts**, and caches transpiled SQL keyed by the expression tree so
sqlite3's internal statement cache can reuse the **prepared statement**
across calls.

The expression transpiles through the conformance
:class:`~repro.conformance.sqlite_oracle.SQLTranspiler` (nested
subqueries), and SQLite's own planner picks the join order: this is the
native engine the ladder measures the local one against.

A small module-level pool (:func:`acquire_pooled`, :func:`release_pooled`)
lets the oracle reuse warm connections across many per-case databases.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
from typing import Dict, Iterable, List, Optional, Tuple

from repro.algebra.nulls import NULL, is_null
from repro.algebra.relation import Database, Relation
from repro.algebra.schema import SchemaRegistry
from repro.algebra.sqlrender import sql_identifier
from repro.algebra.tuples import Row
from repro.core.expressions import Expression
from repro.engine.storage import Storage
from repro.tools import instrumentation
from repro.util.errors import EvaluationError

#: Rows per INSERT batch.  executemany already loops in C; the batch
#: bound just keeps peak argument-buffer memory flat on wide loads.
INSERT_BATCH = 4096


class SQLiteBackend:
    """Persistent in-memory SQLite engine: hold data, answer expression trees."""

    def __init__(self) -> None:
        # check_same_thread=False + our lock: several threads may share
        # one backend; all connection use is serialized below.
        self._conn = sqlite3.connect(":memory:", check_same_thread=False)
        self._lock = threading.RLock()
        self._registry: Optional[SchemaRegistry] = None
        self._generation: Optional[tuple] = None
        self._tables: Tuple[str, ...] = ()
        self._sql_cache: Dict[Expression, str] = {}
        self._closed = False
        self.counters: Dict[str, int] = {
            "syncs": 0,
            "sync_hits": 0,
            "loads": 0,
            "rows_loaded": 0,
            "queries": 0,
            "statement_hits": 0,
            "statement_misses": 0,
        }

    @property
    def registry(self) -> SchemaRegistry:
        if self._registry is None:
            raise EvaluationError("sqlite backend has no data; call sync() first")
        return self._registry

    # -- data ----------------------------------------------------------------

    def sync(self, storage: Storage) -> bool:
        """Mirror the storage unless its generation already matches."""
        with self._lock:
            self.counters["syncs"] += 1
            generation = storage.generation
            if generation == self._generation:
                self.counters["sync_hits"] += 1
                return False
            db = storage.to_database()
            self._load(db.registry, ((name, db[name]) for name in db))
            self._generation = generation
            return True

    def load_database(self, db: Database) -> None:
        """Load an algebra-level database directly (the oracle path).

        Unkeyed: an algebra ``Database`` carries no generation, so every
        load replaces the data.  Amortization across *expressions* over
        one database still holds — that is the oracle's access pattern.
        """
        with self._lock:
            self._load(db.registry, ((name, db[name]) for name in db))
            self._generation = None

    def _load(self, registry: SchemaRegistry, relations: Iterable[Tuple[str, Relation]]) -> None:
        self.counters["loads"] += 1
        self._sql_cache.clear()
        cur = self._conn
        for name in self._tables:
            cur.execute(f"DROP TABLE IF EXISTS {sql_identifier(name)}")
        loaded: List[str] = []
        cur.execute("BEGIN")
        try:
            for name, relation in relations:
                cols = sorted(relation.schema.attributes)
                ddl = ", ".join(sql_identifier(c) for c in cols)
                cur.execute(f"CREATE TABLE {sql_identifier(name)} ({ddl})")
                placeholders = ", ".join("?" for _ in cols)
                insert = f"INSERT INTO {sql_identifier(name)} VALUES ({placeholders})"
                rows = iter(relation)
                while True:
                    batch = [
                        tuple(None if is_null(row[c]) else row[c] for c in cols)
                        for row in itertools.islice(rows, INSERT_BATCH)
                    ]
                    if not batch:
                        break
                    cur.executemany(insert, batch)
                    self.counters["rows_loaded"] += len(batch)
                loaded.append(name)
            cur.execute("COMMIT")
        except BaseException:
            cur.execute("ROLLBACK")
            raise
        self._tables = tuple(loaded)
        self._registry = registry

    # -- execution -----------------------------------------------------------

    def _statement(self, expr: Expression) -> str:
        """Transpile (or replay) the SQL for one execution.

        The cache key is the expression tree (trees are hashable).  Not
        the plan fingerprint: that identifies the query *graph*, and when
        the graph is not freely reorderable, implementing trees with
        different results share it.  Identical SQL text then hits
        sqlite3's internal compiled-statement cache, giving
        prepared-statement reuse without an explicit prepare API.
        """
        sql = self._sql_cache.get(expr)
        if sql is not None:
            self.counters["statement_hits"] += 1
            return sql
        self.counters["statement_misses"] += 1
        from repro.conformance.sqlite_oracle import to_sqlite_sql

        sql = self._sql_cache[expr] = to_sqlite_sql(expr, self.registry)
        return sql

    def execute(self, expr: Expression) -> Relation:
        """Evaluate ``expr`` against the synced data with SQLite's planner."""
        with self._lock:
            self.counters["queries"] += 1
            sql = self._statement(expr)
            instrumentation.bump("backend_sqlite_queries")
            cursor = self._conn.execute(sql)
            names = [d[0] for d in cursor.description]
            rows = [
                Row({n: (NULL if v is None else v) for n, v in zip(names, row)})
                for row in cursor.fetchall()
            ]
            return Relation(names, rows)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._conn.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "backend": "sqlite",
                "tables": len(self._tables),
                **self.counters,
            }


# ---------------------------------------------------------------------------
# Connection pool (the oracle's path)
# ---------------------------------------------------------------------------

_POOL: List[SQLiteBackend] = []
_POOL_LOCK = threading.Lock()
_POOL_MAX = 4


def acquire_pooled() -> SQLiteBackend:
    """Take a warm backend from the pool (or make one)."""
    with _POOL_LOCK:
        while _POOL:
            backend = _POOL.pop()
            if not backend.closed:
                instrumentation.bump("backend_sqlite_pool_hits")
                return backend
    instrumentation.bump("backend_sqlite_pool_misses")
    return SQLiteBackend()


def release_pooled(backend: SQLiteBackend) -> None:
    """Return a backend to the pool; closes it when the pool is full."""
    if backend.closed:
        return
    with _POOL_LOCK:
        if len(_POOL) < _POOL_MAX:
            _POOL.append(backend)
            return
    backend.close()

