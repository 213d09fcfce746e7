"""The SQLite backend: factory, native execution, sync, statements, pool.

The backend is the native oracle and the ladder's yardstick, bottom up:
the factory knows its one name and declines unknown ones loudly; native
execution is bag-equal to the algebra; data sync is generation-keyed;
statements are reused across repeats of one tree and never shared by two
trees of one query graph; and the oracle recycles pooled connections.
"""

from __future__ import annotations

import pytest

from repro.algebra import bag_equal, eq
from repro.algebra.predicates import IsNull
from repro.backends import BackendUnavailableError, available_backends, create_backend
from repro.backends.sqlite_backend import acquire_pooled, release_pooled
from repro.conformance.sqlite_oracle import SQLiteOracle
from repro.core import jn, oj
from repro.datagen import example1_storage, random_database
from repro.engine import execute
from repro.engine.storage import Storage
from repro.optimizer import optimize_query
from repro.util.errors import PlanningError

# -- factory -----------------------------------------------------------------


def test_builtin_backends_are_registered():
    assert available_backends() == ("sqlite",)


def test_create_unknown_backend_raises():
    with pytest.raises(BackendUnavailableError):
        create_backend("no-such-engine")
    assert issubclass(BackendUnavailableError, PlanningError)  # a tier skip


# -- SQLite execution --------------------------------------------------------


@pytest.fixture
def query():
    return jn(oj("A", "B", eq("A.a", "B.a")), "C", eq("B.b", "C.b"))


def _chain_db(seed=11):
    schemas = {name: [f"{name}.a", f"{name}.b"] for name in ("A", "B", "C")}
    return random_database(schemas, seed=seed, max_rows=6)


def test_native_sqlite_matches_the_algebra(query):
    db = _chain_db()
    backend = create_backend("sqlite")
    try:
        backend.load_database(db)
        assert bag_equal(backend.execute(query), query.eval(db))
    finally:
        backend.close()


def test_sync_is_generation_keyed(query):
    db = _chain_db()
    storage = Storage.from_database(db)
    backend = create_backend("sqlite")
    try:
        assert backend.sync(storage) is True
        assert backend.sync(storage) is False  # same generation: no reload
        assert backend.counters["sync_hits"] == 1
        table = storage[next(iter(storage))]
        row = next(iter(table.rows), None)
        if row is not None:
            table.insert(row)
            assert backend.sync(storage) is True  # mutation bumps generation
    finally:
        backend.close()


def test_statement_cache_is_tree_keyed(query):
    db = _chain_db()
    backend = create_backend("sqlite")
    try:
        backend.load_database(db)
        backend.execute(query)
        backend.execute(jn(oj("A", "B", eq("A.a", "B.a")), "C", eq("B.b", "C.b")))
        assert backend.counters["statement_misses"] == 1  # equal trees share
        assert backend.counters["statement_hits"] == 1
        backend.execute(oj("A", jn("B", "C", eq("B.b", "C.b")), eq("A.a", "B.a")))
        assert backend.counters["statement_misses"] == 2
    finally:
        backend.close()


def test_trees_sharing_a_fingerprint_do_not_share_a_statement():
    """``X -> (Y ⋈ Z)`` and ``(X -> Y) ⋈ Z`` under the non-strong
    ``Y.b = Z.b OR Y.b IS NULL`` have one query graph (so one plan
    fingerprint) but different results; each must run its own SQL."""
    storage = Storage()
    storage.create_table("X", ["X.a"], [{"X.a": 1}, {"X.a": 2}])
    storage.create_table("Y", ["Y.a", "Y.b"], [{"Y.a": 1, "Y.b": 5}])
    storage.create_table("Z", ["Z.b"], [{"Z.b": 6}])
    pxy = eq("X.a", "Y.a")
    pyz = eq("Y.b", "Z.b") | IsNull("Y.b")
    queries = [oj("X", jn("Y", "Z", pyz), pxy), jn(oj("X", "Y", pxy), "Z", pyz)]
    prints = {optimize_query(q, storage, use_cache=False).fingerprint for q in queries}
    assert len(prints) == 1
    backend = create_backend("sqlite")
    try:
        backend.sync(storage)
        for q in queries:
            assert bag_equal(backend.execute(q), execute(q, storage).relation), q
        assert backend.counters["statement_hits"] == 0
    finally:
        backend.close()


def test_oracle_recycles_pooled_backends():
    db = example1_storage(40).to_database()
    first = SQLiteOracle(db)
    backend = first._backend
    first.close()
    second = SQLiteOracle(db)
    try:
        assert second._backend is backend  # same warm connection came back
    finally:
        second.close()


def test_pooled_backend_survives_reuse_with_different_schemas():
    db1 = example1_storage(30).to_database()
    db2 = _chain_db(seed=5)
    backend = acquire_pooled()
    try:
        before = backend.counters["loads"]  # pooled: may arrive warm
        backend.load_database(db1)
        backend.load_database(db2)
        assert backend.counters["loads"] == before + 2
    finally:
        release_pooled(backend)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
