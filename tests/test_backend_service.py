"""QueryService backend routing: parity, per-query routes, books, resync.

The service contract for non-local routes: results are bag-equal to the
local engine; ``backend=`` works both as a constructor default and as a
per-query override; unknown routes are rejected eagerly (constructor and
submit) rather than failing inside a worker; the snapshot carries the
per-route counts and per-instance backend books; storage mutations
between queries trigger a generation-keyed resync; and repeated shapes
reuse prepared statements, keyed by the executed tree — never by the
plan fingerprint, which two differently-resulting implementing trees of
a non-freely-reorderable graph share.
"""

from __future__ import annotations

import pytest

from repro.algebra import Comparison, Const, bag_equal, eq
from repro.algebra.predicates import IsNull
from repro.core import Restrict, jn, oj
from repro.datagen import example1_storage
from repro.engine import Storage, execute
from repro.optimizer import PlanCache, optimize_query
from repro.service import QueryService

P12 = eq("R1.k", "R2.k")
P23 = eq("R2.j", "R3.j")


def query(constant: int = 5):
    return Restrict(
        jn("R1", oj("R2", "R3", P23), P12), Comparison("R3.j", "=", Const(constant))
    )


@pytest.fixture
def storage():
    return example1_storage(300)


def test_sqlite_route_matches_local(storage):
    queries = [query(c) for c in range(4)]
    expected = [execute(q, storage).relation for q in queries]
    with QueryService(storage) as service:
        for q, reference in zip(queries, expected):
            outcome = service.execute(q, backend="sqlite")
            assert outcome.status == "ok", outcome.error
            assert bag_equal(outcome.require(), reference)


def test_constructor_default_backend_routes_every_query(storage):
    with QueryService(storage, backend="sqlite") as service:
        outcome = service.execute(query())
        assert outcome.status == "ok", outcome.error
        snap = service.snapshot()
    assert snap["backends"]["default"] == "sqlite"
    assert snap["backends"]["routes"] == {"sqlite": 1}


def test_per_query_override_beats_the_default(storage):
    with QueryService(storage, backend="sqlite") as service:
        local = service.execute(query(), backend="local")
        routed = service.execute(query())
        assert bag_equal(local.require(), routed.require())
        snap = service.snapshot()
    assert snap["backends"]["routes"] == {"sqlite": 1}  # local is not counted
    assert "sqlite" in snap["backends"]["instances"]
    assert "local" not in snap["backends"]["instances"]


def test_unknown_backend_rejected_eagerly(storage):
    with pytest.raises(ValueError):
        QueryService(storage, backend="no-such-engine")
    with QueryService(storage) as service:
        with pytest.raises(ValueError):
            service.submit(query(), backend="no-such-engine")


def test_env_default_routes_through_backend(storage, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "sqlite")
    with QueryService(storage) as service:
        assert service.default_backend == "sqlite"
        outcome = service.execute(query())
        assert outcome.status == "ok", outcome.error
        assert service.snapshot()["backends"]["routes"] == {"sqlite": 1}


def test_mutation_triggers_resync(storage):
    q = jn("R1", oj("R2", "R3", P23), P12)  # unrestricted: non-empty result
    with QueryService(storage) as service:
        first = service.execute(q, backend="sqlite").require()
        assert len(first) > 0
        table = storage["R1"]
        for row in list(table.scan()):
            table.insert(row)  # double every row: multiplicities change
        second = service.execute(q, backend="sqlite").require()
        expected = execute(q, storage).relation
        assert bag_equal(second, expected)
        assert not bag_equal(first, expected)  # the mutation was visible
        books = service.snapshot()["backends"]["instances"]["sqlite"]
        assert books["syncs"] == 2
        assert books["sync_hits"] == 0  # both syncs saw a new generation


def test_repeated_shapes_reuse_prepared_statements(storage):
    q = query()
    with QueryService(storage, plan_cache=PlanCache(16)) as service:
        for _ in range(3):
            assert service.execute(q, backend="sqlite").status == "ok"
        books = service.snapshot()["backends"]["instances"]["sqlite"]
    assert books["statement_misses"] == 1
    assert books["statement_hits"] == 2
    assert books["hinted_queries"] == 3


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
    with QueryService(storage) as service:
        for q in queries:
            outcome = service.execute(q, backend="sqlite")
            assert bag_equal(outcome.require(), execute(q, storage).relation), q
        books = service.snapshot()["backends"]["instances"]["sqlite"]
    assert books["statement_hits"] == 0


def test_close_closes_backend_instances(storage):
    service = QueryService(storage)
    service.execute(query(), backend="sqlite")
    backend = service._backends["sqlite"]
    service.close()
    assert backend.closed
    assert service._backends == {}


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
