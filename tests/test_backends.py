"""Pluggable execution backends: registry, hints, SQLite, conformance tier.

The backend layer's contract, bottom up: the registry knows its builtin
name and declines unknown ones loudly; the hint grammar
round-trips — parsing the emitted SQL's paren nesting recovers exactly
the physical tree's join shape (the property that certifies the hint
really pins the order); hinted and native SQLite execution are bag-equal
to the algebra engine; data sync is generation-keyed and statements are
reused across repeats of one tree; join-key indexes appear in ``sqlite_master``; the
``backend:sqlite`` conformance tier cross-checks clean and declines
leaf-only cases; the oracle recycles pooled connections; and with
``REPRO_BACKEND=local`` (the default route, set explicitly) the service
is byte-identical to a run that never heard of backends.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.algebra import bag_equal, eq
from repro.algebra.predicates import TruePredicate
from repro.algebra.schema import SchemaRegistry
from repro.backends import (
    BackendUnavailableError,
    HintError,
    available_backends,
    create_backend,
    default_backend_name,
    hinted_sql,
    join_shape,
    parse_join_shape,
)
from repro.backends.sqlite_backend import acquire_pooled, release_pooled
from repro.conformance.check import cross_check
from repro.conformance.sqlite_oracle import SQLiteOracle
from repro.core import Rel, Restrict, jn, oj, roj
from repro.datagen import example1_storage, random_database
from repro.engine.storage import Storage
from repro.util.errors import PlanningError

ROOT = Path(__file__).resolve().parents[1]


# -- registry ----------------------------------------------------------------


def test_builtin_backends_are_registered():
    # "local" is the service's in-process route, not a registered backend.
    assert available_backends() == ("sqlite",)


def test_create_unknown_backend_raises():
    with pytest.raises(BackendUnavailableError):
        create_backend("no-such-engine")
    assert issubclass(BackendUnavailableError, PlanningError)  # a tier skip


def test_default_backend_name_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert default_backend_name() == "local"
    monkeypatch.setenv("REPRO_BACKEND", "sqlite")
    assert default_backend_name() == "sqlite"


# -- hint grammar round trip -------------------------------------------------


def _registry(names):
    registry = SchemaRegistry()
    for name in names:
        registry.register(name, [f"{name}.x", f"{name}.y"])
    return registry


def _random_tree(rng, names):
    """A random physical tree: Join/LOJ/ROJ internals, Restrict sprinkles."""
    if len(names) == 1:
        leaf = Rel(names[0])
        return Restrict(leaf, TruePredicate()) if rng.random() < 0.3 else leaf
    cut = rng.randint(1, len(names) - 1)
    left = _random_tree(rng, names[:cut])
    right = _random_tree(rng, names[cut:])
    tree = rng.choice([jn, oj, roj])(left, right, TruePredicate())
    return Restrict(tree, TruePredicate()) if rng.random() < 0.2 else tree


def test_hint_round_trip_property():
    """parse(emit(tree)) == shape(tree) over random trees.

    This is the certificate that the emitted SQL pins the join order:
    the paren nesting (and barrier subqueries) alone reconstruct the
    physical tree's shape, with ``RightOuterJoin`` showing up swapped
    because ``X <- Y`` executes as ``Y LEFT JOIN X``.
    """
    rng = random.Random(20260808)
    for _ in range(150):
        names = [f"T{i}" for i in range(rng.randint(2, 7))]
        tree = _random_tree(rng, names)
        sql, _cols = hinted_sql(tree, _registry(names))
        assert parse_join_shape(sql) == join_shape(tree), sql


def test_join_shape_swaps_right_outer_join():
    tree = roj("A", "B", TruePredicate())
    assert join_shape(tree) == ("B", "A")


def test_hinted_sql_rejects_unhintable_operators():
    from repro.core import foj

    tree = foj("A", "B", TruePredicate())
    with pytest.raises(HintError):
        hinted_sql(tree, _registry(["A", "B"]))


def test_parse_rejects_dangling_join():
    with pytest.raises(HintError):
        parse_join_shape('SELECT "x" FROM "A" CROSS JOIN')


# -- SQLite execution --------------------------------------------------------


@pytest.fixture
def query():
    return jn(oj("A", "B", eq("A.a", "B.a")), "C", eq("B.b", "C.b"))


def _chain_db(seed=11):
    schemas = {name: [f"{name}.a", f"{name}.b"] for name in ("A", "B", "C")}
    return random_database(schemas, seed=seed, max_rows=6)


def test_hinted_and_native_sqlite_match_the_algebra(query):
    db = _chain_db()
    expected = query.eval(db)
    backend = create_backend("sqlite")
    try:
        backend.load_database(db)
        native = backend.execute(query)
        hinted = backend.execute(query, hint=query)
        assert bag_equal(native, expected)
        assert bag_equal(hinted, expected)
        assert backend.counters["hinted_queries"] == 1
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
        row = next(table.scan(), None)
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
        backend.execute(query, hint=query)  # same tree, other mode: new SQL
        backend.execute(oj("A", jn("B", "C", eq("B.b", "C.b")), eq("A.a", "B.a")))
        assert backend.counters["statement_misses"] == 3
    finally:
        backend.close()


def test_join_key_indexes_are_created(query):
    db = _chain_db()
    backend = create_backend("sqlite")
    try:
        backend.load_database(db)
        backend.execute(query, hint=query)
        cur = backend._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='index'"
        )
        names = {row[0] for row in cur.fetchall()}
        assert names, "hinted execution should create join-key indexes"
        assert backend.counters["indexes_built"] == len(names)
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


# -- conformance tier --------------------------------------------------------


def test_backend_sqlite_tier_cross_checks_clean(query):
    db = _chain_db()
    report = cross_check(
        query, db, executors=("naive", "algebra", "backend:sqlite")
    )
    assert report.ok, report.summary()
    assert "backend:sqlite" not in report.skipped


def test_backend_sqlite_tier_declines_leaf_only_cases():
    db = _chain_db()
    report = cross_check(
        Rel("A"), db, executors=("naive", "algebra", "backend:sqlite")
    )
    assert report.ok, report.summary()
    assert "backend:sqlite" in report.skipped


# -- the REPRO_BACKEND=local byte-identity proof -----------------------------

_IDENTITY_SCRIPT = textwrap.dedent(
    """
    import pickle, sys
    from repro.datagen import example1_storage
    from repro.algebra import Comparison, Const, eq
    from repro.core import Restrict, jn, oj
    from repro.service import QueryService

    storage = example1_storage(200)
    query = Restrict(
        jn("R1", oj("R2", "R3", eq("R2.j", "R3.j")), eq("R1.k", "R2.k")),
        Comparison("R3.j", "=", Const(3)),
    )
    with QueryService(storage) as service:
        outcome = service.execute(query)
    rows = sorted(
        (tuple(sorted(row._values.items(), key=str)), n)
        for row, n in outcome.require().counts().items()
    )
    plan = str(outcome.pipeline.chosen.to_infix())
    sys.stdout.buffer.write(pickle.dumps((plan, rows)))
    """
)


def test_backend_local_default_is_byte_identical(tmp_path):
    """``REPRO_BACKEND=local`` must not perturb plans or results at all.

    Two fresh interpreters run the same service query: one with the
    variable unset (a world that never heard of backends), one with it
    explicitly set to the default route.  Their canonical (plan, rows)
    serializations must agree to the byte — the local route bypasses the
    backend layer entirely, so naming it cannot leave a fingerprint.
    """
    script = tmp_path / "identity.py"
    script.write_text(_IDENTITY_SCRIPT)
    outputs = []
    for env_value in (None, "local"):
        env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = "0"
        if env_value is not None:
            env["REPRO_BACKEND"] = env_value
        proc = subprocess.run(
            [sys.executable, str(script)],
            env=env,
            capture_output=True,
            timeout=300,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
