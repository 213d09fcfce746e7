"""Tests for engine storage, statistics, and hash indexes."""

import pytest

from repro.algebra import NULL, Database, Relation, Row
from repro.engine import Storage, Table
from repro.engine.indexes import HashIndex
from repro.util.errors import PlanningError, SchemaError


class TestTable:
    def test_insert_and_len(self):
        t = Table("T", ["T.a"], [Row({"T.a": 1}), Row({"T.a": 2})])
        assert len(t) == 2

    def test_insert_wrong_scheme(self):
        t = Table("T", ["T.a"])
        with pytest.raises(SchemaError):
            t.insert(Row({"T.b": 1}))

    def test_stats(self):
        t = Table(
            "T",
            ["T.a"],
            [Row({"T.a": 1}), Row({"T.a": 1}), Row({"T.a": 3}), Row({"T.a": NULL})],
        )
        # Statistics are the distinct non-null count per attribute only:
        # null counts and min/max went because nothing read them.
        assert t.stats() == {"T.a": 2}

    def test_stats_cache_invalidated_on_insert(self):
        t = Table("T", ["T.a"], [Row({"T.a": 1})])
        first = t.stats()
        assert first == {"T.a": 1}
        assert t.stats() is first
        t.insert(Row({"T.a": 2}))
        assert t.stats() == {"T.a": 2}

    def test_insert_during_a_derived_build_invalidates_the_slot(self):
        t = Table("T", ["T.a"], [Row({"T.a": 1})])

        def racing_build():
            t.insert(Row({"T.a": 2}))  # lands while the slot is being built
            return "built before the insert"

        assert t.derived("k", racing_build) == "built before the insert"
        assert t.derived("k", lambda: "rebuilt") == "rebuilt"

    def test_to_relation(self):
        t = Table("T", ["T.a"], [Row({"T.a": 1}), Row({"T.a": 1})])
        rel = t.to_relation()
        assert len(rel) == 2


class TestHashIndex:
    def test_lookup(self):
        idx = HashIndex("T(a)", "a")
        idx.insert(Row({"a": 1, "b": "x"}))
        idx.insert(Row({"a": 1, "b": "y"}))
        idx.insert(Row({"a": 2, "b": "z"}))
        assert len(idx.lookup(1)) == 2
        assert idx.lookup(9) == []

    def test_null_keys_excluded(self):
        idx = HashIndex("T(a)", "a")
        idx.insert(Row({"a": NULL}))
        assert len(idx) == 0
        assert idx.lookup(NULL) == []

    def test_index_maintained_on_insert(self):
        t = Table("T", ["T.a"], [Row({"T.a": 1})])
        idx = t.create_index("T.a")
        t.insert(Row({"T.a": 1}))
        assert len(idx.lookup(1)) == 2

    def test_create_index_idempotent(self):
        t = Table("T", ["T.a"], [Row({"T.a": 1})])
        assert t.create_index("T.a") is t.create_index("T.a")
        assert t.indexed_attributes == frozenset({"T.a"})

    def test_create_index_unknown_attr(self):
        t = Table("T", ["T.a"])
        with pytest.raises(SchemaError):
            t.create_index("T.z")


class TestStorage:
    def test_round_trip_with_database(self):
        db = Database({"R": Relation.from_dicts(["R.a"], [{"R.a": 1}, {"R.a": 1}])})
        storage = Storage.from_database(db)
        back = storage.to_database()
        assert back["R"] == db["R"]

    def test_insert_rebuilds_only_the_touched_relation(self):
        storage = Storage()
        a = storage.create_table("A", ["A.x"], [{"A.x": 1}])
        storage.create_table("B", ["B.y"], [{"B.y": 1}])
        before = storage.to_database()
        assert a.stats() == {"A.x": 1}
        a.insert(Row({"A.x": 2}))
        after = storage.to_database()
        assert a.stats() == {"A.x": 2}
        assert len(before["A"]) == 1 and len(after["A"]) == 2
        assert after["B"] is before["B"]

    def test_disjoint_schemes_enforced(self):
        storage = Storage()
        storage.create_table("R", ["k"], [])
        with pytest.raises(SchemaError):
            storage.create_table("S", ["k"], [])

    def test_unknown_table(self):
        with pytest.raises(PlanningError):
            Storage()["missing"]

    def test_registry(self):
        storage = Storage()
        storage.create_table("R", ["R.a"], [{"R.a": 1}])
        assert storage.registry.owner("R.a") == "R"
