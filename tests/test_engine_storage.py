"""Tests for engine storage, statistics, and hash indexes."""

import sys
import threading

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

        def racing_build(n):
            t.insert(Row({"T.a": 2}))  # lands while the slot is being built
            return f"built for {n} rows"

        assert t.derived("k", racing_build) == "built for 1 rows"
        assert t.derived("k", lambda n: f"rebuilt for {n} rows") == "rebuilt for 2 rows"

    def test_concurrent_inserts_lose_no_row_and_keep_rows_whole(self):
        t = Table("T", ["T.a", "T.b"])
        index = t.create_index("T.a")
        writers, per_writer = 4, 3000

        def write(w):
            for i in range(per_writer):
                key = w * per_writer + i
                t.insert(Row({"T.a": key, "T.b": -key}))

        threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = writers * per_writer
        assert len(t) == total
        assert sorted(t.columns["T.a"]) == list(range(total))
        assert all(b == -a for a, b in zip(t.columns["T.a"], t.columns["T.b"]))
        assert all(index.lookup(a, total) == [i] for i, a in enumerate(t.columns["T.a"]))

    def test_to_relation(self):
        t = Table("T", ["T.a"], [Row({"T.a": 1}), Row({"T.a": 1})])
        rel = t.to_relation()
        assert len(rel) == 2


class TestHashIndex:
    def test_lookup(self):
        # Buckets hold row ordinals; a lookup returns those below n.
        idx = HashIndex("T(a)")
        idx.insert(1, 0)
        idx.insert(1, 1)
        idx.insert(2, 2)
        assert idx.lookup(1, 3) == [0, 1]
        assert idx.lookup(1, 1) == [0]
        assert idx.lookup(9, 3) == []

    def test_null_keys_excluded(self):
        idx = HashIndex("T(a)")
        idx.insert(NULL, 0)
        assert len(idx) == 0
        assert idx.lookup(NULL, 1) == []

    def test_index_maintained_on_insert(self):
        t = Table("T", ["T.a"], [Row({"T.a": 1})])
        idx = t.create_index("T.a")
        t.insert(Row({"T.a": 1}))
        assert idx.lookup(1, len(t)) == [0, 1]

    def test_failed_insert_changes_nothing(self):
        t = Table("T", ["T.a", "T.b"], [Row({"T.a": 1, "T.b": "x"})])
        t.create_index("T.a")
        t.create_index("T.b")
        for bad in (Row({"T.a": 2}), Row({"T.a": 2, "T.b": "y", "T.c": 0}), Row({"T.z": 2})):
            with pytest.raises(SchemaError):
                t.insert(bad)
        assert t.n == 1
        assert t.columns == {"T.a": [1], "T.b": ["x"]}
        assert t.index_on("T.a").lookup(2, 2) == [] and len(t.index_on("T.a")) == 1
        assert t.index_on("T.b").lookup("y", 2) == [] and len(t.index_on("T.b")) == 1

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

    @pytest.mark.parametrize(
        "bad", [{"R.a": 2}, {"R.a": 2, "R.b": 3, "R.c": 4}, {"R.a": 2, "R.c": 3}],
        ids=["missing", "extra", "other"],
    )
    def test_create_table_rejects_a_row_off_the_scheme(self, bad):
        storage = Storage()
        with pytest.raises(SchemaError):
            storage.create_table("R", ["R.a", "R.b"], [{"R.a": 1, "R.b": 1}, bad])
        assert list(storage) == []
        # The scheme was never registered: the same table can be made now.
        table = storage.create_table("R", ["R.a", "R.b"], [{"R.b": 1, "R.a": 2}])
        assert table.columns == {"R.a": [2], "R.b": [1]}

    def test_unknown_table(self):
        with pytest.raises(PlanningError):
            Storage()["missing"]

    def test_membership_and_get_answer_for_an_unknown_table(self):
        storage = Storage()
        table = storage.create_table("R", ["R.a"], [{"R.a": 1}])
        assert "R" in storage and "S" not in storage and 7 not in storage
        assert storage.get("R") is table
        assert storage.get("S") is None
        assert storage.get("S", table) is table

    def test_registry(self):
        storage = Storage()
        storage.create_table("R", ["R.a"], [{"R.a": 1}])
        assert storage.registry.owner("R.a") == "R"
