"""Unit tests for tuples: concatenation, padding, projection (Section 1.2)."""

import os
import pickle
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from repro.algebra import NULL, Row, Schema, concat_rows, null_row
from repro.algebra.tuples import layout_of, row_of
from repro.util.errors import SchemaError

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestRowBasics:
    def test_mapping_interface(self):
        r = Row({"a": 1, "b": 2})
        assert r["a"] == 1
        assert set(r) == {"a", "b"}
        assert len(r) == 2

    def test_scheme(self):
        assert Row({"a": 1}).scheme == frozenset({"a"})

    def test_equality_and_hash(self):
        assert Row({"a": 1, "b": 2}) == Row({"b": 2, "a": 1})
        assert hash(Row({"a": 1})) == hash(Row({"a": 1}))

    def test_rows_with_nulls_hash(self):
        assert Row({"a": NULL}) == Row({"a": NULL})
        assert Row({"a": NULL}) != Row({"a": 0})

    def test_rejects_bad_attribute_names(self):
        with pytest.raises(SchemaError):
            Row({"": 1})


class TestConcat:
    def test_concatenation(self):
        t = Row({"a": 1}).concat(Row({"b": 2}))
        assert t == Row({"a": 1, "b": 2})

    def test_function_form(self):
        assert concat_rows(Row({"a": 1}), Row({"b": 2})) == Row({"a": 1, "b": 2})

    def test_requires_disjoint_schemes(self):
        with pytest.raises(SchemaError):
            Row({"a": 1}).concat(Row({"a": 2}))


class TestPadding:
    def test_pad_adds_nulls(self):
        padded = Row({"a": 1}).pad_to(Schema(["a", "b", "c"]))
        assert padded["b"] is NULL and padded["c"] is NULL

    def test_pad_to_same_scheme_is_identity(self):
        r = Row({"a": 1})
        assert r.pad_to(["a"]) is r

    def test_pad_cannot_drop_attributes(self):
        with pytest.raises(SchemaError):
            Row({"a": 1, "b": 2}).pad_to(["a"])

    def test_null_row(self):
        nr = null_row(["a", "b"])
        assert nr.is_all_null()
        assert nr.scheme == frozenset({"a", "b"})


class TestProjectAndPredicates:
    def test_project(self):
        assert Row({"a": 1, "b": 2}).project(["a"]) == Row({"a": 1})

    def test_project_missing_attribute(self):
        with pytest.raises(SchemaError):
            Row({"a": 1}).project(["z"])

    def test_is_all_null_subset(self):
        r = Row({"a": NULL, "b": 2})
        assert r.is_all_null(["a"])
        assert not r.is_all_null(["b"])
        assert not r.is_all_null()

    def test_with_value(self):
        assert Row({"a": 1}).with_value("a", 9) == Row({"a": 9})
        with pytest.raises(SchemaError):
            Row({"a": 1}).with_value("b", 9)


class TestRowContract:
    """A row is a value tuple on an interned layout; equality and hashing
    are those of the attribute -> value assignment."""

    def test_every_constructor_builds_one_row(self):
        rows = [
            Row({"a": 1, "b": NULL, "c": "x"}),
            Row({"c": "x", "a": 1, "b": NULL}),
            Row([("b", NULL), ("c", "x"), ("a", 1)]),
            row_of(layout_of(("a", "b", "c")), (1, NULL, "x")),
            Row({"c": "x"}).concat(Row({"b": NULL, "a": 1})),
            Row({"a": 1}).concat(null_row(["b"])).concat(Row({"c": "x"})),
        ]
        assert all(row == rows[0] for row in rows)
        assert len({hash(row) for row in rows}) == 1
        assert len(set(rows)) == 1
        assert list(rows[1]) == ["a", "b", "c"]

    def test_numbers_merge_and_null_equals_only_itself(self):
        one, one_f, one_b = Row({"a": 1}), Row({"a": 1.0}), Row({"a": True})
        assert one == one_f == one_b
        assert hash(one) == hash(one_f) == hash(one_b)
        bag = Counter([one_f, one, one_b])
        assert list(bag.items()) == [(one_f, 3)]
        assert repr(next(iter(bag))) == "Row(a=1.0)"
        assert Row({"a": NULL}) == Row({"a": NULL})
        assert hash(Row({"a": NULL})) == hash(Row({"a": NULL}))
        assert Row({"a": NULL}) != Row({"a": None})
        assert Row({"a": NULL}) != Row({"a": 0})
        assert NULL == NULL and NULL != None and NULL != 0  # noqa: E711

    def test_equal_values_on_different_schemes_are_unequal(self):
        assert Row({"a": 1}) != Row({"b": 1})
        assert Row({"a": 1, "b": 2}) != Row({"a": 1, "c": 2})
        assert Row({"a": 1, "b": NULL}) != null_row(["a", "c"]).with_value("a", 1)
        assert len({Row({"a": 1}), Row({"b": 1})}) == 2

    def test_one_layout_per_scheme_and_only_sorted_ones(self):
        row = Row({"L.b": 1, "L.a": 2})
        assert row._layout is Row({"L.a": 0, "L.b": 0})._layout
        assert row._layout is layout_of(("L.a", "L.b"))
        assert row.project(["L.a"])._layout is layout_of(("L.a",))
        for unsorted in [("L.b", "L.a"), ("L.a", "L.a")]:
            with pytest.raises(SchemaError):
                layout_of(unsorted)

    def test_threads_interning_one_scheme_get_one_layout(self):
        schemes = [(f"T{i}.a", f"T{i}.b") for i in range(2000)]
        got: list = []
        start = threading.Barrier(8)

        def intern() -> None:
            start.wait(timeout=30)
            got.append([layout_of(s) for s in schemes])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=intern) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(got) == 8
        assert all(layout is first for seen in got for layout, first in zip(seen, got[0]))

    def test_concat_of_ordered_reversed_and_interleaved_schemes(self):
        a, b, c = Row({"A.x": 1, "A.y": 2}), Row({"B.x": 3}), Row({"C.x": NULL, "C.y": 5})
        whole = Row({"A.x": 1, "A.y": 2, "B.x": 3, "C.x": NULL, "C.y": 5})
        assert a.concat(b).concat(c) == c.concat(b).concat(a) == a.concat(c).concat(b) == whole
        assert list(a.concat(c).concat(b)) == ["A.x", "A.y", "B.x", "C.x", "C.y"]
        assert a.concat(Row({})) == a == Row({}).concat(a)
        for left, right in [(a, a), (a.concat(c), Row({"B.x": 0, "C.y": 0})), (b, a.concat(b))]:
            with pytest.raises(SchemaError):
                left.concat(right)

    def test_repr_sorts_attributes_and_shows_values(self):
        assert repr(Row({"b": "x", "a": 1, "c": NULL})) == "Row(a=1, b='x', c=NULL)"
        assert repr(Row({"T.y": 2.5, "T.x": True})) == "Row(T.x=True, T.y=2.5)"
        assert repr(Row({})) == "Row()"

    def test_pickle_round_trip_under_another_hash_seed(self):
        row = Row({"name": "alice", "k": 3, "gone": NULL})
        seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
        child = (
            "import pickle, sys\n"
            "from repro.algebra import NULL, Row\n"
            "row = pickle.loads(sys.stdin.buffer.read())\n"
            "local = Row({'k': 3, 'gone': NULL, 'name': 'alice'})\n"
            "assert row == local and hash(row) == hash(local) and {local: 1}[row] == 1\n"
            "assert row['gone'] is NULL\n"
            "sys.stdout.buffer.write(pickle.dumps(row.with_value('k', 4)))\n"
        )
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC}
        out = subprocess.run(
            [sys.executable, "-c", child], input=pickle.dumps(row),
            capture_output=True, env=env, check=True,
        ).stdout
        back = pickle.loads(out)
        assert back == row.with_value("k", 4)
        assert {row.with_value("k", 4): "hit"}[back] == "hit"
        assert back["gone"] is NULL
