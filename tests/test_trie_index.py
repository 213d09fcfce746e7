"""Property-based invariants for the WCOJ sorted tries.

The leapfrog operator's correctness rests entirely on a handful of trie
invariants — keys sorted at every level, duplicates preserved at the
leaves, NULL-keyed rows excluded, seeks monotone and exact — so this
suite drives them across randomized relations rather than a few
hand-picked shapes.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.nulls import NULL, is_null
from repro.algebra.tuples import Row
from repro.datagen.random_db import random_relation
from repro.engine.storage import Table
from repro.engine.wcoj import TrieIndex, _sort_key, trie_for
from repro.util.errors import PlanningError

KEYS = (("x", ("R.a",)), ("y", ("R.b",)))


def build(rows, key_groups=KEYS):
    return TrieIndex.build(rows, key_groups)


def rows_of(n_rows, rng, domain=3, null_probability=0.2):
    relation = random_relation(
        ["R.a", "R.b", "R.c"],
        rng,
        max_rows=n_rows,
        domain=domain,
        null_probability=null_probability,
        allow_empty=True,
    )
    return list(relation)


def walk_keyvecs(trie):
    """All full key vectors (wrapped), depth-first via the cursor."""
    out = []

    def descend(cursor, prefix):
        if cursor.open():
            cursor.up()
            return
        while not cursor.at_end():
            vec = prefix + [cursor.wrapped_key()]
            if cursor.depth == trie.levels:
                out.append((tuple(vec), list(cursor.leaf_rows())))
            else:
                descend(cursor, vec)
            cursor.next()
        cursor.up()

    cursor = trie.cursor()
    descend(cursor, [])
    return out


class TestBuildInvariants:
    def test_levels_sorted_and_leaves_complete(self):
        rng = random.Random(11)
        for trial in range(50):
            rows = rows_of(10, rng)
            trie = build(rows)
            keyvecs = walk_keyvecs(trie)
            # Full key vectors come out in strictly increasing order.
            vecs = [vec for vec, _leaf in keyvecs]
            assert vecs == sorted(vecs)
            assert len(vecs) == len(set(vecs))
            # Every row is either excluded (a NULL key) or in exactly
            # one leaf, under its own key vector.
            indexed = sum(len(leaf) for _vec, leaf in keyvecs)
            assert indexed == trie.rows_indexed
            assert indexed + trie.rows_excluded == len(rows)
            for vec, leaf in keyvecs:
                for row in leaf:
                    assert vec == (_sort_key(row["R.a"]), _sort_key(row["R.b"]))

    def test_null_key_rows_are_excluded(self):
        rows = [
            Row({"R.a": 1, "R.b": 2, "R.c": 3}),
            Row({"R.a": NULL, "R.b": 2, "R.c": 3}),
            Row({"R.a": 1, "R.b": NULL, "R.c": NULL}),
            Row({"R.a": NULL, "R.b": NULL, "R.c": 0}),
        ]
        trie = build(rows)
        assert trie.rows_indexed == 1
        assert trie.rows_excluded == 3
        [(vec, leaf)] = walk_keyvecs(trie)
        assert leaf == [rows[0]]

    def test_all_null_key_column_yields_empty_trie(self):
        rows = [Row({"R.a": NULL, "R.b": i, "R.c": i}) for i in range(4)]
        trie = build(rows)
        assert trie.rows_indexed == 0
        assert trie.rows_excluded == 4
        cursor = trie.cursor()
        assert cursor.open()  # empty root: at end immediately

    def test_duplicate_rows_stay_in_the_leaf(self):
        row = Row({"R.a": 1, "R.b": 1, "R.c": 9})
        other = Row({"R.a": 1, "R.b": 1, "R.c": 7})
        trie = build([row, row, other, row])
        [(_vec, leaf)] = walk_keyvecs(trie)
        assert len(leaf) == 4  # bag semantics: all four survive

    def test_same_class_attribute_disagreement_excludes_the_row(self):
        # Both attributes of the only key level are in one class: rows
        # where they differ can never satisfy the equality and are
        # dropped at build time.
        groups = (("x", ("R.a", "R.b")),)
        rows = [
            Row({"R.a": 1, "R.b": 1, "R.c": 0}),
            Row({"R.a": 1, "R.b": 2, "R.c": 0}),
        ]
        trie = build(rows, groups)
        assert trie.rows_indexed == 1
        assert trie.rows_excluded == 1

    def test_equal_numbers_of_different_classes_are_one_key(self):
        # 1, 1.0 and True are equal under ``=``: one trie key, and a
        # same-class pair such as (1, 1.0) agrees.
        groups = (("x", ("R.a", "R.b")),)
        rows = [
            Row({"R.a": 1, "R.b": 1.0, "R.c": 0}),
            Row({"R.a": 1.0, "R.b": True, "R.c": 1}),
            Row({"R.a": True, "R.b": 1, "R.c": 2}),
        ]
        trie = build(rows, groups)
        assert trie.rows_excluded == 0
        [(_vec, leaf)] = walk_keyvecs(trie)
        assert len(leaf) == 3
        assert sorted([2, 0.5, True, 1.5, False], key=_sort_key) == [False, 0.5, True, 1.5, 2]

    def test_empty_key_groups_rejected(self):
        with pytest.raises(PlanningError):
            build([], ())


class TestCursor:
    def test_seek_is_exact_and_monotone(self):
        rng = random.Random(23)
        for trial in range(50):
            rows = rows_of(12, rng, domain=6)
            trie = build(rows)
            cursor = trie.cursor()
            if cursor.open():
                cursor.up()
                continue
            level_keys = []
            while not cursor.at_end():
                level_keys.append(cursor.wrapped_key())
                cursor.next()
            cursor.up()
            # Seeking each present key from a fresh cursor lands on it.
            for target in level_keys:
                fresh = trie.cursor()
                fresh.open()
                assert not fresh.seek(target)
                assert fresh.wrapped_key() == target
            # Seeking past the maximum reports end-of-level ("\U0010ffff"
            # sorts after every type-name prefix).
            fresh = trie.cursor()
            fresh.open()
            assert fresh.seek(("\U0010ffff",))
            assert fresh.at_end()

    def test_open_seek_past_end(self):
        rows = [Row({"R.a": a, "R.b": 0, "R.c": 0}) for a in (1, 3, 5)]
        trie = build(rows)
        cursor = trie.cursor()
        assert not cursor.open()
        assert not cursor.seek(_sort_key(4))  # lands on 5
        assert cursor.key() == 5
        assert cursor.seek(_sort_key(6))  # past the last key: end
        assert cursor.at_end()

    def test_seek_never_moves_backwards(self):
        rows = [Row({"R.a": a, "R.b": 0, "R.c": 0}) for a in (1, 2, 3, 4)]
        trie = build(rows)
        cursor = trie.cursor()
        cursor.open()
        cursor.seek(_sort_key(3))
        assert cursor.key() == 3
        cursor.seek(_sort_key(1))  # smaller target: cursor stays put
        assert cursor.key() == 3

    def test_up_restores_parent_position(self):
        rows = [Row({"R.a": a, "R.b": b, "R.c": 0}) for a in (1, 2) for b in (1, 2)]
        trie = build(rows)
        cursor = trie.cursor()
        cursor.open()
        cursor.next()
        assert cursor.key() == 2
        cursor.open()
        assert cursor.key() == 1
        cursor.up()
        assert cursor.key() == 2  # parent frame untouched by the descent


class TestGenerationInvalidation:
    def test_insert_rebuilds_cached_trie(self):
        table = Table("R", ["R.a", "R.b", "R.c"])
        table.insert(Row({"R.a": 1, "R.b": 1, "R.c": 1}))
        first, built_first = trie_for(table, KEYS, len(table))
        assert built_first
        again, built_again = trie_for(table, KEYS, len(table))
        assert again is first and not built_again  # cache hit, same object
        table.insert(Row({"R.a": 2, "R.b": 2, "R.c": 2}))
        rebuilt, built_rebuilt = trie_for(table, KEYS, len(table))
        assert built_rebuilt and rebuilt is not first
        assert rebuilt.rows_indexed == 2

    def test_distinct_key_groups_cache_independently(self):
        table = Table("R", ["R.a", "R.b", "R.c"])
        table.insert(Row({"R.a": 1, "R.b": 2, "R.c": 3}))
        one, _ = trie_for(table, KEYS, len(table))
        other_keys = (("x", ("R.b",)), ("y", ("R.c",)))
        other, built = trie_for(table, other_keys, len(table))
        assert built and other is not one
        assert trie_for(table, KEYS, len(table))[0] is one  # first layout still cached


class TestRandomizedAgainstNaive:
    def test_trie_contents_match_hash_grouping(self):
        """The trie is just a sorted view of a hash group-by on key vectors."""
        rng = random.Random(37)
        for trial in range(80):
            rows = rows_of(14, rng, domain=4, null_probability=0.3)
            trie = build(rows)
            expected = {}
            for row in rows:
                if is_null(row["R.a"]) or is_null(row["R.b"]):
                    continue
                key = (_sort_key(row["R.a"]), _sort_key(row["R.b"]))
                expected.setdefault(key, []).append(row)
            got = {vec: leaf for vec, leaf in walk_keyvecs(trie)}
            assert got == expected
