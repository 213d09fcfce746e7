"""Tests for the utility modules (rng, pretty, errors) and planner options."""

import threading

import pytest

from repro.algebra import eq
from repro.core import jn, oj, rel
from repro.util.errors import ParseError, ReproError, SchemaError
from repro.util.pretty import render_side_by_side, render_tree
from repro.util.rng import DEFAULT_SEED, make_rng, spawn


class TestRng:
    def test_default_seed_deterministic(self):
        assert make_rng().random() == make_rng(DEFAULT_SEED).random()

    def test_explicit_seed(self):
        assert make_rng(5).random() == make_rng(5).random()
        assert make_rng(5).random() != make_rng(6).random()

    def test_passthrough(self):
        rng = make_rng(1)
        assert make_rng(rng) is rng

    def test_spawn_independent(self):
        rng = make_rng(2)
        child = spawn(rng)
        # The child stream differs from the parent's continuation.
        assert child.random() != rng.random()


class TestPretty:
    def test_render_tree(self):
        q = jn(oj("R1", "R2", eq("R1.a", "R2.a")), "R3", eq("R2.a", "R3.a"))
        art = render_tree(q)
        assert "R1" in art and "→" in art and "└─" in art

    def test_render_tree_with_predicates(self):
        q = oj("R1", "R2", eq("R1.a", "R2.a"))
        assert "R1.a" in render_tree(q, show_predicates=True)

    def test_render_leaf(self):
        assert render_tree(rel("R1")) == "R1"

    def test_side_by_side(self):
        merged = render_side_by_side("a\nbb", "XX\nY\nZ")
        lines = merged.splitlines()
        assert len(lines) == 3
        assert "XX" in lines[0] and lines[0].startswith("a")


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(SchemaError, ReproError)
        assert issubclass(ParseError, ReproError)

    def test_parse_error_location(self):
        err = ParseError("bad token", line=3, column=7)
        assert "line 3" in str(err)
        assert err.line == 3 and err.column == 7

    def test_parse_error_without_location(self):
        assert str(ParseError("oops")) == "oops"


class TestSwitchOverridesArePerThread:
    def test_overlapping_scopes_on_two_threads_each_read_their_own(self):
        """Nested ``batch_sized`` scopes open on two threads at once: each
        thread reads its own innermost size and its default after."""
        from repro.util.fastpath import batch_size, batch_sized

        default = batch_size()
        barrier = threading.Barrier(2, timeout=10)
        seen = {}

        def hold(size):
            with batch_sized(size):
                with batch_sized(size * 10):
                    barrier.wait()  # all four scopes are open ...
                    seen[size, "inner"] = batch_size()
                    barrier.wait()  # ... and both have read before either exits
                seen[size] = batch_size()
                barrier.wait()
            barrier.wait()
            seen[size, "after"] = batch_size()

        threads = [threading.Thread(target=hold, args=(size,)) for size in (2, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert seen[2, "inner"] == 20 and seen[3, "inner"] == 30
        assert seen[2] == 2 and seen[3] == 3
        assert seen[2, "after"] == seen[3, "after"] == default
        assert batch_size() == default

    def test_batch_sized_rejects_sizes_below_one(self):
        from repro.util.fastpath import batch_size, batch_sized

        with pytest.raises(ValueError):
            batch_sized(0)
        assert batch_size() == 1024

