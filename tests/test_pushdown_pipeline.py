"""Tests for restriction pushdown and the end-to-end optimization pipeline."""

import pytest

from repro.algebra import Comparison, Const, IsNull, bag_equal, eq
from repro.core import Restrict, jn, oj, roj
from repro.core.pushdown import collect_restrictions, push_restrictions
from repro.datagen import example1_storage, random_databases
from repro.engine import Storage, execute
from repro.optimizer.pipeline import optimize_and_run, optimize_query

P12 = eq("R1.a", "R2.a")
P23 = eq("R2.a", "R3.a")


@pytest.fixture
def reg():
    from repro.datagen import chain

    return chain(3).registry


SCHEMAS = {"R1": ["R1.a", "R1.b"], "R2": ["R2.a", "R2.b"], "R3": ["R3.a", "R3.b"]}


class TestCollectRestrictions:
    def test_strips_stacked_restricts(self, reg):
        q = Restrict(
            Restrict(jn("R1", "R2", P12), Comparison("R1.b", "=", Const(1))),
            Comparison("R2.b", "=", Const(2)),
        )
        core, conjuncts = collect_restrictions(q)
        assert not isinstance(core, Restrict)
        assert len(conjuncts) == 2

    def test_no_restricts(self, reg):
        q = jn("R1", "R2", P12)
        core, conjuncts = collect_restrictions(q)
        assert core is q and conjuncts == []


class TestPushdown:
    def test_pushes_through_join_to_leaf(self, reg):
        q = Restrict(jn("R1", "R2", P12), Comparison("R1.b", "=", Const(1)))
        report = push_restrictions(q, reg)
        assert report.fully_pushed
        assert report.query.to_infix() == "(σ(R1) - R2)"

    def test_pushes_through_preserved_side(self, reg):
        q = Restrict(oj(jn("R1", "R2", P12), "R3", P23), Comparison("R1.b", "=", Const(1)))
        report = push_restrictions(q, reg)
        assert report.fully_pushed
        assert report.query.to_infix() == "((σ(R1) - R2) → R3)"

    def test_blocked_by_null_supplied_operand(self, reg):
        q = Restrict(oj("R1", "R2", P12), IsNull("R2.b"))
        report = push_restrictions(q, reg)
        assert not report.fully_pushed
        assert isinstance(report.query, Restrict)
        assert "null-supplied" in report.blocked[0]

    def test_right_outerjoin_preserved_side(self, reg):
        # R1 ← R2 preserves R2.
        q = Restrict(roj("R1", "R2", P12), Comparison("R2.b", "=", Const(1)))
        report = push_restrictions(q, reg)
        assert report.fully_pushed
        assert report.query.to_infix() == "(R1 ← σ(R2))"

    def test_multi_relation_conjunct_stays_at_join(self, reg):
        from repro.algebra import gt

        q = Restrict(jn(jn("R1", "R2", P12), "R3", P23), gt("R1.b", "R3.b"))
        report = push_restrictions(q, reg)
        # It references R1 and R3 and parks above the lowest node covering both.
        assert isinstance(report.query, Restrict)
        assert report.fully_pushed  # parked, but not OJ-blocked

    def test_pushdown_preserves_semantics(self, reg):
        queries = [
            Restrict(oj(jn("R1", "R2", P12), "R3", P23), Comparison("R1.b", "=", Const(1))),
            Restrict(oj("R1", "R2", P12), IsNull("R2.b")),
            Restrict(
                Restrict(jn("R1", "R2", P12), Comparison("R1.b", "=", Const(1))),
                Comparison("R2.b", "=", Const(2)),
            ),
        ]
        for q in queries:
            report = push_restrictions(q, reg)
            for db in random_databases(SCHEMAS, 20, seed=55, domain=3):
                assert bag_equal(q.eval(db), report.query.eval(db)), q.to_infix()


class TestPipeline:
    def _example1_query(self):
        p12, p23 = eq("R1.k", "R2.k"), eq("R2.j", "R3.j")
        return Restrict(
            jn("R1", oj("R2", "R3", p23), p12), Comparison("R3.j", "=", Const(5))
        )

    def test_full_pipeline_simplifies_pushes_reorders(self):
        storage = example1_storage(500)
        result = optimize_query(self._example1_query(), storage)
        assert result.conversions  # OJ ⇒ JN fired
        assert result.reordered
        assert result.verdict is not None and result.verdict.freely_reorderable
        assert "σ(R3)" in result.chosen.to_infix()

    def test_pipeline_output_correct_and_cheaper(self):
        storage = example1_storage(500)
        q = self._example1_query()
        result, run = optimize_and_run(q, storage)
        baseline = execute(q, storage)
        assert bag_equal(run.relation, baseline.relation)
        assert run.tuples_retrieved < baseline.tuples_retrieved

    def test_blocked_pipeline_falls_back(self):
        storage = example1_storage(100)
        p12, p23 = eq("R1.k", "R2.k"), eq("R2.j", "R3.j")
        q = Restrict(jn("R1", oj("R2", "R3", p23), p12), IsNull("R3.j"))
        result, run = optimize_and_run(q, storage)
        assert not result.reordered
        assert result.blocked
        assert bag_equal(run.relation, execute(q, storage).relation)

    def test_pipeline_without_restrictions(self):
        storage = example1_storage(200)
        p12, p23 = eq("R1.k", "R2.k"), eq("R2.j", "R3.j")
        q = jn("R1", oj("R2", "R3", p23), p12)
        result, run = optimize_and_run(q, storage)
        assert result.reordered
        assert run.tuples_retrieved == 3

    def test_filtered_optimize_builds_no_table(self, monkeypatch):
        # Leaf statistics come from the live tables: no filtered copy.
        from repro.engine.storage import Table

        storage = example1_storage(200)
        built = []
        init = Table.__init__

        def spy(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(Table, "__init__", spy)
        for cost_model in ("retrieval", "cout"):
            result = optimize_query(
                self._example1_query(), storage, cost_model=cost_model, use_cache=False
            )
            assert result.reordered and result.leaf_filters
        assert built == []

    def test_pipeline_cout_model(self):
        storage = example1_storage(200)
        result = optimize_query(self._example1_query(), storage, cost_model="cout")
        assert result.reordered

    def test_unknown_cost_model(self):
        storage = example1_storage(10)
        with pytest.raises(ValueError):
            optimize_query(self._example1_query(), storage, cost_model="magic")

    def test_explain_is_readable(self):
        storage = example1_storage(50)
        result = optimize_query(self._example1_query(), storage)
        text = result.explain()
        assert "simplify:" in text and "push:" in text and "chosen:" in text

    def test_randomized_pipeline_correctness(self):
        """Pipeline output equals naive evaluation over random databases."""
        for seed, db in enumerate(random_databases(SCHEMAS, 10, seed=77, domain=3)):
            storage = Storage.from_database(db)
            q = Restrict(
                oj(jn("R1", "R2", P12), "R3", P23), Comparison("R3.b", "=", Const(1))
            )
            result, run = optimize_and_run(q, storage)
            assert bag_equal(run.relation, q.eval(db)), seed

    def test_parked_multi_relation_conjunct_falls_back(self):
        """No query graph for a conjunct parked above inner joins: written order stands."""
        from repro.algebra import gt

        db = next(iter(random_databases(SCHEMAS, 1, seed=3, domain=3)))
        storage = Storage.from_database(db)
        q = Restrict(jn(jn("R1", "R2", P12), "R3", P23), gt("R1.b", "R3.b"))
        result, run = optimize_and_run(q, storage)
        assert result.graph is None and not result.reordered
        assert bag_equal(run.relation, q.eval(db))

    def test_programming_error_in_graph_of_is_not_served_as_written_order(self, monkeypatch):
        import repro.optimizer.pipeline as pipeline

        def broken(core, registry):
            raise RuntimeError("bug in graph_of")

        monkeypatch.setattr(pipeline, "graph_of", broken)
        with pytest.raises(RuntimeError, match="bug in graph_of"):
            optimize_query(jn("R1", "R2", eq("R1.k", "R2.k")), example1_storage(10))

