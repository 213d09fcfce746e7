"""Tests for the physical planner's access-path choices."""

import pytest

from repro.algebra import And, Comparison, Schema, bag_equal, eq, gt
from repro.algebra.operators import ORACLE_OPS
from repro.core import aj, foj, jn, oj, rel, roj, sj
from repro.core.expressions import Project, Restrict
from repro.datagen import example1_storage
from repro.engine import (
    HashJoin,
    IndexNestedLoopJoin,
    Planner,
    SeqScan,
    Storage,
    split_equijoin,
)
from repro.util.errors import PlanningError


@pytest.fixture
def storage():
    st = Storage()
    st.create_table("R", ["R.a", "R.b"], [{"R.a": i, "R.b": i} for i in range(3)])
    st.create_table("S", ["S.a", "S.b"], [{"S.a": i, "S.b": i} for i in range(3)])
    st["S"].create_index("S.a")
    return st


class TestSplitEquijoin:
    def test_basic_split(self):
        left, right = Schema(["R.a"]), Schema(["S.a"])
        out = split_equijoin(eq("R.a", "S.a"), left, right)
        assert out == ("R.a", "S.a", None)

    def test_reversed_sides(self):
        left, right = Schema(["R.a"]), Schema(["S.a"])
        out = split_equijoin(eq("S.a", "R.a"), left, right)
        assert out == ("R.a", "S.a", None)

    def test_residual_collected(self):
        left, right = Schema(["R.a", "R.b"]), Schema(["S.a", "S.b"])
        p = And((eq("R.a", "S.a"), gt("R.b", "S.b")))
        left_key, right_key, residual = split_equijoin(p, left, right)
        assert (left_key, right_key) == ("R.a", "S.a")
        assert residual is not None

    def test_no_equi_conjunct(self):
        left, right = Schema(["R.a"]), Schema(["S.a"])
        assert split_equijoin(gt("R.a", "S.a"), left, right) is None

    def test_constant_comparison_not_a_key(self):
        left, right = Schema(["R.a"]), Schema(["S.a"])
        assert split_equijoin(Comparison("R.a", "=", 5), left, right) is None


class TestPlannerChoices:
    def test_rel_becomes_seqscan(self, storage):
        plan = Planner(storage).plan(rel("R"))
        assert isinstance(plan, SeqScan)

    def test_indexed_inner_uses_inlj(self, storage):
        plan = Planner(storage).plan(jn("R", "S", eq("R.a", "S.a")))
        assert isinstance(plan, IndexNestedLoopJoin)

    def test_filtered_indexed_inner_keeps_the_index(self):
        # Example 1 with R2.j < 1000 pushed onto R2: the optimizer prices
        # ((R1 - σ(R2)) → R3) at 3 retrievals, so the filter must ride the
        # index probe as residual rather than force a scan of R2.
        from repro.optimizer.pipeline import optimize_and_run

        storage = example1_storage(2000)
        query = Restrict(
            jn("R1", oj("R2", "R3", eq("R2.j", "R3.j")), eq("R1.k", "R2.k")),
            Comparison("R2.j", "<", 1000),
        )
        result, run = optimize_and_run(query, storage, use_cache=False)
        assert result.chosen.to_infix() == "((R1 - σ(R2)) → R3)"
        assert run.tuples_retrieved == 3
        assert bag_equal(run.relation, query.eval(storage.to_database(), ops=ORACLE_OPS))
        plan = Planner(storage).plan(result.chosen)
        assert "IndexNLJ[inner, R1.k -> R2(R2.k), (R2.j < 1000)]" in plan.describe()

    def test_unindexed_equi_uses_hash_join(self, storage):
        plan = Planner(storage).plan(jn("S", "R", eq("S.b", "R.b")))
        assert isinstance(plan, HashJoin)

    def test_inequality_uses_nlj(self, storage):
        plan = Planner(storage).plan(jn("R", "S", gt("R.a", "S.a")))
        assert isinstance(plan, HashJoin) and plan.left_key is None
        assert plan.describe().startswith("NestedLoopJoin[inner, (R.a > S.a)]")

    def test_right_outerjoin_swaps_operands(self, storage):
        # R ← S : S preserved, so S drives the probe side.
        plan = Planner(storage).plan(roj("R", "S", eq("R.b", "S.b")))
        assert isinstance(plan, HashJoin)
        assert plan.join_type == "left_outer"
        assert "S.b" == plan.left_key

    def test_antijoin_and_semijoin_types(self, storage):
        anti = Planner(storage).plan(aj("R", "S", eq("R.a", "S.a")))
        semi = Planner(storage).plan(sj("R", "S", eq("R.a", "S.a")))
        assert anti.join_type == "anti"
        assert semi.join_type == "semi"

    def test_restrict_project(self, storage):
        plan = Planner(storage).plan(
            Project(Restrict(rel("R"), Comparison("R.a", "=", 1)), ["R.a"])
        )
        out = plan.run()
        assert len(out) == 1

    def test_outerjoin_direction_preserved(self, storage):
        plan = Planner(storage).plan(oj("R", "S", eq("R.a", "S.a")))
        assert plan.join_type == "left_outer"

    def test_full_outerjoin_skips_the_index(self, storage):
        # An index probe never sees the inner rows no outer row matched.
        plan = Planner(storage).plan(foj("R", "S", eq("R.a", "S.a")))
        assert isinstance(plan, HashJoin)
        assert plan.join_type == "full_outer"
        with pytest.raises(PlanningError):
            IndexNestedLoopJoin(
                SeqScan(storage["R"]), storage["S"], storage["S"].index_on("S.a"),
                "R.a", join_type="full_outer",
            )

    def test_unplannable_node(self, storage):
        # Kept under its old name: a padded Union plans; only an unknown Expression type raises.
        from repro.core.expressions import Expression, Union
        from repro.engine.iterators import PaddedUnion

        assert isinstance(Planner(storage).plan(Union(rel("R"), rel("S"))), PaddedUnion)

        class Unknown(Expression):
            pass

        with pytest.raises(PlanningError):
            Planner(storage).plan(Unknown())
