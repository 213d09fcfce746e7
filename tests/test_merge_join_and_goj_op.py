"""Tests for the physical generalized outerjoin operator."""

import pytest

from repro.algebra import NULL, bag_equal, eq, generalized_outerjoin
from repro.core import goj, jn, oj
from repro.datagen import random_databases
from repro.engine import GeneralizedOuterJoinOp, SeqScan, Storage, execute
from repro.util.errors import PlanningError


@pytest.fixture
def storage():
    st = Storage()
    st.create_table(
        "X", ["X.k", "X.v"], [{"X.k": i % 3, "X.v": i} for i in range(6)]
    )
    st.create_table("Y", ["Y.k"], [{"Y.k": 0}, {"Y.k": 1}, {"Y.k": 1}, {"Y.k": NULL}])
    return st


class TestGeneralizedOuterJoinOp:
    def test_matches_algebra(self, storage):
        op = GeneralizedOuterJoinOp(
            SeqScan(storage["X"]), SeqScan(storage["Y"]), "X.k", "Y.k", ["X.k"]
        )
        oracle = generalized_outerjoin(
            storage["X"].to_relation(), storage["Y"].to_relation(),
            eq("X.k", "Y.k"), ["X.k"],
        )
        assert bag_equal(op.run(), oracle)

    def test_through_planner(self, storage):
        q = goj("X", "Y", eq("X.k", "Y.k"), ["X.k"])
        result = execute(q, storage)
        assert bag_equal(result.relation, q.eval(storage.to_database()))
        assert "GeneralizedOuterJoin" in result.plan.describe()

    def test_projection_must_be_left_side(self, storage):
        with pytest.raises(PlanningError):
            GeneralizedOuterJoinOp(
                SeqScan(storage["X"]), SeqScan(storage["Y"]), "X.k", "Y.k", ["Y.k"]
            )

    def test_non_equi_goj_rejected_by_planner(self, storage):
        # Kept under its old name: a non-equi GOJ plans keyless, bag-equal to the oracle.
        from repro.algebra import gt
        from repro.algebra.operators import ORACLE_OPS
        from repro.util.fastpath import batch_sized

        q = goj("X", "Y", gt("X.k", "Y.k"), ["X.k"])
        expected = q.eval(storage.to_database(), ops=ORACLE_OPS)
        for size in (1, 2, 1024):
            with batch_sized(size):
                result = execute(q, storage)
            assert bag_equal(result.relation, expected), size
        assert "None" not in result.plan.describe()

    def test_randomized_differential(self):
        schemas = {"X": ["X.k", "X.v"], "Y": ["Y.k", "Y.w"]}
        for db in random_databases(schemas, 12, seed=67):
            st = Storage.from_database(db)
            q = goj("X", "Y", eq("X.k", "Y.k"), ["X.k"])
            assert bag_equal(execute(q, st).relation, q.eval(db))

    def test_identity15_on_the_engine(self):
        """Identity 15's two sides, both executed physically."""
        from repro.datagen import duplicate_free_database

        schemas = {"X": ["X.a", "X.b"], "Y": ["Y.a", "Y.b"], "Z": ["Z.a", "Z.b"]}
        pxy, pyz = eq("X.a", "Y.a"), eq("Y.b", "Z.b")
        for seed in range(8):
            db = duplicate_free_database(schemas, seed=seed)
            st = Storage.from_database(db)
            lhs = oj("X", jn("Y", "Z", pyz), pxy)
            rhs = goj(oj("X", "Y", pxy), "Z", pyz, ["X.a", "X.b"])
            assert bag_equal(execute(lhs, st).relation, execute(rhs, st).relation), seed
