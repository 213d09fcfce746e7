"""Validation of the cardinality estimator against true cardinalities.

A System-R estimator is a model, not an oracle; these tests pin down the
cases where it should be exact (keys, uniform domains) and bound its
error (q-error) on randomized data so regressions in the estimator are
caught even though no single number is "correct".
"""

import pytest

from repro.algebra import Comparison, IsNull, Not, conjunction, eq, gt, is_null
from repro.algebra.operators import restrict
from repro.core import jn, oj
from repro.datagen import example1_storage, random_databases
from repro.engine import Storage, execute
from repro.optimizer import CardinalityEstimator


def q_error(estimate: float, actual: float) -> float:
    """max(est/act, act/est) with the usual 1-row floor."""
    est = max(estimate, 1.0)
    act = max(actual, 1.0)
    return max(est / act, act / est)


class TestExactCases:
    def test_key_foreign_key_join_exact(self):
        storage = example1_storage(500)
        est = CardinalityEstimator(storage)
        info = est.estimate_expression(jn("R2", "R3", eq("R2.j", "R3.j")))
        actual = len(execute(jn("R2", "R3", eq("R2.j", "R3.j")), storage).relation)
        assert info.cardinality == pytest.approx(actual)

    def test_selective_key_probe_exact(self):
        storage = example1_storage(500)
        est = CardinalityEstimator(storage)
        q = jn("R1", "R2", eq("R1.k", "R2.k"))
        info = est.estimate_expression(q)
        actual = len(execute(q, storage).relation)
        assert info.cardinality == pytest.approx(actual)

    def test_outerjoin_preserved_floor_exact_here(self):
        storage = example1_storage(300)
        est = CardinalityEstimator(storage)
        q = oj("R2", "R3", eq("R2.j", "R3.j"))
        info = est.estimate_expression(q)
        actual = len(execute(q, storage).relation)
        assert info.cardinality == pytest.approx(actual)


class TestBoundedError:
    SCHEMAS = {"X": ["X.a", "X.b"], "Y": ["Y.a", "Y.b"], "Z": ["Z.a", "Z.b"]}

    @pytest.mark.parametrize("seed", range(8))
    def test_equijoin_q_error_bounded(self, seed):
        db = random_databases(self.SCHEMAS, 1, seed=seed, max_rows=30, domain=8,
                              null_probability=0.1, allow_empty=False)[0]
        storage = Storage.from_database(db)
        est = CardinalityEstimator(storage)
        q = jn("X", "Y", eq("X.a", "Y.a"))
        estimate = est.estimate_expression(q).cardinality
        actual = len(execute(q, storage).relation)
        assert q_error(estimate, actual) < 12, (estimate, actual)

        # Pushed leaf filters: a filtered leaf's statistics are exactly
        # those of the restricted relation, NULL outcomes discarded.
        filters = {
            "X": [Comparison("X.b", "<", seed % 5 + 2)],
            "Y": [Comparison("Y.a", "<>", seed % 3), Not(IsNull("Y.b"))],
        }
        filtered = CardinalityEstimator(storage, filters)
        for name, preds in filters.items():
            truth = restrict(storage[name].to_relation(), conjunction(preds))
            info = filtered.base(name)
            assert info.cardinality == len(truth)
            assert info.distinct == {
                a: float(max(1, len({r[a] for r in truth if not is_null(r[a])})))
                for a in truth.schema
            }
        assert filtered.base("Z") == est.base("Z")

    @pytest.mark.parametrize("seed", range(4))
    def test_two_join_pipeline_q_error(self, seed):
        db = random_databases(self.SCHEMAS, 1, seed=seed + 100, max_rows=25, domain=6,
                              null_probability=0.1, allow_empty=False)[0]
        storage = Storage.from_database(db)
        est = CardinalityEstimator(storage)
        q = jn(jn("X", "Y", eq("X.a", "Y.a")), "Z", eq("Y.b", "Z.b"))
        estimate = est.estimate_expression(q).cardinality
        actual = len(execute(q, storage).relation)
        assert q_error(estimate, actual) < 40, (estimate, actual)

    def test_inequality_constant_selectivity_order_of_magnitude(self):
        db = random_databases(self.SCHEMAS, 1, seed=9, max_rows=40, domain=10,
                              null_probability=0.0, allow_empty=False)[0]
        storage = Storage.from_database(db)
        est = CardinalityEstimator(storage)
        q = jn("X", "Y", gt("X.a", "Y.a"))
        estimate = est.estimate_expression(q).cardinality
        actual = len(execute(q, storage).relation)
        # 1/3 selectivity is a blunt instrument; demand only the ballpark.
        assert q_error(estimate, actual) < 10


class TestMonotonicity:
    def test_outerjoin_estimate_at_least_preserved(self):
        """Structural invariant, any data: |X → Y| ≥ |X| in the model."""
        for seed in range(6):
            db = random_databases(TestBoundedError.SCHEMAS, 1, seed=seed + 200,
                                  max_rows=20, allow_empty=False)[0]
            storage = Storage.from_database(db)
            est = CardinalityEstimator(storage)
            q = oj("X", "Y", eq("X.a", "Y.a"))
            info = est.estimate_expression(q)
            assert info.cardinality >= est.base("X").cardinality - 1e-9

    def test_semi_plus_anti_equals_left(self):
        from repro.core import aj, sj

        db = random_databases(TestBoundedError.SCHEMAS, 1, seed=300,
                              max_rows=20, allow_empty=False)[0]
        storage = Storage.from_database(db)
        est = CardinalityEstimator(storage)
        semi = est.estimate_expression(sj("X", "Y", eq("X.a", "Y.a"))).cardinality
        anti = est.estimate_expression(aj("X", "Y", eq("X.a", "Y.a"))).cardinality
        assert semi + anti == pytest.approx(est.base("X").cardinality)
