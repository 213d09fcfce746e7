"""Tests for EXPLAIN / EXPLAIN ANALYZE."""

import json

import pytest

from repro.algebra import Const, eq, gt
from repro.conformance.serialize import value_to_json
from repro.core import Rel, Restrict, jn, oj
from repro.core.pushdown import split_leaf_filters
from repro.datagen import example1_storage
from repro.engine import Planner
from repro.engine.executor import execute, plan_expression
from repro.engine.explain import explain, explain_analyze
from repro.engine.storage import Storage
from repro.observability import tracing
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CoutCostModel
from repro.optimizer.pipeline import optimize_query


@pytest.fixture
def setup():
    storage = example1_storage(100)
    query = oj(jn("R1", "R2", eq("R1.k", "R2.k")), "R3", eq("R2.j", "R3.j"))
    plan = Planner(storage).plan(query)
    return storage, query, plan


class TestExplain:
    def test_leaf_estimates_from_statistics(self, setup):
        storage, query, plan = setup
        node = explain(plan, storage)
        rendered = node.render()
        assert "SeqScan(R1)" in rendered
        assert "est=1.0" in rendered  # |R1| = 1

    def test_root_estimate_with_logical_expr(self, setup):
        storage, query, plan = setup
        node = explain(plan, storage, expr=query)
        assert node.estimated_rows == pytest.approx(1.0)

    def test_pushed_filter_root_estimate_is_the_optimizers(self):
        """``σ[A.y > 0](A ⋈ B)`` chooses a tree with a ``Restrict(A)`` leaf;
        its explained root estimate is the optimizer's estimate of the
        chosen tree, whose filtered leaf counts the rows passing the filter."""
        storage = Storage()
        storage.create_table("A", ["A.k", "A.y"], [{"A.k": i % 4, "A.y": i - 6} for i in range(12)])
        storage.create_table("B", ["B.k", "B.z"], [{"B.k": i % 3, "B.z": i} for i in range(9)])
        query = Restrict(jn("A", "B", eq("A.k", "B.k")), gt("A.y", Const(0)))
        chosen = optimize_query(query, storage).chosen
        bare, filters = split_leaf_filters(chosen)
        assert list(filters) == ["A"]
        optimizer = CardinalityEstimator(storage, filters)
        node = explain(plan_expression(chosen, storage), storage, expr=chosen)
        assert node.estimated_rows == optimizer.estimate_expression(bare).cardinality
        leaf = Restrict(Rel("A"), gt("A.y", Const(0)))
        assert CardinalityEstimator(storage).estimate_expression(leaf).cardinality == 5.0
        assert CoutCostModel(CardinalityEstimator(storage)).plan_cost(chosen) == CoutCostModel(
            optimizer
        ).plan_cost(bare)

    def test_no_execution_no_actuals(self, setup):
        storage, query, plan = setup
        node = explain(plan, storage)
        assert node.actual_rows is None


class TestExplainAnalyze:
    def test_actual_rows_recorded(self, setup):
        storage, query, plan = setup
        node = explain_analyze(plan, storage, expr=query)
        assert node.actual_rows == 1  # one R1 row drives everything
        rendered = node.render()
        assert "actual=1" in rendered

    def test_q_error_near_one_on_example1(self, setup):
        storage, query, plan = setup
        node = explain_analyze(plan, storage, expr=query)
        assert node.worst_q_error() < 1.5

    def test_children_counted(self, setup):
        storage, query, plan = setup
        node = explain_analyze(plan, storage)
        # The driving scan emits its single row.
        def find(n, text):
            if text in n.label:
                return n
            for c in n.children:
                hit = find(c, text)
                if hit is not None:
                    return hit
            return None

        scan = find(node, "SeqScan(R1)")
        assert scan is not None and scan.actual_rows == 1

    def test_render_tree_shape(self, setup):
        storage, query, plan = setup
        node = explain_analyze(plan, storage)
        rendered = node.render()
        assert rendered.count("->") >= 2
        assert rendered.splitlines()[0].startswith("->")


class TestExplainAnalyzeKnownAnswers:
    """EXPLAIN ANALYZE reproduces the paper's worked examples."""

    def test_example1_per_operator_actuals(self, setup):
        # Example 1, good order: the single R1 tuple drives one index
        # probe into R2 and one into R3 — each probe hits exactly once.
        storage, query, plan = setup
        node = explain_analyze(plan, storage, expr=query)
        assert node.actual_rows == 1
        scan = node.find("SeqScan(R1)")
        assert scan is not None and scan.actual_rows == 1
        for fragment in ("R2(R2.k)", "R3(R3.j)"):
            join_node = node.find(fragment)
            assert join_node is not None, f"no operator matching {fragment}"
            assert join_node.actual_rows == 1
            assert join_node.details.get("index_probes") == 1
            assert join_node.details.get("index_hits") == 1
            assert join_node.details.get("dispatch") == "index-kernel"
        rendered = node.render()
        assert "time=" in rendered and "actual=1" in rendered
        assert "kernels" not in node.details
        assert "mem_high_water_rows" in node.details

    def test_keyed_and_keyless_hash_joins_keep_their_dispatch(self):
        # The nested-loop join is the keyless HashJoin; EXPLAIN still reads
        # it by its label, and its build has no bucket count.
        storage = Storage()
        storage.create_table("A", ["A.x"], [{"A.x": i} for i in range(4)])
        storage.create_table("B", ["B.y"], [{"B.y": i} for i in range(3)])
        for predicate, dispatch in (
            (eq("A.x", "B.y"), "hash-kernel"),
            (gt("A.x", "B.y"), "naive-nested-loop"),
        ):
            plan = Planner(storage).plan(jn("A", "B", predicate))
            node = explain_analyze(plan, storage)
            assert node.details["dispatch"] == dispatch
            assert node.details["mem_rows"] == 3
            assert ("build_buckets" in node.details) is (dispatch == "hash-kernel")

    def test_example1_tuple_accounting(self, setup):
        # The paper's headline: 3 tuples retrieved in the good order
        # (versus 2N+1 for the bad order) — on the trace's root span.
        storage, query, _plan = setup
        with tracing(enabled=True):
            result = execute(query, storage)
        assert result.metrics.total_retrieved == 3
        assert result.trace.counters["tuples_retrieved"] == 3

    def test_example2_written_order(self):
        # Example 2's graph R1 → R2 − R3 is not nice; the engine runs the
        # written order R1 → (R2 ⋈ R3).  Known answer: R2 ⋈ R3 keeps the
        # single matching pair, the outerjoin preserves both R1 rows.
        storage = Storage()
        storage.create_table(
            "R1", ["R1.a", "R1.b"], [{"R1.a": 1, "R1.b": 10}, {"R1.a": 2, "R1.b": 20}]
        )
        storage.create_table("R2", ["R2.a", "R2.b"], [{"R2.a": 1, "R2.b": 1}])
        storage.create_table("R3", ["R3.a", "R3.b"], [{"R3.a": 1, "R3.b": 5}])
        query = oj("R1", jn("R2", "R3", eq("R2.a", "R3.a")), eq("R1.a", "R2.a"))
        plan = Planner(storage).plan(query)
        node = explain_analyze(plan, storage, expr=query)
        oracle = query.eval(storage.to_database())
        assert len(oracle) == 2
        assert node.actual_rows == 2
        inner = node.find("R2.a = R3.a")
        assert inner is not None and inner.actual_rows == 1
        assert node.worst_q_error() >= 1.0


class TestBatchCounters:
    """Batch-native operators surface per-operator batch counts."""

    def test_seqscan_batches_out_known_answer(self, setup):
        # Example 1: the single R1 tuple fits one column batch, and each
        # index join emits one batch per probe batch.
        storage, query, plan = setup
        node = explain_analyze(plan, storage, expr=query)
        scan = node.find("SeqScan(R1)")
        assert scan is not None
        assert scan.details.get("batches_out") == 1
        for fragment in ("R2(R2.k)", "R3(R3.j)"):
            join_node = node.find(fragment)
            assert join_node is not None
            assert join_node.details.get("batches_out") == 1
        assert "batches_out=1" in node.render()

    def test_hashjoin_batches_out_known_answer(self):
        # Example 2's written order on unindexed tables plans hash joins:
        # each operator's input fits one batch, so each emits exactly one.
        storage = Storage()
        storage.create_table(
            "R1", ["R1.a", "R1.b"], [{"R1.a": 1, "R1.b": 10}, {"R1.a": 2, "R1.b": 20}]
        )
        storage.create_table("R2", ["R2.a", "R2.b"], [{"R2.a": 1, "R2.b": 1}])
        storage.create_table("R3", ["R3.a", "R3.b"], [{"R3.a": 1, "R3.b": 5}])
        query = oj("R1", jn("R2", "R3", eq("R2.a", "R3.a")), eq("R1.a", "R2.a"))
        plan = Planner(storage).plan(query)
        node = explain_analyze(plan, storage, expr=query)
        root = node
        assert root.actual_rows == 2
        assert root.details.get("batches_out") == 1
        inner = node.find("R2.a = R3.a")
        assert inner is not None
        assert inner.details.get("batches_out") == 1


def _canonical_bytes(relation) -> bytes:
    """A canonical byte encoding of a relation (order-independent)."""
    scheme = sorted(relation.scheme)
    rows = sorted(
        json.dumps({a: value_to_json(row[a]) for a in scheme}, sort_keys=True)
        for row in relation
    )
    return "\n".join([",".join(scheme)] + rows).encode()


class TestTracingTransparency:
    def test_repro_trace_0_is_byte_identical(self, setup, monkeypatch):
        """The tracer observes, never steers: results agree byte-for-byte
        across ambient tracing, forced full tracing, and REPRO_TRACE=0."""
        storage, query, _plan = setup
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        ambient = execute(query, storage)
        with tracing(enabled=True):
            full = execute(query, storage)
        monkeypatch.setenv("REPRO_TRACE", "0")
        off = execute(query, storage)
        assert ambient.trace is not None and full.trace is not None
        assert off.trace is None
        baseline = _canonical_bytes(off.relation)
        assert _canonical_bytes(ambient.relation) == baseline
        assert _canonical_bytes(full.relation) == baseline
        assert (
            ambient.metrics.total_retrieved
            == full.metrics.total_retrieved
            == off.metrics.total_retrieved
        )
