"""Tests for the optimizer stack: estimates, DP, greedy, and baselines."""

import pytest

from repro.algebra import bag_equal, eq
from repro.core import (
    canonicalize,
    graph_of,
    implementing_trees,
    jn,
    oj,
)
from repro.core.bitset import BitsetIndex
from repro.core.expressions import BinaryOp, Rel
from repro.datagen import (
    chain,
    example1_storage,
    figure2_graph,
    random_databases,
    random_nice_graph,
    star,
)
from repro.engine import Storage, execute
from repro.optimizer import (
    CardinalityEstimator,
    CoutCostModel,
    DPOptimizer,
    GreedyOptimizer,
    OuterjoinBarrierOptimizer,
    Plan,
    RetrievalCostModel,
    connected_subsets,
    count_dp_entries,
    fixed_order_plan,
)
from repro.tools import instrumentation
from repro.util.errors import PlanningError


@pytest.fixture
def ex1():
    storage = example1_storage(200)
    p12, p23 = eq("R1.k", "R2.k"), eq("R2.j", "R3.j")
    written = jn("R1", oj("R2", "R3", p23), p12)
    graph = graph_of(written, storage.registry)
    return storage, written, graph


class TestCardinalityEstimator:
    def test_base_estimates(self, ex1):
        storage, _written, _graph = ex1
        est = CardinalityEstimator(storage)
        info = est.base("R2")
        assert info.cardinality == 200
        assert info.distinct_of("R2.k") == 200

    def test_equijoin_selectivity(self, ex1):
        storage, _w, _g = ex1
        est = CardinalityEstimator(storage)
        left, right = est.base("R2"), est.base("R3")
        sel = est.join_selectivity(eq("R2.j", "R3.j"), left, right)
        assert sel == pytest.approx(1 / 200)

    def test_join_cardinality(self, ex1):
        storage, _w, _g = ex1
        est = CardinalityEstimator(storage)
        out = est.combine("join", eq("R2.j", "R3.j"), est.base("R2"), est.base("R3"))
        assert out.cardinality == pytest.approx(200)

    def test_outerjoin_never_below_preserved(self, ex1):
        storage, _w, _g = ex1
        est = CardinalityEstimator(storage)
        out = est.combine(
            "left_outer", eq("R2.k", "R1.k"), est.base("R2"), est.base("R1")
        )
        assert out.cardinality >= 200

    def test_semi_anti_partition(self, ex1):
        storage, _w, _g = ex1
        est = CardinalityEstimator(storage)
        semi = est.combine("semi", eq("R2.j", "R3.j"), est.base("R2"), est.base("R3"))
        anti = est.combine("anti", eq("R2.j", "R3.j"), est.base("R2"), est.base("R3"))
        assert semi.cardinality + anti.cardinality == pytest.approx(200)

    def test_estimate_expression_tree(self, ex1):
        storage, written, _g = ex1
        est = CardinalityEstimator(storage)
        info = est.estimate_expression(written)
        assert info.nodes == frozenset({"R1", "R2", "R3"})
        assert info.cardinality >= 0


class TestSubgraphEnumeration:
    def test_connected_subsets_of_chain(self):
        g = chain(3).graph
        subsets = connected_subsets(g)
        # 3 singletons + 2 pairs + 1 triple (R1,R3 is not connected).
        assert len(subsets) == 6

    def test_counts_by_size(self):
        g = figure2_graph().graph
        by_size = count_dp_entries(g)
        assert by_size[1] == 6
        assert by_size[len(g.nodes)] == 1


class TestDPOptimizer:
    def test_finds_the_cheap_order(self, ex1):
        storage, written, graph = ex1
        model = RetrievalCostModel(CardinalityEstimator(storage), storage)
        best = DPOptimizer(graph, model).optimize()
        assert best.cost == pytest.approx(3.0)
        measured = execute(best.expr, storage)
        assert measured.tuples_retrieved == 3

    def test_dp_plan_is_an_implementing_tree(self, ex1):
        storage, _written, graph = ex1
        model = CoutCostModel(CardinalityEstimator(storage))
        best = DPOptimizer(graph, model).optimize()
        universe = {canonicalize(t) for t in implementing_trees(graph)}
        assert canonicalize(best.expr) in universe

    def test_dp_optimal_among_all_trees(self, ex1):
        """DP cost equals the minimum over exhaustively costed ITs."""
        storage, _written, graph = ex1
        model = CoutCostModel(CardinalityEstimator(storage))
        best = DPOptimizer(graph, model).optimize()
        exhaustive = min(model.plan_cost(t) for t in implementing_trees(graph))
        assert best.cost == pytest.approx(exhaustive)

    def test_dp_result_correct(self, ex1):
        storage, written, graph = ex1
        model = RetrievalCostModel(CardinalityEstimator(storage), storage)
        best = DPOptimizer(graph, model).optimize()
        assert bag_equal(
            execute(best.expr, storage).relation, execute(written, storage).relation
        )

    def test_builds_only_the_winning_tree(self, monkeypatch):
        """Candidates are costed on the DP table; one tree is built, at the end.

        A deterministic guard: building an operator per candidate cut (1,986
        constructions on this graph) fails it without any timing.
        """
        scenario = random_nice_graph(6, 4, seed=2, extra_join_edges=2)
        assert len(scenario.graph.nodes) == 10
        dbs = random_databases(scenario.schemas, 1, seed=2, max_rows=6, allow_empty=False)
        storage = Storage.from_database(dbs[0])
        model = RetrievalCostModel(CardinalityEstimator(storage), storage)
        built = []
        original_init = BinaryOp.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(BinaryOp, "__init__", counting_init)
        plan = DPOptimizer(scenario.graph, model).optimize()
        assert built == []
        operators = sum(1 for _path, node in plan.expr.nodes() if isinstance(node, BinaryOp))
        assert operators == len(built) == len(scenario.graph.nodes) - 1

    def test_prices_each_split_once(self, monkeypatch):
        """One operator lookup per unordered split into two connected
        halves, and one full estimate per filled non-leaf table entry.

        A deterministic guard on the DP's work: visiting both orders of
        every split doubles the lookups, and building an estimate for
        every candidate multiplies the estimates.  Besides one random nice
        graph under the retrieval model, it runs on the seven graphs of
        ``benchmarks/bench_planning_scalability.py``, built as that bench
        builds them, so it pins exactly the work whose time the bench
        tabulates.
        """

        def storage_for(scenario, seed, max_rows):
            dbs = random_databases(
                scenario.schemas, 1, seed=seed, max_rows=max_rows, allow_empty=False
            )
            return Storage.from_database(dbs[0])

        nice = random_nice_graph(6, 4, seed=2, extra_join_edges=2)
        nice_storage = storage_for(nice, 2, 6)
        cases = [(nice, RetrievalCostModel(CardinalityEstimator(nice_storage), nice_storage))]
        for n in (4, 6, 8, 10):
            scenario = chain(n, ["join" if i % 2 == 0 else "out" for i in range(n - 1)])
            estimator = CardinalityEstimator(storage_for(scenario, n, 9))
            cases.append((scenario, CoutCostModel(estimator)))
        for leaves in (4, 6, 8):
            scenario = star(leaves, oj_leaves=leaves // 2)
            estimator = CardinalityEstimator(storage_for(scenario, leaves, 9))
            cases.append((scenario, CoutCostModel(estimator)))

        calls = {"cut_operator": 0, "combine_estimate": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        counting(BitsetIndex, "cut_operator")
        for scenario, model in cases:
            graph = scenario.graph
            index = graph.bitset_index()
            splits = sum(
                len(list(index.ordered_partitions(mask)))
                for mask in index.connected_subset_masks()
            )
            counting(model.estimator, "combine_estimate")
            calls.update(cut_operator=0, combine_estimate=0)
            before = instrumentation.snapshot()
            DPOptimizer(graph, model).optimize()
            subsets = instrumentation.delta(before)["dp_subsets"]
            assert splits % 2 == 0 and calls["cut_operator"] == splits // 2, scenario.name
            assert calls["combine_estimate"] == subsets - len(graph.nodes), scenario.name

    def test_disconnected_graph_rejected(self):
        from repro.core import QueryGraph

        g = QueryGraph.from_edges(join=[("A", "B", eq("A.a", "B.a"))], isolated=["C"])
        storage = Storage()
        storage.create_table("A", ["A.a"], [])
        storage.create_table("B", ["B.a"], [])
        storage.create_table("C", ["C.a"], [])
        model = CoutCostModel(CardinalityEstimator(storage))
        with pytest.raises(PlanningError):
            DPOptimizer(g, model).optimize()


class TestRetrievalCostModel:
    def test_outerjoin_probe_pays_matches_not_padding(self):
        """An indexed null-supplied leaf costs the matches (``join_cardinality``),
        not the padded output."""
        st = Storage()
        st.create_table("P", ["P.k"], [{"P.k": i} for i in range(10)])
        st.create_table("N", ["N.k"], [{"N.k": i} for i in range(2)])
        st["N"].create_index("N.k")
        model = RetrievalCostModel(CardinalityEstimator(st), st)
        written = oj("P", "N", eq("P.k", "N.k"))
        # Scan P (10) plus the expected matches fetched from N (10·2/10).
        assert fixed_order_plan(written, model).cost == pytest.approx(12.0)
        est = model.estimator
        left, right = est.base("P"), est.base("N")
        estimate = est.combine("left_outer", eq("P.k", "N.k"), left, right)
        assert (estimate.cardinality, estimate.join_cardinality) == (10.0, 2.0)
        plans = Plan(Rel("P"), left, 0.0), Plan(Rel("N"), right, 0.0)
        sizes = estimate.cardinality, estimate.join_cardinality
        assert model.combine_cost("left_outer", eq("P.k", "N.k"), *plans, *sizes) == 12.0


class TestGreedyAndBaselines:
    def test_greedy_matches_dp_on_example1(self, ex1):
        storage, _written, graph = ex1
        model = RetrievalCostModel(CardinalityEstimator(storage), storage)
        greedy = GreedyOptimizer(graph, model).optimize()
        dp = DPOptimizer(graph, model).optimize()
        assert greedy.cost == pytest.approx(dp.cost)

    def test_greedy_never_beats_dp(self):
        """DP is exact, so greedy's cost is an upper bound."""
        for seed in range(5):
            scenario = random_nice_graph(3, 2, seed=seed)
            dbs = random_databases(scenario.schemas, 1, seed=seed, max_rows=8,
                                   allow_empty=False)
            storage = Storage.from_database(dbs[0])
            model = CoutCostModel(CardinalityEstimator(storage))
            dp = DPOptimizer(scenario.graph, model).optimize()
            greedy = GreedyOptimizer(scenario.graph, model).optimize()
            assert greedy.cost >= dp.cost - 1e-9

    def test_fixed_order_costs_the_written_tree(self, ex1):
        storage, written, _graph = ex1
        model = RetrievalCostModel(CardinalityEstimator(storage), storage)
        plan = fixed_order_plan(written, model)
        assert plan.expr is written
        assert plan.cost > 3

    def test_barrier_baseline_cannot_cross_outerjoin(self, ex1):
        """The conventional optimizer stays stuck at the written OJ position."""
        storage, written, _graph = ex1
        model = RetrievalCostModel(CardinalityEstimator(storage), storage)
        barrier = OuterjoinBarrierOptimizer(storage.registry, model).optimize(written)
        dp = DPOptimizer(_graph, model).optimize()
        assert barrier.cost > dp.cost
        measured = execute(barrier.expr, storage)
        assert measured.tuples_retrieved == 2 * 200 + 1

    def test_barrier_baseline_still_reorders_joins(self):
        """Within a join-only region the barrier baseline uses the DP."""
        st = Storage()
        st.create_table("A", ["A.k"], [{"A.k": i} for i in range(50)])
        st.create_table("B", ["B.k", "B.j"], [{"B.k": i, "B.j": i} for i in range(50)])
        st.create_table("C", ["C.j"], [{"C.j": 0}])
        # Written order joins the two big tables first.
        written = jn(jn("A", "B", eq("A.k", "B.k")), "C", eq("B.j", "C.j"))
        model = CoutCostModel(CardinalityEstimator(st))
        barrier = OuterjoinBarrierOptimizer(st.registry, model).optimize(written)
        fixed = fixed_order_plan(written, model)
        assert barrier.cost <= fixed.cost
        # It found the selective C-first order.
        assert barrier.cost < fixed.cost
