"""End-to-end tests for the Yannakakis acyclic fast path.

Covers the physical operator (full reducer + output-linear join against
the naive oracle, outerjoin padding, null keys, chords, batch-size
parity), the optimizer's strategy choice and plan-cache interplay,
EXPLAIN ANALYZE surfacing of the reducer, the ``yannakakis`` conformance
tier, and in-process checks that whatever strategy the gates pick is
bag-equal to the DP tree and to the oracle.
"""

import random

import pytest

from repro.algebra.comparison import bag_equal
from repro.algebra.nulls import NULL, is_null
from repro.algebra.operators import ORACLE_OPS
from repro.algebra.predicates import eq
from repro.conformance.check import EXECUTOR_TIERS, cross_check, run_executor
from repro.core.enumeration import sample_implementing_tree
from repro.core.expressions import Project, Restrict, jn, rel
from repro.core.graph import QueryGraph, graph_of
from repro.core.gyo import join_tree_of
from repro.datagen.random_db import random_database
from repro.datagen.topologies import (
    chain,
    figure2_graph,
    join_cycle,
    snowflake,
    star,
)
from repro.engine.executor import execute
from repro.engine.explain import explain_analyze
from repro.engine.storage import Storage
from repro.engine.yannakakis import YannakakisOp, build_yannakakis_plan
from repro.optimizer.pipeline import optimize_and_run, optimize_query
from repro.optimizer.plancache import PlanCache
from repro.service import QueryService
from repro.util.errors import PlanningError
from repro.util.fastpath import batch_sized


def scenario_case(scenario, seed, **db_kwargs):
    """(expr, db, storage, tree) for one topology scenario."""
    rng = random.Random(seed)
    expr = sample_implementing_tree(scenario.graph, rng)
    db = random_database(scenario.schemas, seed=seed, **db_kwargs)
    storage = Storage.from_database(db)
    tree = join_tree_of(scenario.graph, scenario.registry)
    return expr, db, storage, tree


def needle_chain():
    """(query, storage): ``E1 - E2 - E3`` in the BENCH_PR7 needle construction.

    E2's halves pair a key inside one endpoint's heavy window with a key
    that matches nothing on the other end, so a binary plan fans half of
    E2 out before the far end kills it; only three needle keys reach the
    output.  E3's window is the heavier one, and the DP's tree joins it
    first, so the reducer's bill comes out below the DP tree's C_out.
    """
    storage = Storage()
    needles = (10_000, 10_001, 10_002)
    windows = {"E1": ("k1", 60, 10), "E3": ("k2", 200, 2)}
    for name, (col, heavy, window) in windows.items():
        rows = [{f"{name}.{col}": i % window, f"{name}.p": i} for i in range(heavy)]
        rows += [{f"{name}.{col}": k, f"{name}.p": heavy + j} for j, k in enumerate(needles)]
        storage.create_table(name, [f"{name}.{col}", f"{name}.p"], rows)
    rows = []
    for i in range(200):
        k1, k2 = i % windows["E1"][2], i % windows["E3"][2]
        keys = (k1, 1000 + k2) if i % 2 else (1000 + k1, k2)
        rows.append({"E2.k1": keys[0], "E2.k2": keys[1], "E2.p": i})
    rows += [{"E2.k1": k, "E2.k2": k, "E2.p": 200 + j} for j, k in enumerate(needles)]
    storage.create_table("E2", ["E2.k1", "E2.k2", "E2.p"], rows)
    query = jn(jn(rel("E1"), rel("E2"), eq("E1.k1", "E2.k1")), rel("E3"), eq("E2.k2", "E3.k2"))
    return query, storage


class TestOperator:
    @pytest.mark.parametrize(
        "scenario",
        [
            chain(4),
            chain(4, ["join", "out", "out"]),
            star(4, oj_leaves=2),
            snowflake(3, arm_length=2, oj_arms=1),
            figure2_graph(),
            join_cycle(4),  # chord goes through the join-phase filter
        ],
        ids=lambda s: s.name,
    )
    def test_matches_naive_eval(self, scenario):
        for seed in (1, 2, 3):
            expr, db, storage, tree = scenario_case(
                scenario, seed, null_probability=0.3, duplicate_probability=0.3
            )
            assert tree is not None
            plan = build_yannakakis_plan(tree, storage, {})
            got = plan.run()
            assert bag_equal(got, expr.eval(db)), scenario.name

    def test_outerjoin_pads_dangling_preserved_rows(self):
        scenario = star(2, oj_leaves=2)
        db = {
            "R0": [{"R0.a": 1, "R0.b": 0}, {"R0.a": 9, "R0.b": 0}],
            "R1": [{"R1.a": 1, "R1.b": 10}],
            "R2": [{"R2.a": 1, "R2.b": 20}],
        }
        from repro.algebra.relation import Database, Relation

        database = Database(
            {name: Relation.from_dicts(scenario.schemas[name], rows) for name, rows in db.items()}
        )
        storage = Storage.from_database(database)
        tree = join_tree_of(scenario.graph, scenario.registry)
        got = build_yannakakis_plan(tree, storage, {}).run()
        padded = [row for row in got if row["R0.a"] == 9]
        assert len(padded) == 1
        assert is_null(padded[0]["R1.a"]) and is_null(padded[0]["R2.b"])

    def test_null_join_keys_never_match(self):
        scenario = chain(2)
        from repro.algebra.relation import Database, Relation

        database = Database(
            {
                "R1": Relation.from_dicts(
                    scenario.schemas["R1"],
                    [{"R1.a": NULL, "R1.b": 1}, {"R1.a": 3, "R1.b": 2}],
                ),
                "R2": Relation.from_dicts(
                    scenario.schemas["R2"],
                    [{"R2.a": NULL, "R2.b": 1}, {"R2.a": 3, "R2.b": 2}],
                ),
            }
        )
        storage = Storage.from_database(database)
        tree = join_tree_of(scenario.graph, scenario.registry)
        got = build_yannakakis_plan(tree, storage, {}).run()
        assert len(got) == 1  # only the 3 = 3 pair; NULL = NULL is unknown

    def test_batch_sizes_agree(self):
        scenario = star(4, oj_leaves=1)
        expr, db, storage, tree = scenario_case(scenario, 11, null_probability=0.2)
        plan = build_yannakakis_plan(tree, storage, {})
        default_result = build_yannakakis_plan(tree, storage, {}).run()
        with batch_sized(2):
            small_result = plan.run()
        assert bag_equal(default_result, small_result)
        assert bag_equal(default_result, expr.eval(db))

    def test_input_arity_is_validated(self):
        scenario = chain(3)
        _expr, _db, storage, tree = scenario_case(scenario, 1)
        good = build_yannakakis_plan(tree, storage, {})
        with pytest.raises(PlanningError):
            YannakakisOp(tree, good.inputs[:1])


class TestExplain:
    def test_explain_analyze_surfaces_the_reducer(self):
        scenario = chain(3)
        expr, _db, storage, tree = scenario_case(scenario, 4)
        plan = build_yannakakis_plan(tree, storage, {})
        node = explain_analyze(plan, storage, expr=expr)
        assert "Yannakakis" in node.label
        assert node.details.get("dispatch") == "semijoin-reducer"
        assert node.details.get("reducer_passes", 0) >= 2  # down + up passes
        assert "reducer_dropped" in node.details
        assert len(node.children) == len(tree.order)  # trace wraps the inputs
        assert node.actual_rows == len(expr.eval(_db))

    def test_describe_names_root_and_chords(self):
        scenario = join_cycle(4)
        _expr, _db, storage, tree = scenario_case(scenario, 4)
        text = build_yannakakis_plan(tree, storage, {}).describe()
        assert "Yannakakis[root=" in text
        assert "chords=1" in text


class TestOptimizerStrategy:
    def test_chain_chooses_yannakakis_and_matches_dp(self):
        expr, storage = needle_chain()
        result, execution = optimize_and_run(expr, storage, use_cache=False)
        assert result.strategy == "yannakakis"
        assert result.join_tree is not None
        assert bag_equal(execution.relation, execute(result.chosen, storage).relation)
        assert bag_equal(execution.relation, expr.eval(storage.to_database()))
        assert len(execution.relation) == 3  # the needles

    @pytest.mark.parametrize(
        "scenario",
        [snowflake(3, arm_length=2, oj_arms=2), chain(4, ["join", "out", "out"])],
        ids=lambda s: s.name,
    )
    def test_outerjoin_shapes_price_to_dp(self, scenario):
        # The preserved side of an outerjoin edge is never reduced, so
        # the reducer's join phase bills at least the DP tree's C_out and
        # its semijoin passes come on top: eligible, but never cheaper.
        assert join_tree_of(scenario.graph, scenario.registry) is not None
        for seed in (0, 1, 2):
            expr, _db, storage, _tree = scenario_case(
                scenario, seed, min_rows=1000, max_rows=1000, domain=200,
                null_probability=0.05,
            )
            result = optimize_query(expr, storage, use_cache=False)
            assert result.strategy == "dp", (scenario.name, seed)

    def test_cyclic_class_hypergraph_stays_on_dp(self):
        graph = QueryGraph.from_edges(
            join=[
                ("R1", "R2", eq("R1.a", "R2.a")),
                ("R2", "R3", eq("R2.b", "R3.b")),
                ("R3", "R1", eq("R3.a", "R1.b")),
            ]
        )
        schemas = {n: [f"{n}.a", f"{n}.b"] for n in ("R1", "R2", "R3")}
        expr = jn(jn(rel("R1"), rel("R2"), eq("R1.a", "R2.a")), rel("R3"),
                  eq("R2.b", "R3.b"))
        db = random_database(schemas, seed=31)
        storage = Storage.from_database(db)
        assert join_tree_of(graph, db.registry) is None
        result, execution = optimize_and_run(expr, storage, use_cache=False)
        assert result.strategy == "dp"
        assert bag_equal(execution.relation, expr.eval(db))

    def test_cached_plan_replays_the_join_tree(self):
        expr, storage = needle_chain()
        cache = PlanCache()
        first = optimize_query(expr, storage, cache=cache)
        assert first.strategy == "yannakakis" and not first.cache_hit
        second = optimize_query(expr, storage, cache=cache)
        assert second.cache_hit
        assert second.strategy == "yannakakis"
        assert second.join_tree == first.join_tree


class TestServed:
    def test_service_serves_the_reducer_plan(self):
        expr, storage = needle_chain()
        with QueryService(storage, workers=1, use_cache=False) as service:
            outcome = service.execute(expr)
        assert outcome.ok and outcome.strategy == "yannakakis"
        assert isinstance(outcome.execution.plan, YannakakisOp)
        assert bag_equal(outcome.relation, execute(outcome.pipeline.chosen, storage).relation)
        assert bag_equal(outcome.relation, expr.eval(storage.to_database(), ops=ORACLE_OPS))

    @pytest.mark.parametrize("how", ["cancel", "timeout"])
    def test_deadline_reaches_the_reducer_plan(self, serve_interrupted, how):
        import repro.engine.yannakakis as module

        expr, storage = needle_chain()
        outcome, built = serve_interrupted(expr, storage, module, "build_yannakakis_plan", how)
        assert outcome.status == {"cancel": "cancelled", "timeout": "timeout"}[how]
        assert [type(plan) for plan in built] == [YannakakisOp]


class TestConformanceTier:
    def test_tier_is_registered(self):
        assert "yannakakis" in EXECUTOR_TIERS

    def test_agrees_with_naive_on_acyclic_topologies(self):
        for scenario in (chain(4, ["join", "out", "out"]), star(4, oj_leaves=1),
                         snowflake(2, arm_length=2)):
            expr, db, _storage, _tree = scenario_case(scenario, 8, null_probability=0.25)
            got = run_executor("yannakakis", expr, db)
            assert bag_equal(got, run_executor("naive", expr, db)), scenario.name

    def test_wrapped_core_still_takes_the_fast_path(self):
        scenario = chain(3)
        expr, db, _storage, _tree = scenario_case(scenario, 9)
        wrapped = Project(
            Restrict(expr, eq("R1.a", "R2.a")), frozenset(["R1.a", "R3.a"]), dedup=False
        )
        got = run_executor("yannakakis", wrapped, db)
        assert bag_equal(got, wrapped.eval(db))

    def test_declines_on_cyclic_core(self):
        schemas = {n: [f"{n}.a", f"{n}.b"] for n in ("R1", "R2", "R3")}
        from repro.algebra.predicates import conjunction

        # the R3.a=R1.b conjunct makes the *class* hypergraph a triangle
        expr = jn(
            jn(rel("R1"), rel("R2"), eq("R1.a", "R2.a")),
            rel("R3"),
            conjunction([eq("R2.b", "R3.b"), eq("R3.a", "R1.b")]),
        )
        db = random_database(schemas, seed=12)
        with pytest.raises(PlanningError):
            run_executor("yannakakis", expr, db)

    def test_declines_without_a_join_core(self):
        db = random_database({"R1": ["R1.a", "R1.b"]}, seed=13)
        with pytest.raises(PlanningError):
            run_executor("yannakakis", Restrict(rel("R1"), eq("R1.a", "R1.b")), db)

    def test_cross_check_runs_the_tier(self):
        scenario = snowflake(3, arm_length=1, oj_arms=1)
        expr, db, _storage, _tree = scenario_case(scenario, 14)
        result = cross_check(expr, db)
        assert result.ok, result.summary()
        assert "yannakakis" in result.results


class TestFastPathVsDPTree:
    def test_workloads_match_the_dp_tree_and_the_oracle(self):
        """Whatever strategy the gates pick runs bag-equal to the DP tree
        (``execute(result.chosen)``) and to the oracle, on two acyclic
        workloads and a cyclic class hypergraph the reducer must leave
        to the other strategies."""
        from repro.algebra.predicates import conjunction

        schemas = {n: [f"{n}.a", f"{n}.b"] for n in ("R1", "R2", "R3")}
        cyclic = jn(
            jn(rel("R1"), rel("R2"), eq("R1.a", "R2.a")),
            rel("R3"),
            conjunction([eq("R2.b", "R3.b"), eq("R3.a", "R1.b")]),
        )
        cases = [
            (sample_implementing_tree(scenario.graph, random.Random(seed)), scenario.schemas, seed)
            for scenario, seed in ((chain(4), 5), (star(4, oj_leaves=1), 6))
        ]
        cases.append((cyclic, schemas, 7))
        for expr, case_schemas, seed in cases:
            db = random_database(
                case_schemas, seed=seed, max_rows=8, domain=2, null_probability=0.0
            )
            storage = Storage.from_database(db)
            result, execution = optimize_and_run(expr, storage, use_cache=False)
            dp = execute(result.chosen, storage).relation
            assert bag_equal(execution.relation, dp), (seed, result.strategy)
            assert bag_equal(execution.relation, expr.eval(db, ops=ORACLE_OPS)), seed
        assert result.strategy != "yannakakis"  # the cyclic case
