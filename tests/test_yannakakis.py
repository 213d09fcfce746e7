"""The Yannakakis semijoin-reducer operator, and acyclic graphs on the served path.

Covers the physical operator (full reducer + output-linear join against
the naive oracle, outerjoin padding, null keys, chords, batch-size
parity) and EXPLAIN ANALYZE surfacing of the reducer.  The optimizer
does not serve the reducer: acyclic graphs, the needle chain included,
run as DP trees, and whatever the Leapfrog gate picks stays bag-equal to
the DP tree and to the oracle.
"""

import random

import pytest

from repro.algebra.comparison import bag_equal
from repro.algebra.nulls import NULL, is_null
from repro.algebra.operators import ORACLE_OPS
from repro.algebra.predicates import eq
from repro.core.enumeration import sample_implementing_tree
from repro.core.expressions import jn, rel
from repro.core.graph import QueryGraph
from repro.core.gyo import join_tree_of
from repro.core.wcoj_order import Leapfrog
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
    output.  It is the one input on record where the reducer's bill came
    out below the DP tree's C_out; the optimizer serves it as a DP tree.
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
        # The needle chain is the one input on record where the reducer
        # priced below the DP tree; the optimizer no longer serves the
        # reducer, so it now chooses the DP tree.
        expr, storage = needle_chain()
        result, execution = optimize_and_run(expr, storage, use_cache=False)
        assert result.strategy == "dp"
        assert bag_equal(execution.relation, execute(result.chosen, storage).relation)
        assert bag_equal(execution.relation, expr.eval(storage.to_database(), ops=ORACLE_OPS))
        assert len(execution.relation) == 3  # the needles

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
        # A cache hit replays the cold run's strategy and plan: for the
        # needle chain, the DP tree.
        expr, storage = needle_chain()
        cache = PlanCache()
        first = optimize_query(expr, storage, cache=cache)
        assert first.strategy == "dp" and not first.cache_hit
        second = optimize_query(expr, storage, cache=cache)
        assert second.cache_hit
        assert second.strategy == "dp"
        assert second.chosen == first.chosen


class TestServed:
    def test_service_serves_the_reducer_plan(self):
        # The served needle chain runs as a DP tree, cold and from the
        # plan cache, and both answers match the oracle.
        expr, storage = needle_chain()
        oracle = expr.eval(storage.to_database(), ops=ORACLE_OPS)
        with QueryService(storage, workers=1, plan_cache=PlanCache()) as service:
            cold = service.execute(expr)
            warm = service.execute(expr)
        assert cold.ok and cold.strategy == "dp" and not cold.cache_hit
        assert not isinstance(cold.execution.plan, YannakakisOp)
        assert bag_equal(cold.relation, execute(cold.pipeline.chosen, storage).relation)
        assert bag_equal(cold.relation, oracle)
        assert len(cold.relation) == 3  # the needles
        assert warm.ok and warm.strategy == "dp" and warm.cache_hit
        assert bag_equal(warm.relation, oracle)


class TestFastPathVsDPTree:
    def test_workloads_match_the_dp_tree_and_the_oracle(self):
        """Whatever strategy the Leapfrog gate picks runs bag-equal to the
        DP tree (``result.chosen`` without its Leapfrog root, if any) and
        to the oracle, on two acyclic workloads and a cyclic class
        hypergraph."""
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
            chosen = result.chosen
            dp_tree = chosen.child if isinstance(chosen, Leapfrog) else chosen
            dp = execute(dp_tree, storage).relation
            assert bag_equal(execution.relation, dp), (seed, result.strategy)
            assert bag_equal(execution.relation, expr.eval(db, ops=ORACLE_OPS)), seed
