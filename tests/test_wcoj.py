"""The cyclic fast path end to end: operator, dispatch, tier, DP parity.

Four layers of assurance:

* known-answer pattern counts (triangle, 4-clique) against an
  independent brute-force recomputation, the SQLite oracle, and the
  algebra tier;
* bag-equality of Leapfrog Triejoin vs. the DP binary plans on every
  cyclic fuzz topology under nulls, duplicates, and skew;
* the optimizer's AGM cost gate (dispatches on cyclic cores with real
  data, declines acyclic graphs, outerjoins, and the collapsed-class
  ``cycle`` family);
* in-process checks that whatever strategy the gates pick is bag-equal
  to the DP tree and to the oracle, and that the Leapfrog node the gate
  puts in the chosen tree is served, cached and explained like any tree.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.algebra.comparison import bag_equal
from repro.algebra.nulls import NULL, is_null
from repro.algebra.operators import ORACLE_OPS
from repro.algebra.predicates import Const, TruePredicate, eq, gt, lt
from repro.algebra.relation import Database, Relation
from repro.algebra.tuples import Row
from repro.conformance.check import EXECUTOR_TIERS, cross_check, run_executor
from repro.conformance.serialize import expression_to_json
from repro.core.enumeration import sample_implementing_tree
from repro.core.expressions import Restrict, jn, oj, rel
from repro.core.graph import graph_of
from repro.core.wcoj_order import Leapfrog, wcoj_spec_of
from repro.datagen.random_db import random_database
from repro.datagen.topologies import (
    chain,
    clique4,
    cyclic_chord,
    join_cycle,
    square,
    triangle,
)
from repro.engine.executor import execute, execute_plan
from repro.engine.explain import explain_analyze
from repro.engine.storage import Storage, Table
from repro.engine.wcoj import LeapfrogTriejoinOp, build_wcoj_plan
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CoutCostModel
from repro.optimizer.pipeline import optimize_and_run, optimize_query
from repro.optimizer.plancache import PlanCache
from repro.service import QueryService
from repro.tools import instrumentation
from repro.util.errors import PlanningError

CYCLIC_SCENARIOS = [triangle(), square(), clique4(), cyclic_chord(4), cyclic_chord(5)]


def scenario_case(scenario, seed, **db_kwargs):
    """(expr, db, storage, spec) for one cyclic topology scenario."""
    rng = random.Random(seed)
    expr = sample_implementing_tree(scenario.graph, rng)
    db = random_database(scenario.schemas, seed=seed, **db_kwargs)
    storage = Storage.from_database(db)
    spec = wcoj_spec_of(scenario.graph, scenario.registry)
    return expr, db, storage, spec


def triangle_db(edges):
    """Encode an undirected edge list as the triangle scenario's relations.

    ``R1(x,z) ⋈ R2(x,y) ⋈ R3(y,z)`` over one shared edge set counts the
    (ordered) triangles of the graph, which the tests recount naively.
    """
    rows = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
    return Database(
        {
            "R1": Relation.from_dicts(
                ["R1.a", "R1.b"], [{"R1.a": x, "R1.b": z} for x, z in rows]
            ),
            "R2": Relation.from_dicts(
                ["R2.a", "R2.b"], [{"R2.a": x, "R2.b": y} for x, y in rows]
            ),
            "R3": Relation.from_dicts(
                ["R3.a", "R3.b"], [{"R3.a": y, "R3.b": z} for y, z in rows]
            ),
        }
    )


def spike_triangle(m=3, k=6):
    """(query, storage): the AGM zero-spike triangle the cyclic gate routes.

    ``k`` copies of ``(0, j)`` and ``(j, 0)`` for ``j in 1..m`` in all
    three relations, plus three diagonal needles: every pairwise join
    fans the spike out quadratically and only the needles survive.
    """
    pairs = [(0, j) for j in range(1, m + 1) for _ in range(k)]
    pairs += [(b, a) for a, b in pairs]
    pairs += [(m + 1 + t, m + 1 + t) for t in range(3)]
    storage = Storage()
    for name in ("T1", "T2", "T3"):
        storage.create_table(
            name, [f"{name}.a", f"{name}.b"], [{f"{name}.a": a, f"{name}.b": b} for a, b in pairs]
        )
    query = jn(
        jn(rel("T1"), rel("T2"), eq("T1.a", "T2.a")),
        rel("T3"),
        eq("T2.b", "T3.a") & eq("T3.b", "T1.b"),
    )
    return query, storage


def residual_triangle():
    """(query, equi-only query, storage): the spike triangle with a third
    column per relation and a non-equality conjunct ``T1.c < T3.c`` on
    the ``T3``-``T1`` edge, which the Leapfrog plan runs as a residual."""
    _query, spiked = spike_triangle(k=10)  # k=6 prices the residual's DP plan below the AGM bound
    storage = Storage()
    for offset, name in enumerate(("T1", "T2", "T3")):
        a, b, c = f"{name}.a", f"{name}.b", f"{name}.c"
        pairs = zip(spiked[name].columns[a], spiked[name].columns[b])
        storage.create_table(
            name, [a, b, c], [{a: x, b: y, c: (i + offset) % 4} for i, (x, y) in enumerate(pairs)]
        )

    def query(residual):
        return jn(
            jn(rel("T1"), rel("T2"), eq("T1.a", "T2.a")),
            rel("T3"),
            eq("T2.b", "T3.a") & eq("T3.b", "T1.b") & residual,
        )

    return query(lt("T1.c", "T3.c")), query(TruePredicate()), storage


def triangle_query():
    scenario = triangle()
    return jn(
        jn(rel("R1"), rel("R2"), eq("R1.a", "R2.a")),
        rel("R3"),
        eq("R2.b", "R3.a") & eq("R3.b", "R1.b"),
    ), scenario


def dp_tree(chosen):
    """The binary DP tree: ``chosen`` without its Leapfrog root, if any."""
    return chosen.child if isinstance(chosen, Leapfrog) else chosen


class TestKnownAnswers:
    def test_triangle_count_matches_brute_force_and_oracles(self):
        rng = random.Random(5)
        nodes = list(range(8))
        edges = sorted(
            {tuple(sorted(rng.sample(nodes, 2))) for _ in range(14)}
        )
        db = triangle_db(edges)
        expr, _scenario = triangle_query()

        # Independent recount: ordered vertex triples over the directed
        # edge set (each undirected triangle appears 6 times).
        directed = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
        expected = sum(
            1
            for x, y, z in itertools.permutations(nodes, 3)
            if (x, y) in directed and (y, z) in directed and (x, z) in directed
        )

        wcoj_rows = run_executor("wcoj", expr, db)
        assert len(wcoj_rows) == expected
        for tier in ("sqlite", "algebra"):
            assert bag_equal(wcoj_rows, run_executor(tier, expr, db)), tier

    def test_clique4_count_matches_brute_force_and_oracles(self):
        rng = random.Random(9)
        nodes = list(range(6))
        edges = sorted({tuple(sorted(rng.sample(nodes, 2))) for _ in range(12)})
        directed = sorted({(u, v) for u, v in edges} | {(v, u) for u, v in edges})
        scenario = clique4()
        # Ri's attributes are its three incident pattern edges; the shared
        # classes give R1(x,y,z,w)-style bindings: R1=(x,*), R2=(x,*),
        # R3=(y,*), R4=(z,*) per the clique4 builder's edge layout.
        db = Database(
            {
                "R1": Relation.from_dicts(
                    ["R1.a", "R1.b", "R1.c"],
                    [{"R1.a": a, "R1.b": a, "R1.c": a} for a, _b in directed],
                ),
                "R2": Relation.from_dicts(
                    ["R2.a", "R2.b", "R2.c"],
                    [{"R2.a": a, "R2.b": b, "R2.c": b} for a, b in directed],
                ),
                "R3": Relation.from_dicts(
                    ["R3.a", "R3.b", "R3.c"],
                    [{"R3.a": a, "R3.b": b, "R3.c": b} for a, b in directed],
                ),
                "R4": Relation.from_dicts(
                    ["R4.a", "R4.b", "R4.c"],
                    [{"R4.a": a, "R4.b": b, "R4.c": b} for a, b in directed],
                ),
            }
        )
        expr = jn(
            jn(
                jn(rel("R1"), rel("R2"), eq("R1.a", "R2.a")),
                rel("R3"),
                eq("R1.b", "R3.a") & eq("R2.b", "R3.b"),
            ),
            rel("R4"),
            eq("R1.c", "R4.a") & eq("R2.c", "R4.b") & eq("R3.c", "R4.c"),
        )
        wcoj_rows = run_executor("wcoj", expr, db)
        for tier in ("sqlite", "algebra", "naive"):
            assert bag_equal(wcoj_rows, run_executor(tier, expr, db)), tier


class TestOperator:
    @pytest.mark.parametrize("scenario", CYCLIC_SCENARIOS, ids=lambda s: s.name)
    def test_matches_naive_eval(self, scenario):
        for seed in (1, 2, 3):
            expr, db, storage, spec = scenario_case(
                scenario,
                seed,
                max_rows=8,
                null_probability=0.3,
                duplicate_probability=0.3,
            )
            assert spec is not None, scenario.name
            plan = build_wcoj_plan(spec, storage, {})
            assert bag_equal(plan.run(), expr.eval(db)), scenario.name

    @pytest.mark.parametrize("scenario", CYCLIC_SCENARIOS, ids=lambda s: s.name)
    def test_matches_naive_eval_under_zipf_skew(self, scenario):
        for seed in (4, 5):
            rng = random.Random(seed)
            expr = sample_implementing_tree(scenario.graph, rng)
            db = random_database(
                scenario.schemas,
                seed=seed,
                max_rows=12,
                domain=3,
                null_probability=0.1,
                zipf_skew=1.5,
            )
            storage = Storage.from_database(db)
            spec = wcoj_spec_of(scenario.graph, scenario.registry)
            plan = build_wcoj_plan(spec, storage, {})
            assert bag_equal(plan.run(), expr.eval(db)), scenario.name

    def test_null_keys_never_join(self):
        expr, _scenario = triangle_query()
        db = Database(
            {
                "R1": Relation.from_dicts(
                    ["R1.a", "R1.b"],
                    [{"R1.a": NULL, "R1.b": 1}, {"R1.a": 1, "R1.b": 1}],
                ),
                "R2": Relation.from_dicts(
                    ["R2.a", "R2.b"],
                    [{"R2.a": 1, "R2.b": 2}, {"R2.a": NULL, "R2.b": NULL}],
                ),
                "R3": Relation.from_dicts(
                    ["R3.a", "R3.b"], [{"R3.a": 2, "R3.b": 1}]
                ),
            }
        )
        rows = list(run_executor("wcoj", expr, db))
        assert len(rows) == 1
        assert all(not is_null(v) for v in rows[0].values())

    @pytest.mark.parametrize("left, right", [(1, 1.0), (True, 1)], ids=["int-float", "bool-int"])
    def test_mixed_numeric_keys_join_like_equality(self, left, right):
        # ``=`` and the hash join treat 1, 1.0 and True as one value, so
        # the tries must too: the one triangle joins on every path.
        expr, scenario = triangle_query()
        db = Database(
            {
                "R1": Relation.from_dicts(["R1.a", "R1.b"], [{"R1.a": left, "R1.b": 5}]),
                "R2": Relation.from_dicts(["R2.a", "R2.b"], [{"R2.a": right, "R2.b": 7}]),
                "R3": Relation.from_dicts(["R3.a", "R3.b"], [{"R3.a": 7, "R3.b": 5}]),
            }
        )
        storage = Storage.from_database(db)
        spec = wcoj_spec_of(scenario.graph, scenario.registry)
        leapfrog = execute_plan(build_wcoj_plan(spec, storage, {})).relation
        assert len(leapfrog) == 1
        assert bag_equal(leapfrog, execute(expr, storage).relation)
        assert bag_equal(leapfrog, expr.eval(db, ops=ORACLE_OPS))

    def test_arity_mismatch_rejected(self):
        _expr, scenario = triangle_query()
        spec = wcoj_spec_of(scenario.graph, scenario.registry)
        db = random_database(scenario.schemas, seed=1)
        storage = Storage.from_database(db)
        plan = build_wcoj_plan(spec, storage, {})
        with pytest.raises(PlanningError):
            LeapfrogTriejoinOp(spec, plan.inputs[:2])


class TestOptimizerDispatch:
    # Seed 0 draws three comparably-sized relations (~30-50 rows each),
    # where the AGM bound beats every binary plan; some seeds draw a
    # near-empty relation and DP legitimately wins (see
    # test_small_data_keeps_the_dp_plan).
    def _triangle_storage(self, seed=0, rows=40, domain=4):
        expr, scenario = triangle_query()
        db = random_database(
            scenario.schemas,
            seed=seed,
            max_rows=rows,
            domain=domain,
            null_probability=0.0,
            allow_empty=False,
        )
        return expr, db, Storage.from_database(db)

    def test_cyclic_core_with_real_data_dispatches_to_wcoj(self):
        expr, db, storage = self._triangle_storage()
        result, execution = optimize_and_run(expr, storage, use_cache=False)
        assert result.strategy == "wcoj"
        assert result.wcoj_spec is not None
        assert bag_equal(execution.relation, expr.eval(db))

    def test_toggle_off_is_bag_equal_dp(self):
        # The chosen tree is the DP tree under a Leapfrog root; running
        # the DP tree instead of the Leapfrog plan must give the same bag.
        expr, db, storage = self._triangle_storage()
        result, on = optimize_and_run(expr, storage, use_cache=False)
        assert result.strategy == "wcoj"
        assert isinstance(result.chosen, Leapfrog)
        off = execute(result.chosen.child, storage)
        assert bag_equal(on.relation, off.relation)

    def test_acyclic_graph_never_takes_wcoj(self):
        scenario = chain(4)
        rng = random.Random(3)
        expr = sample_implementing_tree(scenario.graph, rng)
        db = random_database(scenario.schemas, seed=3, max_rows=20)
        result = optimize_query(expr, Storage.from_database(db), use_cache=False)
        assert result.strategy == "dp"
        assert result.wcoj_spec is None

    def test_collapsed_class_cycle_stays_off_wcoj(self):
        # join_cycle's .a=.a edges collapse every attribute into one
        # class; its class hypergraph is acyclic, so WCOJ must decline
        # even though the relation-level graph has a cycle.
        scenario = join_cycle(4)
        spec = wcoj_spec_of(scenario.graph, scenario.registry)
        assert spec is None

    def test_outerjoin_reaching_the_core_declines(self):
        graph = graph_of(
            oj(
                jn(
                    jn(rel("R1"), rel("R2"), eq("R1.a", "R2.a")),
                    rel("R3"),
                    eq("R2.b", "R3.a") & eq("R3.b", "R1.b"),
                ),
                rel("R4"),
                eq("R1.a", "R4.a"),
            ),
            Storage.from_database(
                random_database(
                    {n: [f"{n}.a", f"{n}.b"] for n in ("R1", "R2", "R3", "R4")},
                    seed=1,
                )
            ).registry,
        )
        registry = Storage.from_database(
            random_database(
                {n: [f"{n}.a", f"{n}.b"] for n in ("R1", "R2", "R3", "R4")}, seed=1
            )
        ).registry
        assert graph.oj_edges
        assert wcoj_spec_of(graph, registry) is None

    def test_cached_plan_replays_the_wcoj_spec(self):
        expr, db, storage = self._triangle_storage()
        cache = PlanCache()
        first, run1 = optimize_and_run(expr, storage, cache=cache)
        second, run2 = optimize_and_run(expr, storage, cache=cache)
        assert first.strategy == second.strategy == "wcoj"
        assert not first.cache_hit and second.cache_hit
        assert second.wcoj_spec == first.wcoj_spec
        assert bag_equal(run1.relation, run2.relation)

    def test_explain_names_the_leapfrog_plan_that_runs(self):
        expr, _db, storage = self._triangle_storage()
        cache = PlanCache()
        cold = optimize_query(expr, storage, cache=cache)
        warm = optimize_query(expr, storage, cache=cache)
        order = ", ".join(cold.wcoj_spec.variables)
        assert cold.explain().splitlines()[-1] == f"strategy:   wcoj (Leapfrog over {order})"
        assert warm.explain().splitlines()[-1] == (
            f"strategy:   wcoj (Leapfrog over {order}), replayed from the plan cache"
        )

    def test_small_data_keeps_the_dp_plan(self):
        # One row per relation: the AGM bound cannot beat C_out's tiny
        # intermediate estimates, so the gate keeps the binary plan.
        expr, scenario = triangle_query()
        db = random_database(
            scenario.schemas, seed=2, max_rows=1, null_probability=0.0, allow_empty=False
        )
        result = optimize_query(expr, Storage.from_database(db), use_cache=False)
        assert result.strategy == "dp"


class TestServed:
    def test_service_serves_the_leapfrog_plan(self):
        expr, storage = spike_triangle()
        with QueryService(storage, workers=1, use_cache=False) as service:
            outcome = service.execute(expr)
        assert outcome.ok and outcome.strategy == "wcoj"
        assert isinstance(outcome.execution.plan, LeapfrogTriejoinOp)
        assert bag_equal(outcome.relation, execute(outcome.pipeline.chosen, storage).relation)
        assert bag_equal(outcome.relation, expr.eval(storage.to_database(), ops=ORACLE_OPS))

    def test_cold_and_cached_runs_serve_one_leapfrog_plan(self, monkeypatch):
        """Served cold and then from the cache, a wcoj shape runs the same
        Leapfrog plan, which the cache keeps inside the chosen tree and
        which gets a ``query.plan`` span like a DP plan."""
        from repro.observability.spans import default_tracer

        monkeypatch.delenv("REPRO_TRACE", raising=False)  # ambient phase spans on
        expr, storage = spike_triangle()
        cache = PlanCache()
        with QueryService(storage, workers=1, plan_cache=cache) as service:
            cold = service.execute(expr)
            warm = service.execute(expr)
        assert (cold.strategy, warm.strategy) == ("wcoj", "wcoj")
        assert not cold.cache_hit and warm.cache_hit
        described = cold.execution.plan.describe()
        assert described.startswith("LeapfrogTriejoin[")
        assert warm.execution.plan.describe() == described
        oracle = expr.eval(storage.to_database(), ops=ORACLE_OPS)
        assert bag_equal(cold.relation, oracle) and bag_equal(warm.relation, oracle)

        entry = cache.lookup(cold.pipeline.fingerprint, storage.generation)
        assert len(entry) == 2
        assert entry == (cold.pipeline.verdict, cold.pipeline.chosen)

        served = [root for root in default_tracer().roots if root.name == "service.query"]
        assert len(served) == 2
        for root in served:
            assert root.attrs["strategy"] == "wcoj"
            plan_span = root.find("query.plan")
            assert plan_span is not None
            assert plan_span.attrs["plan"] == cold.execution.plan.span_label()

        order = ", ".join(cold.pipeline.wcoj_spec.variables)
        chosen = warm.pipeline.chosen.to_infix()
        assert chosen.startswith(f"Leapfrog[{order}](")
        assert f"chosen:     {chosen}" in warm.pipeline.explain().splitlines()

    @pytest.mark.parametrize("how", ["cancel", "timeout"])
    def test_deadline_reaches_the_leapfrog_plan(self, serve_interrupted, how):
        import repro.engine.wcoj as module

        expr, storage = spike_triangle()
        outcome, built = serve_interrupted(expr, storage, module, "build_wcoj_plan", how)
        assert outcome.status == {"cancel": "cancelled", "timeout": "timeout"}[how]
        assert [type(plan) for plan in built] == [LeapfrogTriejoinOp]


class TestResidual:
    """The spec's non-equality conjuncts run in a Filter above the join,
    which counts one evaluation per joined combination."""

    def test_leapfrog_node_filters_above_the_join(self):
        expr, equi, storage = residual_triangle()
        scenario_spec = wcoj_spec_of(graph_of(expr, storage.registry), storage.registry)
        assert len(scenario_spec.residuals) == 1
        db = storage.to_database()
        oracle = expr.eval(db, ops=ORACLE_OPS)
        combinations = len(equi.eval(db, ops=ORACLE_OPS))
        assert 0 < len(oracle) < combinations

        execution = execute(Leapfrog(expr, scenario_spec), storage)
        head, below = execution.plan.describe().splitlines()[:2]
        assert head == "Filter[(T1.c < T3.c)]"
        assert below.strip().startswith("LeapfrogTriejoin[")
        assert bag_equal(execution.relation, oracle)
        assert execution.metrics.predicate_evaluations == combinations
        assert execution.metrics.rows_emitted["LeapfrogTriejoin"] == combinations

        text = explain_analyze(execution.plan, storage).render().splitlines()
        assert text[0].startswith("-> Filter[(T1.c < T3.c)]")
        assert text[1].strip().startswith("-> LeapfrogTriejoin[")

    def test_wcoj_tier_and_service_agree_with_the_oracle(self):
        expr, equi, storage = residual_triangle()
        db = storage.to_database()
        oracle = expr.eval(db, ops=ORACLE_OPS)
        assert bag_equal(run_executor("wcoj", expr, db), oracle)
        with QueryService(storage, workers=1, use_cache=False) as service:
            outcome = service.execute(expr)
        assert outcome.ok and outcome.strategy == "wcoj"
        assert outcome.execution.plan.describe().startswith("Filter[(T1.c < T3.c)]")
        assert bag_equal(outcome.relation, oracle)
        assert outcome.execution.metrics.predicate_evaluations == len(
            equi.eval(db, ops=ORACLE_OPS)
        )


class TestTrieCache:
    def test_insert_rebuilds_the_trie_without_the_row_view(self, monkeypatch):
        """A stale trie is rebuilt from the table's columns: the Leapfrog
        never builds a table's ``rows`` view."""
        expr, storage = spike_triangle()
        spec = wcoj_spec_of(graph_of(expr, storage.registry), storage.registry)
        row_views = []
        rows_upto = Table._rows_upto
        monkeypatch.setattr(
            Table, "_rows_upto", lambda table, n: row_views.append(table) or rows_upto(table, n)
        )

        def run():
            before = instrumentation.snapshot()
            relation = execute_plan(build_wcoj_plan(spec, storage, {})).relation
            return relation, instrumentation.delta(before).get("trie_builds", 0)

        first, cold_builds = run()
        _same, warm_builds = run()
        storage["T1"].insert(Row({"T1.a": 4, "T1.b": 4}))  # a needle: one more triangle
        row_views.clear()
        after, rebuilt = run()
        assert (cold_builds, warm_builds, rebuilt) == (3, 0, 1)
        assert row_views == []
        assert len(after) == len(first) + 1


class TestLeapfrogNode:
    def test_reads_as_its_child_and_plans_as_the_leapfrog(self):
        """Evaluation, SQL, serialization, scheme and costing see the child;
        the planner runs the Leapfrog over the child's filtered leaves."""
        _expr, scenario = triangle_query()
        child = jn(
            jn(Restrict(rel("R1"), gt("R1.a", Const(0))), rel("R2"), eq("R1.a", "R2.a")),
            rel("R3"),
            eq("R2.b", "R3.a") & eq("R3.b", "R1.b"),
        )
        node = Leapfrog(child, wcoj_spec_of(scenario.graph, scenario.registry))
        db = random_database(scenario.schemas, seed=4, max_rows=12, domain=3)
        storage = Storage.from_database(db)
        oracle = child.eval(db, ops=ORACLE_OPS)
        assert bag_equal(node.eval(db, ops=ORACLE_OPS), oracle)
        assert bag_equal(run_executor("sqlite", node, db), oracle)
        assert expression_to_json(node) == expression_to_json(child)
        assert node.scheme(db.registry) == child.scheme(db.registry)
        bare = Leapfrog(triangle_query()[0], node.spec)  # the cost walks take bare leaves
        estimator = CardinalityEstimator(storage)
        estimate = estimator.estimate_expression(bare).cardinality
        assert estimate == estimator.estimate_expression(bare.child).cardinality
        cout = CoutCostModel(estimator)
        assert cout.plan_cost(bare) == cout.plan_cost(bare.child)

        execution = execute(node, storage)
        assert isinstance(execution.plan, LeapfrogTriejoinOp)
        assert execution.plan.inputs[0].describe().startswith("Filter[(R1.a > 0)]")
        assert bag_equal(execution.relation, oracle)
        assert node == Leapfrog(child, node.spec) and hash(node) == hash(Leapfrog(child, node.spec))


class TestExplain:
    def test_explain_analyze_shows_leapfrog_metering(self):
        expr, scenario = triangle_query()
        db = random_database(
            scenario.schemas, seed=11, max_rows=20, null_probability=0.0, allow_empty=False
        )
        storage = Storage.from_database(db)
        spec = wcoj_spec_of(scenario.graph, scenario.registry)
        plan = build_wcoj_plan(spec, storage, {})
        node = explain_analyze(plan, storage)
        text = node.render()
        assert "LeapfrogTriejoin" in text
        assert "dispatch=leapfrog-triejoin" in text
        assert "wcoj_seeks=" in text and "wcoj_ties=" in text
        assert node.details["wcoj_seeks"] > 0
        assert node.actual_rows == len(list(plan.run()))


class TestConformanceTier:
    def test_wcoj_is_a_registered_tier(self):
        assert "wcoj" in EXECUTOR_TIERS

    @pytest.mark.parametrize("scenario", CYCLIC_SCENARIOS, ids=lambda s: s.name)
    def test_cross_check_all_tiers_on_cyclic_topologies(self, scenario):
        expr, db, _storage, _spec = scenario_case(
            scenario, 6, max_rows=6, null_probability=0.2, duplicate_probability=0.3
        )
        result = cross_check(expr, db, executors=EXECUTOR_TIERS)
        assert result.ok, result.summary()
        assert "wcoj" in result.results

    def test_tier_declines_acyclic_queries(self):
        scenario = chain(3)
        expr = sample_implementing_tree(scenario.graph, random.Random(1))
        db = random_database(scenario.schemas, seed=1)
        with pytest.raises(PlanningError):
            run_executor("wcoj", expr, db)


class TestFastPathVsDPTree:
    def test_workloads_match_the_dp_tree_and_the_oracle(self):
        """Whatever strategy the gates pick runs bag-equal to the DP tree
        (``execute(result.chosen)``) and to the oracle, on the cyclic
        topologies and on an acyclic chain Leapfrog must never take."""
        cases = [
            (scenario, seed, dict(max_rows=10, domain=3, null_probability=0.1))
            for scenario, seed in (
                (triangle(), 3), (square(), 4), (clique4(), 5), (cyclic_chord(4), 6)
            )
        ]
        cases.append((chain(3), 8, dict(max_rows=8, domain=2, null_probability=0.0)))
        for scenario, seed, db_kwargs in cases:
            expr = sample_implementing_tree(scenario.graph, random.Random(seed))
            db = random_database(scenario.schemas, seed=seed, **db_kwargs)
            storage = Storage.from_database(db)
            result, execution = optimize_and_run(expr, storage, use_cache=False)
            dp = execute(dp_tree(result.chosen), storage).relation
            assert bag_equal(execution.relation, dp), (scenario.name, result.strategy)
            assert bag_equal(execution.relation, expr.eval(db, ops=ORACLE_OPS)), scenario.name
        assert result.strategy != "wcoj"  # the acyclic chain
