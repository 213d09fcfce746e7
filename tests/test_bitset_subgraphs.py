"""The bitset enumerators reproduce a brute-force reference *exactly*.

The library enumerates connected subsets, ordered partitions and legal
cuts on machine-int masks (:mod:`repro.core.bitset`).  The reference
below is the plain frozenset code: subsets grown by BFS, partitions by
counting through every bitmask and testing connectivity, the cut rule
read off :meth:`QueryGraph.cut`.  It shares nothing with the bitset
index.  The checks are stronger than set equality: the sequences must
match in order (bit order equals sorted node order, so ascending
submasks match the bitmask loop), because that order is what fixes IT
enumeration order and uniform IT sampling.  Two tests
drive the library's own IT enumeration and sampler with the reference
enumerators patched in and demand identical output.

The DP no longer walks frozensets at all: it fills a table keyed by
masks, visits each unordered split once, and builds one tree at the end.
:func:`reference_dp` keeps the loop it replaced (frozenset subsets from
the reference enumerators, both orientations of every cut in ascending
submask order, an expression tree for every candidate, the first
cheapest one kept) and the DP must agree with it exactly: the same tree,
the same float cost, the same root estimate, the same table size.  On
identical tables most subsets are decided by ties, which is where the
DP's ``(cost, left mask)`` minimum must equal the reference's
first-visited-wins rule.
"""

from __future__ import annotations

import random
from typing import FrozenSet, List

import pytest

import repro.core.enumeration as enumeration
import repro.optimizer.baselines as baselines
from repro.algebra import conjunction, eq
from repro.core import (
    canonicalize,
    count_implementing_trees,
    implementing_trees,
    jn,
    oj,
    sample_implementing_tree,
)
from repro.core.enumeration import _ordered_partitions, root_operator
from repro.core.expressions import Join, LeftOuterJoin, Rel, RightOuterJoin
from repro.datagen import chain, random_databases, random_nice_graph, star
from repro.engine import Storage
from repro.engine.planner import split_equijoin
from repro.optimizer import (
    CardinalityEstimator,
    CoutCostModel,
    DPOptimizer,
    OuterjoinBarrierOptimizer,
    Plan,
    RetrievalCostModel,
    combinable_pairs,
    connected_subsets,
)
from repro.tools import instrumentation

SCENARIOS = [
    chain(4, ["join", "out", "out"]),
    chain(5, ["out", "join", "out", "join"]),
    star(5, oj_leaves=2),
    random_nice_graph(2, 2, seed=7),
    random_nice_graph(3, 1, seed=8),
]


# -- the brute-force reference ---------------------------------------------------


def reference_connected_subsets(graph) -> List[FrozenSet[str]]:
    found = {frozenset({n}) for n in graph.nodes}
    frontier = list(found)
    while frontier:
        grown = []
        for subset in frontier:
            for node in subset:
                for nb in graph.neighbors(node) - subset:
                    bigger = subset | {nb}
                    if bigger not in found:
                        found.add(bigger)
                        grown.append(bigger)
        frontier = grown
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def reference_partitions(graph, nodes):
    members = sorted(nodes)
    n = len(members)
    for mask in range(1, (1 << n) - 1):
        side_a = frozenset(members[i] for i in range(n) if mask & (1 << i))
        side_b = nodes - side_a
        if graph.is_connected(side_a) and graph.is_connected(side_b):
            yield side_a, side_b


def reference_cut_operator(graph, side_a, side_b):
    join_cut, oj_cut = graph.cut(side_a, side_b)
    if (oj_cut and join_cut) or len(oj_cut) > 1:
        return None
    if oj_cut:
        (preserved, _null_supplied), predicate = oj_cut[0]
        return ("loj" if preserved in side_a else "roj"), predicate
    if join_cut:
        return "join", conjunction([p for _pair, p in join_cut])
    return None


def reference_combinable_pairs(graph, nodes):
    for side_a, side_b in reference_partitions(graph, nodes):
        op = reference_cut_operator(graph, side_a, side_b)
        if op is not None:
            yield side_a, side_b, op[0], op[1]


@pytest.fixture
def reference_enumeration(monkeypatch):
    """Route IT enumeration through the reference enumerators."""
    monkeypatch.setattr(enumeration, "_ordered_partitions", reference_partitions)
    monkeypatch.setattr(enumeration, "root_operator", reference_cut_operator)
    return monkeypatch


# -- the reference DP ----------------------------------------------------------------

_OPERATOR = {"join": Join, "loj": LeftOuterJoin, "roj": RightOuterJoin}


def reference_dp(graph, cost_model):
    """The DP loop before masks: frozenset keys, a tree per candidate cut.

    Returns the plan and the number of filled table entries.
    """
    estimator = cost_model.estimator
    best = {}
    with estimator.memo_scope(graph.bitset_index()):
        for subset in reference_connected_subsets(graph):
            if len(subset) == 1:
                name = next(iter(subset))
                best[subset] = Plan(Rel(name), estimator.base(name), cost_model.leaf_cost(name))
                continue
            candidate = None
            for side_a, side_b, kind, predicate in reference_combinable_pairs(graph, subset):
                left, right = best.get(side_a), best.get(side_b)
                if left is None or right is None:
                    continue
                expr = _OPERATOR[kind](left.expr, right.expr, predicate)
                # The estimator takes the preserved side first.
                est_left, est_right = (right, left) if kind == "roj" else (left, right)
                est_kind = "join" if kind == "join" else "left_outer"
                estimate = estimator.combine(
                    est_kind, predicate, est_left.estimate, est_right.estimate
                )
                extra = cost_model.combine_cost(
                    est_kind,
                    predicate,
                    est_left,
                    est_right,
                    estimate.cardinality,
                    estimate.join_cardinality,
                )
                cost = left.cost + right.cost + extra
                if candidate is None or cost < candidate.cost:
                    candidate = Plan(expr, estimate, cost)
            if candidate is not None:
                best[subset] = candidate
    return best[graph.nodes], len(best)


class TreeRetrievalCostModel(RetrievalCostModel):
    """The retrieval model as it read plans before ``Plan.base``.

    Access paths come from the subplans' trees and the outer side's
    scheme; the join cardinality is recomputed from the selectivity.
    ``probes`` counts the cuts priced as index probes.
    """

    probes = 0

    def combine_cost(self, kind, predicate, left, right, cardinality, join_cardinality) -> float:
        join_card = min(
            cardinality,
            left.cardinality
            * right.cardinality
            * self.estimator.join_selectivity(predicate, left.estimate, right.estimate),
        )
        cost = 0.0
        if isinstance(left.expr, Rel):
            cost += float(len(self.storage[left.expr.name]))
        if isinstance(right.expr, Rel):
            table = self.storage[right.expr.name]
            split = split_equijoin(
                predicate, left.expr.scheme(self.storage.registry), table.schema
            )
            if split is not None and table.index_on(split[1]) is not None:
                self.probes += 1
                cost += max(join_card, 0.0)
            else:
                cost += float(len(table))
        return cost


def indexed_storage(database, graph) -> Storage:
    """The database as storage, with every edge attribute of every other
    relation (in sorted order) indexed, so both access paths get priced."""
    storage = Storage.from_database(database)
    indexed = set(sorted(graph.nodes)[::2])
    for predicate in [*graph.join_edges.values(), *graph.oj_edges.values()]:
        for attribute in predicate.attributes():
            owner = storage.registry.owner(attribute)
            if owner in indexed:
                storage[owner].create_index(attribute)
    return storage


def assert_same_plan(plan, reference):
    assert plan.expr.to_infix(show_predicates=True) == reference.expr.to_infix(
        show_predicates=True
    )
    assert plan.cost == reference.cost
    estimate, expected = plan.estimate, reference.estimate
    assert estimate.nodes == expected.nodes
    assert estimate.cardinality == expected.cardinality
    assert estimate.join_cardinality == expected.join_cardinality
    assert estimate.distinct == expected.distinct


# -- the checks --------------------------------------------------------------------


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: ",".join(sorted(s.graph.nodes)))
class TestEnumerationIdentical:
    def test_connected_subsets_identical(self, scenario):
        graph = scenario.graph
        assert connected_subsets(graph) == reference_connected_subsets(graph)

    def test_ordered_partitions_identical(self, scenario):
        graph = scenario.graph
        for subset in connected_subsets(graph):
            if len(subset) < 2:
                continue
            assert list(_ordered_partitions(graph, subset)) == list(
                reference_partitions(graph, subset)
            )

    def test_combinable_pairs_identical(self, scenario):
        graph = scenario.graph
        for subset in connected_subsets(graph):
            assert list(combinable_pairs(graph, subset)) == list(
                reference_combinable_pairs(graph, subset)
            )

    def test_cut_operator_identical(self, scenario):
        graph = scenario.graph
        for subset in connected_subsets(graph):
            if len(subset) < 2:
                continue
            for side_a, side_b in reference_partitions(graph, subset):
                assert root_operator(graph, side_a, side_b) == reference_cut_operator(
                    graph, side_a, side_b
                )

    def test_implementing_trees_identical(self, scenario, reference_enumeration):
        graph = scenario.graph
        reference = [canonicalize(t) for t in implementing_trees(graph)]
        reference_enumeration.undo()
        bitset = [canonicalize(t) for t in implementing_trees(graph)]
        assert bitset == reference
        assert len(bitset) == count_implementing_trees(graph)

    def test_it_sampling_identical(self, scenario, reference_enumeration):
        """Same RNG stream -> same sampled tree on both enumerators."""

        def draws():
            return [
                canonicalize(sample_implementing_tree(scenario.graph, random.Random(s)))
                for s in range(5)
            ]

        reference = draws()
        reference_enumeration.undo()
        assert draws() == reference

    def test_dp_plan_identical(self, scenario):
        """Mask DP vs :func:`reference_dp`, under both cost models."""
        dbs = random_databases(scenario.schemas, 1, seed=3, max_rows=7, allow_empty=False)
        storage = indexed_storage(dbs[0], scenario.graph)
        tree_model = TreeRetrievalCostModel(CardinalityEstimator(storage), storage)
        for model, reference_model in (
            (CoutCostModel(CardinalityEstimator(storage)), None),
            (RetrievalCostModel(CardinalityEstimator(storage), storage), tree_model),
        ):
            reference, reference_subsets = reference_dp(
                scenario.graph, reference_model or model
            )
            before = instrumentation.snapshot()
            plan = DPOptimizer(scenario.graph, model).optimize()
            assert instrumentation.delta(before).get("dp_subsets") == reference_subsets
            assert_same_plan(plan, reference)
        assert tree_model.probes > 0  # the index-probe branch was priced


#: Graphs whose DP is decided by ties once every table is the same.
TIE_SCENARIOS = [
    *(
        pytest.param(random_nice_graph(3, 3, seed=seed, extra_join_edges=1), id=f"nice-{seed}")
        for seed in (11, 12, 13)
    ),
    pytest.param(random_nice_graph(4, 2, seed=14, extra_join_edges=2), id="nice-14"),
    pytest.param(chain(6, ["out"] * 5), id="outerjoin-chain"),
    # The hub R0 is bit 0, so it is always in the half holding the lowest
    # bit: an ``loj`` cut's ``roj`` twin has the smaller left mask exactly
    # when that half's other leaves sort after the null-supplied one.
    pytest.param(star(5, oj_leaves=5), id="outerjoin-star"),
]


def identical_storage(scenario) -> Storage:
    """Every relation holds the same rows, so many cuts cost the same."""
    storage = Storage()
    for name, (a, b) in sorted(scenario.schemas.items()):
        storage.create_table(name, [a, b], [{a: i % 3, b: i % 2} for i in range(6)])
    return storage


@pytest.mark.parametrize("scenario", TIE_SCENARIOS)
def test_dp_plan_identical_where_ties_decide(scenario):
    """On identical tables the winner of most subsets is decided by the
    tie-break: the (cost, left mask) minimum must pick what the reference's
    first-visited-wins loop picks, tree, float cost and root estimate."""
    storage = identical_storage(scenario)
    for model in (
        CoutCostModel(CardinalityEstimator(storage)),
        RetrievalCostModel(CardinalityEstimator(storage), storage),
    ):
        reference, reference_subsets = reference_dp(scenario.graph, model)
        before = instrumentation.snapshot()
        plan = DPOptimizer(scenario.graph, model).optimize()
        assert instrumentation.delta(before).get("dp_subsets") == reference_subsets
        assert_same_plan(plan, reference)


class ReferenceDPOptimizer:
    """:func:`reference_dp` behind the :class:`DPOptimizer` interface."""

    def __init__(self, graph, cost_model):
        self.graph = graph
        self.cost_model = cost_model

    def optimize(self):
        return reference_dp(self.graph, self.cost_model)[0]


def test_dp_plan_identical_through_placeholders(monkeypatch):
    """The barrier baseline plans join clusters whose leaves stand for
    subtrees; its cost model resolves every subplan's tree, so this is the
    path that forces the mask DP's deferred trees mid-search."""
    storage = Storage()
    storage.create_table("A", ["A.k", "A.d"], [{"A.k": i, "A.d": i % 3} for i in range(12)])
    storage.create_table("B", ["B.k", "B.j"], [{"B.k": i % 6, "B.j": i % 4} for i in range(9)])
    storage.create_table("C", ["C.j"], [{"C.j": i} for i in range(3)])
    storage.create_table("D", ["D.d"], [{"D.d": i} for i in range(2)])
    storage["B"].create_index("B.k")
    storage["C"].create_index("C.j")
    written = jn(
        jn(oj("A", "D", eq("A.d", "D.d")), "B", eq("A.k", "B.k")), "C", eq("B.j", "C.j")
    )
    plans = {}
    for label, model_class in (("mask", RetrievalCostModel), ("ref", TreeRetrievalCostModel)):
        if label == "ref":
            monkeypatch.setattr(baselines, "DPOptimizer", ReferenceDPOptimizer)
        model = model_class(CardinalityEstimator(storage), storage)
        plans[label] = OuterjoinBarrierOptimizer(storage.registry, model).optimize(written)
    assert plans["mask"].expr != written  # the cluster was reordered
    assert_same_plan(plans["mask"], plans["ref"])
