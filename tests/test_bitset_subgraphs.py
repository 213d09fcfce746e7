"""The bitset enumerators reproduce a brute-force reference *exactly*.

The library enumerates connected subsets, ordered partitions and legal
cuts on machine-int masks (:mod:`repro.core.bitset`).  The reference
below is the plain frozenset code: subsets grown by BFS, partitions by
counting through every bitmask and testing connectivity, the cut rule
read off :meth:`QueryGraph.cut`.  It shares nothing with the bitset
index.  The checks are stronger than set equality: the sequences must
match in order (bit order equals sorted node order, so ascending
submasks match the bitmask loop), because that order is what fixes DP
tie-breaking, IT enumeration order and uniform IT sampling.  The last
three tests drive the library's own IT enumeration, sampler and DP with
the reference enumerators patched in and demand identical output.
"""

from __future__ import annotations

import random
from typing import FrozenSet, List

import pytest

import repro.core.enumeration as enumeration
import repro.optimizer.dp as dp
from repro.algebra import conjunction
from repro.core import (
    canonicalize,
    count_implementing_trees,
    implementing_trees,
    sample_implementing_tree,
)
from repro.core.enumeration import _ordered_partitions, root_operator
from repro.datagen import chain, random_databases, random_nice_graph, star
from repro.engine import Storage
from repro.optimizer import (
    CardinalityEstimator,
    CoutCostModel,
    DPOptimizer,
    combinable_pairs,
    connected_subsets,
)

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
    """Route IT enumeration and the DP through the reference enumerators."""
    monkeypatch.setattr(enumeration, "_ordered_partitions", reference_partitions)
    monkeypatch.setattr(enumeration, "root_operator", reference_cut_operator)
    monkeypatch.setattr(dp, "connected_subsets", reference_connected_subsets)
    monkeypatch.setattr(dp, "combinable_pairs", reference_combinable_pairs)
    return monkeypatch


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

    def test_dp_plan_identical(self, scenario, reference_enumeration):
        dbs = random_databases(scenario.schemas, 1, seed=3, max_rows=7, allow_empty=False)
        model = CoutCostModel(CardinalityEstimator(Storage.from_database(dbs[0])))
        reference = DPOptimizer(scenario.graph, model).optimize()
        reference_enumeration.undo()
        bitset = DPOptimizer(scenario.graph, model).optimize()
        assert repr(bitset.expr) == repr(reference.expr)
        assert bitset.cost == pytest.approx(reference.cost)
