"""Enumerating the implementing trees (ITs) of a query graph.

Section 1.3: "An algebraic expression (i.e., query) is called an
implementing tree of graph G if G = graph(Q)."  ITs correspond only to
connectivity-preserving parenthesizations: every operator's operand sets
induce connected subgraphs, and joins without graph edges (Cartesian
products) are excluded.

The enumeration works top-down over *cuts*.  For a connected node set
``V``, every IT's root operator determines an ordered partition
``(V1, V2)`` of ``V`` with both sides connected and at least one crossing
edge; conversely each such partition yields root operators:

* if every crossing edge is a join edge, the root is a regular join whose
  predicate is the conjunction of the crossing conjuncts (a multi-edge
  cut is the paper's "general cutset");
* if the cut consists of exactly one outerjoin edge ``u → v``, the root is
  an outerjoin preserving the side containing ``u`` (``LeftOuterJoin`` when
  ``u ∈ V1``, the symmetric ``RightOuterJoin`` when ``u ∈ V2``);
* a cut mixing join and outerjoin edges, or containing two or more
  outerjoin edges, supports no single operator — such partitions implement
  nothing.

Left/right operand orders are distinct trees (related by the reversal
basic transform), matching Section 3.2 where reversal is a transform
*between* ITs rather than an identification of them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.algebra.predicates import Predicate
from repro.core.expressions import Expression, Join, LeftOuterJoin, Rel, RightOuterJoin
from repro.core.graph import QueryGraph
from repro.tools import instrumentation
from repro.util.errors import GraphUndefinedError


def root_operator(
    graph: QueryGraph, side_a: FrozenSet[str], side_b: FrozenSet[str]
) -> Optional[Tuple[str, Predicate]]:
    """Which operator (if any) can sit on the cut (side_a | side_b)?

    Returns ``(kind, predicate)`` with kind in {"join", "loj", "roj"}, or
    ``None`` when the cut supports no operator.  The optimizers use the
    same cut-legality rule.
    """
    index = graph.bitset_index()
    return index.cut_operator(index.mask_of(side_a), index.mask_of(side_b))


def _ordered_partitions(
    graph: QueryGraph, nodes: FrozenSet[str]
) -> Iterator[Tuple[FrozenSet[str], FrozenSet[str]]]:
    """All ordered partitions of ``nodes`` into two connected halves.

    Pairs come in ascending submask order with bit order = sorted node
    order, so IT enumeration order, uniform sampling and downstream
    tie-breaking are deterministic.  ``tests/test_bitset_subgraphs.py``
    checks the sequence against a brute-force frozenset enumerator.
    """
    index = graph.bitset_index()
    for sub, complement in index.ordered_partitions(index.mask_of(nodes)):
        yield index.set_of(sub), index.set_of(complement)


def implementing_trees(graph: QueryGraph) -> Iterator[Expression]:
    """Yield every implementing tree of the graph.

    The number of ITs grows super-exponentially with the node count; use
    :func:`count_implementing_trees` when only the size is needed.
    """
    if not graph.nodes:
        raise GraphUndefinedError("empty graph has no implementing trees")
    if not graph.is_connected():
        raise GraphUndefinedError(
            "disconnected graphs have no implementing trees (Cartesian products "
            "are excluded from ITs)"
        )
    trees = _trees_for(graph, graph.nodes, cache={})
    instrumentation.bump("trees_enumerated", len(trees))
    from repro.observability.spans import active_span

    span = active_span()
    if span is not None:
        span.counters["trees_enumerated"] += len(trees)
    yield from trees


def _trees_for(
    graph: QueryGraph,
    nodes: FrozenSet[str],
    cache: Dict[FrozenSet[str], List[Expression]],
) -> List[Expression]:
    if nodes in cache:
        return cache[nodes]
    if len(nodes) == 1:
        result: List[Expression] = [Rel(next(iter(nodes)))]
        cache[nodes] = result
        return result
    result = []
    for side_a, side_b in _ordered_partitions(graph, nodes):
        op = root_operator(graph, side_a, side_b)
        if op is None:
            continue
        kind, predicate = op
        for left in _trees_for(graph, side_a, cache):
            for right in _trees_for(graph, side_b, cache):
                if kind == "join":
                    result.append(Join(left, right, predicate))
                elif kind == "loj":
                    result.append(LeftOuterJoin(left, right, predicate))
                else:
                    result.append(RightOuterJoin(left, right, predicate))
    cache[nodes] = result
    return result


def count_implementing_trees(graph: QueryGraph) -> int:
    """Count ITs without materializing them (memoized over node subsets)."""
    if not graph.nodes:
        return 0
    if not graph.is_connected():
        return 0
    return _tree_counter(graph)(graph.nodes)


def _tree_counter(graph: QueryGraph) -> Callable[[FrozenSet[str]], int]:
    """The IT count of a connected node set, memoized over node subsets."""
    counts: Dict[FrozenSet[str], int] = {}

    def count(nodes: FrozenSet[str]) -> int:
        if len(nodes) == 1:
            return 1
        if nodes in counts:
            return counts[nodes]
        total = 0
        for side_a, side_b in _ordered_partitions(graph, nodes):
            if root_operator(graph, side_a, side_b) is None:
                continue
            total += count(side_a) * count(side_b)
        counts[nodes] = total
        return total

    return count


def sample_implementing_tree(graph: QueryGraph, rng) -> Expression:
    """Draw one IT uniformly at random (uses the counting recursion).

    ``rng`` is a :class:`random.Random`.  Sampling is uniform over all ITs
    because each ordered partition's subtree-count product weights the
    choice.
    """
    if not graph.is_connected():
        raise GraphUndefinedError("cannot sample an IT of a disconnected graph")
    count = _tree_counter(graph)

    def sample(nodes: FrozenSet[str]) -> Expression:
        if len(nodes) == 1:
            return Rel(next(iter(nodes)))
        total = count(nodes)
        if total == 0:
            raise GraphUndefinedError(f"node set {sorted(nodes)} has no implementing trees")
        pick = rng.randrange(total)
        for side_a, side_b in _ordered_partitions(graph, nodes):
            op = root_operator(graph, side_a, side_b)
            if op is None:
                continue
            weight = count(side_a) * count(side_b)
            if pick >= weight:
                pick -= weight
                continue
            kind, predicate = op
            left = sample(side_a)
            right = sample(side_b)
            if kind == "join":
                return Join(left, right, predicate)
            if kind == "loj":
                return LeftOuterJoin(left, right, predicate)
            return RightOuterJoin(left, right, predicate)
        raise AssertionError("unreachable: weights summed to total")

    return sample(graph.nodes)


def is_implementing_tree(query: Expression, graph: QueryGraph, registry) -> bool:
    """Does ``graph(Q)`` equal the given graph?  (Definition, Section 1.3.)"""
    from repro.core.graph import graph_of  # local import avoids cycle

    try:
        return graph_of(query, registry) == graph
    except GraphUndefinedError:
        return False
