"""Connected-subgraph enumeration for the optimizer's dynamic program.

Standard csg/cmp machinery specialized to join/outerjoin graphs: a pair of
disjoint connected node sets is *combinable* exactly when the cut between
them supports a single operator — all crossing edges are join edges, or
the cut is one outerjoin edge (Section 3.1's cut observation; the same
rule drives IT enumeration).  On a nice graph this makes the DP search
space exactly the implementing-tree space, which is the paper's Section
6.1 point: the optimizer needs *no extra analysis* to stay correct.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Tuple

from repro.core.graph import QueryGraph


def connected_subsets(graph: QueryGraph) -> List[FrozenSet[str]]:
    """All connected node subsets, ordered by size (smallest first).

    Enumerated on machine-int masks (memoized on the graph's
    :class:`~repro.core.bitset.BitsetIndex`) and converted to frozensets
    only here, at the API boundary; exponential in the worst case.
    """
    index = graph.bitset_index()
    subsets = [index.set_of(mask) for mask in index.connected_subset_masks()]
    return sorted(subsets, key=lambda s: (len(s), sorted(s)))


def combinable_pairs(
    graph: QueryGraph, nodes: FrozenSet[str]
) -> Iterator[Tuple[FrozenSet[str], FrozenSet[str], str, object]]:
    """Ordered pairs of connected halves of ``nodes`` with their operator.

    Yields ``(side_a, side_b, kind, predicate)`` where ``kind`` is
    ``"join"``/``"loj"``/``"roj"`` exactly as in IT enumeration
    (:func:`~repro.core.enumeration.root_operator`).
    """
    index = graph.bitset_index()
    for sub, complement in index.ordered_partitions(index.mask_of(nodes)):
        op = index.cut_operator(sub, complement)
        if op is None:
            continue
        yield index.set_of(sub), index.set_of(complement), op[0], op[1]


def count_dp_entries(graph: QueryGraph) -> Dict[int, int]:
    """How many connected subsets exist per size (DP table shape)."""
    out: Dict[int, int] = {}
    for subset in connected_subsets(graph):
        out[len(subset)] = out.get(len(subset), 0) + 1
    return out
