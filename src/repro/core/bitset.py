"""Integer-bitset encoding of query-graph node sets.

Connected-subset and cut enumeration (IT enumeration, the optimizer DP)
are exponential walks over node subsets.  Rather than a
``frozenset[str]`` per subset and a BFS per connectivity check, this
module maps each node to one bit of a machine integer so the walks run
on ints:

* subsets are masks; union/intersection/complement are single ops;
* neighborhoods are precomputed per-node masks, OR-merged and memoized
  per subset mask;
* connectivity is a bit-parallel flood fill, memoized per mask;
* cut legality (all-join cut vs. exactly one outerjoin edge — the
  Section 3.1 rule shared by IT enumeration and the DP) is an edge scan
  over precomputed endpoint masks.

Node-to-bit assignment follows the sorted node order, so ascending local
submasks of any subset correspond to ascending global masks — the
enumerators therefore yield partitions in *exactly* the order of a
brute-force frozenset loop over sorted nodes, which fixes IT enumeration
order (``tests/test_bitset_subgraphs.py`` keeps that loop as the
reference).  The DP no longer depends on walk order: it breaks cost ties
toward the smaller left mask, the order in which that loop meets them.

Frozensets only appear at the API boundary (:meth:`BitsetIndex.set_of`),
which is what keeps the public signatures unchanged.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.algebra.predicates import Predicate, conjunction

#: A cut verdict: ("join" | "loj" | "roj", predicate), or None (no operator).
CutOperator = Optional[Tuple[str, Predicate]]


class BitsetIndex:
    """Node <-> bit table plus memoized subset machinery for one graph.

    Built lazily by :meth:`repro.core.graph.QueryGraph.bitset_index` and
    cached on the (immutable) graph, so every optimizer/enumerator pass
    over the same graph shares the set, connectivity and neighborhood
    memo tables.  Cut verdicts are not memoized: a cold DP asks each
    split once.
    """

    __slots__ = (
        "nodes",
        "bit",
        "node_masks",
        "all_mask",
        "neighbor_masks",
        "_join_edges",
        "_oj_edges",
        "_set_memo",
        "_conn_memo",
        "_nbhood_memo",
        "_subset_masks",
    )

    def __init__(self, graph) -> None:
        self.nodes: Tuple[str, ...] = tuple(sorted(graph.nodes))
        self.bit: Dict[str, int] = {name: i for i, name in enumerate(self.nodes)}
        self.node_masks: Dict[str, int] = {name: 1 << i for name, i in self.bit.items()}
        self.all_mask: int = (1 << len(self.nodes)) - 1
        neighbor = [0] * len(self.nodes)
        self._join_edges: List[Tuple[int, int, Predicate]] = []
        for pair, predicate in graph.join_edges.items():
            u, v = sorted(pair)
            mu, mv = self.node_masks[u], self.node_masks[v]
            neighbor[self.bit[u]] |= mv
            neighbor[self.bit[v]] |= mu
            self._join_edges.append((mu, mv, predicate))
        #: Outerjoin edges as (preserved_mask, null_supplied_mask, predicate).
        self._oj_edges: List[Tuple[int, int, Predicate]] = []
        for (u, v), predicate in graph.oj_edges.items():
            mu, mv = self.node_masks[u], self.node_masks[v]
            neighbor[self.bit[u]] |= mv
            neighbor[self.bit[v]] |= mu
            self._oj_edges.append((mu, mv, predicate))
        self.neighbor_masks: Tuple[int, ...] = tuple(neighbor)
        self._set_memo: Dict[int, FrozenSet[str]] = {}
        self._conn_memo: Dict[int, bool] = {}
        self._nbhood_memo: Dict[int, int] = {}
        self._subset_masks: Optional[List[int]] = None

    # -- mask <-> set conversion ------------------------------------------------

    def mask_of(self, nodes: Iterable[str]) -> int:
        """Encode a node collection as a bit mask."""
        mask = 0
        node_masks = self.node_masks
        for name in nodes:
            mask |= node_masks[name]
        return mask

    def set_of(self, mask: int) -> FrozenSet[str]:
        """Decode a mask to a frozenset (memoized; masks recur heavily)."""
        cached = self._set_memo.get(mask)
        if cached is None:
            names = self.nodes
            cached = frozenset(names[i] for i in self._bits(mask))
            self._set_memo[mask] = cached
        return cached

    @staticmethod
    def _bits(mask: int) -> Iterator[int]:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    # -- adjacency and connectivity ----------------------------------------------

    def neighborhood(self, mask: int) -> int:
        """Union of the neighbor masks of every node in ``mask``."""
        cached = self._nbhood_memo.get(mask)
        if cached is None:
            cached = 0
            for i in self._bits(mask):
                cached |= self.neighbor_masks[i]
            self._nbhood_memo[mask] = cached
        return cached

    def is_connected(self, mask: int) -> bool:
        """Is the induced subgraph on ``mask`` connected?  (Empty: False.)"""
        cached = self._conn_memo.get(mask)
        if cached is not None:
            return cached
        if mask == 0:
            result = False
        else:
            reached = mask & -mask  # start the flood fill at the lowest bit
            while True:
                grown = (reached | self.neighborhood(reached)) & mask
                if grown == reached:
                    break
                reached = grown
            result = reached == mask
        self._conn_memo[mask] = result
        return result

    def connected_subset_masks(self) -> List[int]:
        """Every connected subset as a mask (BFS expansion, cached)."""
        if self._subset_masks is None:
            found: set[int] = set(self.node_masks.values())
            frontier = list(found)
            while frontier:
                grown: List[int] = []
                for mask in frontier:
                    candidates = self.neighborhood(mask) & ~mask
                    for i in self._bits(candidates):
                        bigger = mask | (1 << i)
                        if bigger not in found:
                            found.add(bigger)
                            grown.append(bigger)
                frontier = grown
            for mask in found:
                self._conn_memo[mask] = True
            self._subset_masks = sorted(found)
        return self._subset_masks

    # -- partitions and cuts --------------------------------------------------------

    def ordered_partitions(self, mask: int) -> Iterator[Tuple[int, int]]:
        """Ordered partitions of ``mask`` into two connected halves.

        Submasks are generated in ascending numeric order, which — because
        bit order equals sorted node order — matches the naive
        enumeration's ordering exactly.
        """
        sub = (-mask) & mask  # lowest nonzero submask
        while sub != mask:
            complement = mask ^ sub
            if self.is_connected(sub) and self.is_connected(complement):
                yield sub, complement
            sub = (sub - mask) & mask

    def cut_operator(self, side_a: int, side_b: int) -> CutOperator:
        """Which operator (if any) the cut between two masks supports.

        The Section 3.1 rule: all crossing edges join edges -> a regular
        join labeled with their conjunction; exactly one crossing
        outerjoin edge -> an outerjoin preserving the arrow's tail side;
        anything else supports no operator.
        """
        join_cut: List[Predicate] = []
        for mu, mv, predicate in self._join_edges:
            if (mu & side_a and mv & side_b) or (mu & side_b and mv & side_a):
                join_cut.append(predicate)
        oj_cut: List[Tuple[int, Predicate]] = []
        for mu, mv, predicate in self._oj_edges:
            if (mu & side_a and mv & side_b) or (mu & side_b and mv & side_a):
                oj_cut.append((mu, predicate))
        if (oj_cut and join_cut) or len(oj_cut) > 1:
            return None
        if oj_cut:
            preserved_mask, predicate = oj_cut[0]
            return ("loj" if preserved_mask & side_a else "roj", predicate)
        if join_cut:
            return ("join", conjunction(join_cut))
        return None
