"""Query graphs and the ``graph(Q)`` construction of Section 1.2.

A query graph has one node per relation mentioned in the query.  For each
*join* operator, each predicate conjunct adds one undirected edge between
the two ground relations it references; parallel edges between the same
pair are collapsed into a single edge labeled with the conjunction
("we will treat them as if they were a single conjunct").  Each *outerjoin*
operator adds one directed edge, pointing at the null-supplied relation,
labeled with the entire outerjoin predicate.

The graph is *undefined* — :class:`~repro.util.errors.GraphUndefinedError`
— when a join conjunct references attributes of more or fewer than two
ground relations, or when an outerjoin predicate does not reference exactly
two ground relations.

Unlike an expression tree, the graph "does not directly possess an
evaluation rule" (Section 1.3); evaluation always goes through one of its
implementing trees (:mod:`repro.core.enumeration`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.algebra.predicates import Predicate, conjunction
from repro.algebra.schema import SchemaRegistry
from repro.core.bitset import BitsetIndex
from repro.core.expressions import (
    Expression,
    Join,
    LeftOuterJoin,
    Rel,
    RightOuterJoin,
)
from repro.util.errors import GraphUndefinedError

#: An undirected edge endpoint pair.
NodePair = FrozenSet[str]
#: A directed outerjoin edge: (preserved, null_supplied).
Arrow = Tuple[str, str]


class QueryGraph:
    """An immutable join/outerjoin query graph.

    ``join_edges`` maps the unordered node pair to the (collapsed)
    predicate; ``oj_edges`` maps the directed pair
    ``(preserved, null_supplied)`` to the outerjoin predicate.
    """

    __slots__ = ("_nodes", "_join_edges", "_oj_edges", "_bits")

    def __init__(
        self,
        nodes: Iterable[str],
        join_edges: Mapping[NodePair, Predicate] | None = None,
        oj_edges: Mapping[Arrow, Predicate] | None = None,
    ):
        self._nodes = frozenset(nodes)
        self._join_edges: Dict[NodePair, Predicate] = dict(join_edges or {})
        self._oj_edges: Dict[Arrow, Predicate] = dict(oj_edges or {})
        self._bits: Optional["BitsetIndex"] = None
        for pair in self._join_edges:
            if len(pair) != 2 or not pair <= self._nodes:
                raise GraphUndefinedError(f"bad join edge {sorted(pair)}")
        for (u, v) in self._oj_edges:
            if u == v or u not in self._nodes or v not in self._nodes:
                raise GraphUndefinedError(f"bad outerjoin edge {(u, v)}")
            if frozenset({u, v}) in self._join_edges:
                raise GraphUndefinedError(
                    f"parallel join and outerjoin edges between {u!r} and {v!r}"
                )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        join: Iterable[Tuple[str, str, Predicate]] = (),
        oj: Iterable[Tuple[str, str, Predicate]] = (),
        isolated: Iterable[str] = (),
    ) -> "QueryGraph":
        """Build a graph from edge triples; OJ triples are (preserved, null_supplied, p)."""
        nodes: set[str] = set(isolated)
        join_edges: Dict[NodePair, List[Predicate]] = {}
        for u, v, p in join:
            nodes.update((u, v))
            join_edges.setdefault(frozenset({u, v}), []).append(p)
        oj_edges: Dict[Arrow, Predicate] = {}
        for u, v, p in oj:
            nodes.update((u, v))
            arrow = (u, v)
            if arrow in oj_edges:
                raise GraphUndefinedError(f"duplicate outerjoin edge {arrow}")
            oj_edges[arrow] = p
        collapsed = {pair: conjunction(preds) for pair, preds in join_edges.items()}
        return cls(nodes, collapsed, oj_edges)

    # -- basic accessors -------------------------------------------------------

    @property
    def nodes(self) -> FrozenSet[str]:
        return self._nodes

    @property
    def join_edges(self) -> Mapping[NodePair, Predicate]:
        return self._join_edges

    @property
    def oj_edges(self) -> Mapping[Arrow, Predicate]:
        return self._oj_edges

    def edge_count(self) -> int:
        return len(self._join_edges) + len(self._oj_edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryGraph):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._join_edges == other._join_edges
            and self._oj_edges == other._oj_edges
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._nodes,
                frozenset(self._join_edges.items()),
                frozenset(self._oj_edges.items()),
            )
        )

    def __repr__(self) -> str:
        joins = ", ".join("-".join(sorted(p)) for p in self._join_edges)
        ojs = ", ".join(f"{u}→{v}" for (u, v) in self._oj_edges)
        parts = [p for p in (joins, ojs) if p]
        return f"QueryGraph(nodes={sorted(self._nodes)}; {'; '.join(parts)})"

    def to_dot(self, name: str = "query_graph") -> str:
        """Graphviz DOT rendering: join edges undirected (drawn plain),
        outerjoin edges as arrows toward the null-supplied relation."""
        lines = [f"graph {name} {{"]
        for node in sorted(self._nodes):
            lines.append(f'  "{node}";')
        for pair, p in sorted(self._join_edges.items(), key=lambda kv: sorted(kv[0])):
            u, v = sorted(pair)
            lines.append(f'  "{u}" -- "{v}" [label="{p!r}"];')
        for (u, v), p in sorted(self._oj_edges.items()):
            lines.append(f'  "{u}" -- "{v}" [label="{p!r}", dir=forward, arrowhead=normal];')
        lines.append("}")
        return "\n".join(lines)

    def describe(self) -> str:
        """Multi-line human-readable listing of nodes and labeled edges."""
        lines = [f"nodes: {', '.join(sorted(self._nodes))}"]
        for pair, p in sorted(self._join_edges.items(), key=lambda kv: sorted(kv[0])):
            u, v = sorted(pair)
            lines.append(f"  {u} - {v}   [{p!r}]")
        for (u, v), p in sorted(self._oj_edges.items()):
            lines.append(f"  {u} → {v}   [{p!r}]")
        return "\n".join(lines)

    # -- bitset acceleration ------------------------------------------------------

    def bitset_index(self) -> BitsetIndex:
        """The node<->bit table for this graph (built once, cached).

        All subset-exponential machinery (connected-subset enumeration,
        IT/DP partition enumeration, cut legality) runs on the integer
        masks of this index; frozensets only appear at API boundaries.
        """
        if self._bits is None:
            self._bits = BitsetIndex(self)
        return self._bits

    # -- adjacency ---------------------------------------------------------------

    def neighbors(self, node: str) -> FrozenSet[str]:
        """All neighbors, ignoring edge kind and direction."""
        out: set[str] = set()
        for pair in self._join_edges:
            if node in pair:
                out |= pair - {node}
        for (u, v) in self._oj_edges:
            if u == node:
                out.add(v)
            elif v == node:
                out.add(u)
        return frozenset(out)

    def join_neighbors(self, node: str) -> FrozenSet[str]:
        out: set[str] = set()
        for pair in self._join_edges:
            if node in pair:
                out |= pair - {node}
        return frozenset(out)

    def oj_in_edges(self, node: str) -> List[Arrow]:
        """Outerjoin edges directed *into* ``node`` (node is null-supplied)."""
        return [(u, v) for (u, v) in self._oj_edges if v == node]

    def oj_out_edges(self, node: str) -> List[Arrow]:
        return [(u, v) for (u, v) in self._oj_edges if u == node]

    # -- connectivity ---------------------------------------------------------------

    def is_connected(self, within: Optional[FrozenSet[str]] = None) -> bool:
        """Connectivity of the whole graph or of an induced node subset."""
        universe = self._nodes if within is None else frozenset(within)
        if not universe:
            return False
        start = next(iter(universe))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nb in self.neighbors(node):
                if nb in universe and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        return seen == universe

    def induced(self, nodes: Iterable[str]) -> "QueryGraph":
        """The induced subgraph on a node subset."""
        keep = frozenset(nodes)
        if not keep <= self._nodes:
            raise GraphUndefinedError(f"nodes {sorted(frozenset(nodes) - self._nodes)} not in graph")
        join_edges = {pair: p for pair, p in self._join_edges.items() if pair <= keep}
        oj_edges = {(u, v): p for (u, v), p in self._oj_edges.items() if u in keep and v in keep}
        return QueryGraph(keep, join_edges, oj_edges)

    def connected_components(self) -> List[FrozenSet[str]]:
        remaining = set(self._nodes)
        comps: List[FrozenSet[str]] = []
        while remaining:
            start = next(iter(remaining))
            seen = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for nb in self.neighbors(node):
                    if nb in remaining and nb not in seen:
                        seen.add(nb)
                        frontier.append(nb)
            comps.append(frozenset(seen))
            remaining -= seen
        return comps

    # -- cuts -----------------------------------------------------------------------

    def cut(
        self, side_a: FrozenSet[str], side_b: FrozenSet[str]
    ) -> Tuple[List[Tuple[NodePair, Predicate]], List[Tuple[Arrow, Predicate]]]:
        """Edges crossing between two disjoint node sets.

        Returns ``(crossing_join_edges, crossing_oj_edges)``.  Section 3.1:
        the edges of the conjuncts of an operator determine a cut in G.
        """
        joins = [
            (pair, p)
            for pair, p in self._join_edges.items()
            if len(pair & side_a) == 1 and len(pair & side_b) == 1
        ]
        ojs = [
            ((u, v), p)
            for (u, v), p in self._oj_edges.items()
            if (u in side_a and v in side_b) or (u in side_b and v in side_a)
        ]
        return joins, ojs


# ---------------------------------------------------------------------------
# graph(Q)
# ---------------------------------------------------------------------------


def graph_of(query: Expression, registry: SchemaRegistry) -> QueryGraph:
    """Compute ``graph(Q)`` per Section 1.2, or raise ``GraphUndefinedError``.

    Only Join/Outerjoin queries have graphs; Restrict/Project must be
    simplified away first (Section 4 treats them separately).
    """
    join_lists: Dict[NodePair, List[Predicate]] = {}
    oj_edges: Dict[Arrow, Predicate] = {}

    def visit(node: Expression) -> None:
        if isinstance(node, Rel):
            if node.name not in registry:
                raise GraphUndefinedError(f"relation {node.name!r} not registered")
            return
        if isinstance(node, Join):
            conjuncts = node.predicate.conjuncts()
            if not conjuncts:
                raise GraphUndefinedError(
                    "join without a predicate (Cartesian product) has no graph edge"
                )
            for conjunct in conjuncts:
                endpoints = _conjunct_endpoints(conjunct, node, registry, kind="join conjunct")
                join_lists.setdefault(frozenset(endpoints), []).append(conjunct)
        elif isinstance(node, (LeftOuterJoin, RightOuterJoin)):
            endpoints = _conjunct_endpoints(node.predicate, node, registry, kind="outerjoin predicate")
            preserved_side = node.preserved().relations()
            preserved_rel = endpoints[0] if endpoints[0] in preserved_side else endpoints[1]
            null_rel = endpoints[1] if preserved_rel == endpoints[0] else endpoints[0]
            arrow = (preserved_rel, null_rel)
            if arrow in oj_edges:
                raise GraphUndefinedError(f"duplicate outerjoin edge {arrow}")
            oj_edges[arrow] = node.predicate
        else:
            raise GraphUndefinedError(
                f"graph(Q) is defined only for Join/Outerjoin queries; found "
                f"{type(node).__name__}"
            )
        for child in node.children():
            visit(child)

    visit(query)
    nodes = query.relations()
    join_edges = {pair: conjunction(preds) for pair, preds in join_lists.items()}
    return QueryGraph(nodes, join_edges, oj_edges)


def _conjunct_endpoints(
    predicate: Predicate, node, registry: SchemaRegistry, kind: str
) -> Tuple[str, str]:
    """The two ground relations a conjunct references, validated across sides."""
    owners = sorted(registry.owners(predicate.attributes()))
    if len(owners) != 2:
        raise GraphUndefinedError(
            f"{kind} {predicate!r} references {len(owners)} ground relations "
            f"({owners}); the graph requires exactly two"
        )
    left_rels = node.left.relations()
    right_rels = node.right.relations()
    a, b = owners
    in_left = (a in left_rels, b in left_rels)
    in_right = (a in right_rels, b in right_rels)
    if not ((in_left[0] and in_right[1]) or (in_left[1] and in_right[0])):
        raise GraphUndefinedError(
            f"{kind} {predicate!r} must reference one relation from each operand"
        )
    return a, b
