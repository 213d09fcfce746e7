"""GYO reduction: α-acyclicity detection and join-tree certificates.

A query hypergraph has one hyperedge per relation; its vertices are the
*join-attribute equivalence classes* induced by the equality conjuncts of
the query's edge predicates (``R.a = S.a`` puts ``R.a`` and ``S.a`` in
one class).  The Graham/Yu–Özsoyoğlu (GYO) reduction repeatedly removes
an *ear* — a hyperedge whose vertices shared with the rest are covered by
a single *witness* hyperedge — and succeeds on exactly the α-acyclic
hypergraphs.  The removal order is a certificate: replaying it validates
acyclicity in linear time, and the (ear, witness) pairs are the edges of
a join tree.

On top of the generic reducer, :func:`join_tree_of` bridges from a
:class:`~repro.core.graph.QueryGraph`: it builds the class hypergraph
from the hash-decomposable equality keys of every edge predicate, decides
acyclicity with GYO, materializes the tree as a maximum-weight spanning
tree of the intersection graph (Maier's characterization, breaking ties
toward query-graph edges so every tree edge carries a real predicate),
classifies leftover graph edges as *chords*, and roots the tree.
Outerjoin graphs get a tree only under the paper's own
safety certificate: Theorem 1 must hold (nice + strong), the tree must
use every graph edge (no chords), and the root must lie in the join core
so each outerjoin edge is oriented preserved-parent → null-supplied-child
— exactly the orientation under which the full reducer's semijoins are
legal (a preserved side is never reduced by its null-supplied child).
Anything else returns ``None``.  The tree's one consumer is the
semijoin-reducer operator (:mod:`repro.engine.yannakakis`), which the
optimizer does not serve: it is kept until the benchmark ladder drops
its import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.algebra.predicates import Predicate, decompose_join_predicate
from repro.algebra.schema import SchemaRegistry
from repro.core.graph import QueryGraph
from repro.core.reorderability import theorem1_applies

#: A hypergraph: edge name -> frozenset of vertex identifiers.
Hypergraph = Mapping[str, FrozenSet[str]]


@dataclass(frozen=True)
class EarStep:
    """One GYO removal: ``edge`` was an ear witnessed by ``witness``.

    ``witness is None`` means the edge shared no vertex with any other
    remaining edge (the last edge of a connected component).
    """

    edge: str
    witness: Optional[str]


@dataclass(frozen=True)
class GYOCertificate:
    """A complete ear ordering — a replayable proof of α-acyclicity."""

    steps: Tuple[EarStep, ...]

    def tree_edges(self) -> Tuple[Tuple[str, str], ...]:
        """The ``(child, parent)`` pairs of the induced join forest."""
        return tuple(
            (s.edge, s.witness) for s in self.steps if s.witness is not None
        )

    def validates(self, hyperedges: Hypergraph) -> bool:
        """Replay the ear ordering against a hypergraph.

        Checks every step was a legal ear removal at its point in the
        sequence and that the reduction consumed the whole hypergraph.
        This is the certificate's *definition of validity*; the property
        tests replay certificates against a brute-force oracle.
        """
        remaining: Dict[str, FrozenSet[str]] = dict(hyperedges)
        for step in self.steps:
            if step.edge not in remaining:
                return False
            verts = remaining.pop(step.edge)
            shared = verts & frozenset().union(*remaining.values()) if remaining else frozenset()
            if step.witness is None:
                if shared:
                    return False
            else:
                if step.witness not in remaining:
                    return False
                if not shared <= remaining[step.witness]:
                    return False
        return not remaining


def gyo_reduce(hyperedges: Hypergraph) -> Optional[GYOCertificate]:
    """Run the GYO reduction; return an ear-ordering certificate or ``None``.

    ``None`` means the hypergraph is *not* α-acyclic (the reduction got
    stuck with edges remaining).  GYO is confluent — removing any ear
    never destroys reducibility — so the greedy sorted-order scan below
    is a complete (and deterministic) decision procedure.
    """
    remaining: Dict[str, FrozenSet[str]] = dict(hyperedges)
    steps: List[EarStep] = []
    while remaining:
        progressed = False
        for name in sorted(remaining):
            verts = remaining[name]
            others = [e for e in remaining if e != name]
            shared = verts & frozenset().union(*(remaining[e] for e in others)) if others else frozenset()
            if not shared:
                steps.append(EarStep(name, None))
                del remaining[name]
                progressed = True
                break
            witnesses = sorted(w for w in others if shared <= remaining[w])
            if witnesses:
                steps.append(EarStep(name, witnesses[0]))
                del remaining[name]
                progressed = True
                break
        if not progressed:
            return None
    return GYOCertificate(tuple(steps))


# ---------------------------------------------------------------------------
# QueryGraph bridge: class hypergraph, join tree, chords, rooting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinTreeEdge:
    """A rooted join-tree edge; ``kind`` is ``"join"`` or ``"oj"``.

    For ``kind == "oj"`` the parent is always the preserved endpoint and
    the child the null-supplied one (enforced by :func:`join_tree_of`).
    """

    parent: str
    child: str
    predicate: Predicate
    kind: str


@dataclass(frozen=True)
class JoinTree:
    """A rooted join tree over a query graph's relations.

    ``order`` is a preorder traversal starting at ``root``; ``edges`` is
    aligned with ``order[1:]`` (``edges[i].child == order[i + 1]`` and
    the parent appears earlier in ``order``).  ``chords`` are graph edges
    not used by the tree — correct to defer to the join phase for pure
    join graphs, and required to be empty for outerjoin graphs.
    """

    root: str
    order: Tuple[str, ...]
    edges: Tuple[JoinTreeEdge, ...]
    chords: Tuple[Tuple[str, str, Predicate], ...]
    certificate: GYOCertificate

    def parent_edge(self, node: str) -> Optional[JoinTreeEdge]:
        """The edge connecting ``node`` to its parent (``None`` for the root)."""
        for edge in self.edges:
            if edge.child == node:
                return edge
        return None


class _UnionFind:
    """Tiny union-find over attribute names (path-halving, union by size)."""

    def __init__(self) -> None:
        self.parent: Dict[str, str] = {}
        self.size: Dict[str, int] = {}

    def find(self, x: str) -> str:
        parent = self.parent
        if x not in parent:
            parent[x] = x
            self.size[x] = 1
            return x
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def class_hypergraph(
    graph: QueryGraph, registry: SchemaRegistry
) -> Optional[Hypergraph]:
    """The attribute-equivalence-class hypergraph of a query graph.

    Every edge predicate must decompose into at least one cross-scheme
    equality key pair (a hash join's key); otherwise there is
    no semijoin key and the fast path does not apply (``None``).
    """
    uf = _UnionFind()
    edge_keys: List[Tuple[str, Tuple[str, ...]]] = []
    all_edges = [
        (tuple(sorted(pair)), p) for pair, p in graph.join_edges.items()
    ] + [((u, v), p) for (u, v), p in graph.oj_edges.items()]
    for (u, v), predicate in all_edges:
        left_keys, right_keys, _residual = decompose_join_predicate(
            predicate, registry[u].attributes, registry[v].attributes
        )
        if not left_keys:
            return None
        for a, b in zip(left_keys, right_keys):
            uf.union(a, b)
        edge_keys.append((u, left_keys))
        edge_keys.append((v, right_keys))
    verts: Dict[str, set] = {node: set() for node in graph.nodes}
    for node, keys in edge_keys:
        for attr in keys:
            verts[node].add(uf.find(attr))
    return {node: frozenset(vs) for node, vs in verts.items()}


def _graph_edge(
    graph: QueryGraph, u: str, v: str
) -> Optional[Tuple[str, str, Predicate, str]]:
    """Look up the graph edge between two nodes as (parent, child, p, kind).

    For join edges the (u, v) order passed in is kept; for outerjoin
    edges the arrow's own orientation (preserved, null-supplied) is
    returned regardless of argument order.
    """
    pair = frozenset({u, v})
    if pair in graph.join_edges:
        return (u, v, graph.join_edges[pair], "join")
    if (u, v) in graph.oj_edges:
        return (u, v, graph.oj_edges[(u, v)], "oj")
    if (v, u) in graph.oj_edges:
        return (v, u, graph.oj_edges[(v, u)], "oj")
    return None


def join_tree_of(
    graph: QueryGraph, registry: SchemaRegistry
) -> Optional[JoinTree]:
    """Build a rooted join tree for the graph, or ``None`` when none is safe.

    The acyclicity *decision* is :func:`gyo_reduce` on the class
    hypergraph; the tree itself comes from Maier's characterization — a
    maximum-weight spanning tree of the intersection graph (edge weight
    = shared vertex-class count) of an α-acyclic hypergraph is a join
    tree.  Kruskal breaks weight ties in favor of query-graph edges so
    every tree edge carries a real predicate (a star's hub-leaf edges
    beat the leaf-leaf pairs that share the same key class).

    Returns ``None`` when: the graph is empty or disconnected; some edge
    predicate has no equality key; the class hypergraph is cyclic; the
    spanning tree was forced through a non-graph pair (no predicate to
    evaluate); or — for outerjoin graphs — Theorem 1 does not certify
    free reorderability, a chord remains, or some outerjoin edge cannot
    be oriented preserved-parent from the chosen root.
    """
    if not graph.nodes or not graph.is_connected():
        return None
    hyper = class_hypergraph(graph, registry)
    if hyper is None:
        return None
    certificate = gyo_reduce(hyper)
    if certificate is None:
        return None

    names = sorted(graph.nodes)
    candidates: List[Tuple[int, int, str, str]] = []
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            weight = len(hyper[u] & hyper[v])
            if weight == 0:
                continue
            graph_tie_break = 0 if v in graph.neighbors(u) else 1
            candidates.append((-weight, graph_tie_break, u, v))
    candidates.sort()
    uf = _UnionFind()
    chosen_pairs: List[Tuple[str, str]] = []
    for _negw, _pref, u, v in candidates:
        if uf.find(u) != uf.find(v):
            uf.union(u, v)
            chosen_pairs.append((u, v))
    if len(chosen_pairs) != len(names) - 1:
        return None
    for u, v in chosen_pairs:
        if v not in graph.neighbors(u):
            return None

    undirected: Dict[str, set] = {node: set() for node in graph.nodes}
    for u, v in chosen_pairs:
        undirected[u].add(v)
        undirected[v].add(u)

    # Running-intersection sanity check: every vertex class must induce a
    # connected subtree.  Maier guarantees this for acyclic hypergraphs;
    # the recheck costs O(classes * nodes) and turns any surprise into a
    # clean DP fallback instead of a wrong plan.
    for cls in frozenset().union(*hyper.values()) if hyper else ():
        members = {n for n in names if cls in hyper[n]}
        start = next(iter(members))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nb in undirected[node]:
                if nb in members and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != members:
            return None

    tree_pairs = {frozenset({u, v}) for u, v in chosen_pairs}
    chords = tuple(
        (min(pair), max(pair), graph.join_edges[pair])
        for pair in sorted(graph.join_edges, key=sorted)
        if pair not in tree_pairs
    )

    if graph.oj_edges:
        if chords:
            return None
        for (u, v) in graph.oj_edges:
            if frozenset({u, v}) not in tree_pairs:
                return None
        if not theorem1_applies(graph, registry).freely_reorderable:
            return None
        core = sorted(n for n in graph.nodes if not graph.oj_in_edges(n))
        if not core:
            return None
        root = core[0]
    else:
        root = min(graph.nodes)

    order: List[str] = []
    edges: List[JoinTreeEdge] = []
    stack = [(root, None)]
    seen = set()
    while stack:
        node, via = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        order.append(node)
        if via is not None:
            edges.append(via)
        for child in sorted(undirected[node], reverse=True):
            if child in seen:
                continue
            looked = _graph_edge(graph, node, child)
            if looked is None:
                return None
            a, b, predicate, kind = looked
            if kind == "oj" and a != node:
                # The arrow points at the parent: the null-supplied side
                # would sit above its preserved side — not a legal rooting.
                return None
            stack.append((child, JoinTreeEdge(node, child, predicate, kind)))
    if len(order) != len(graph.nodes):
        return None
    return JoinTree(
        root=root,
        order=tuple(order),
        edges=tuple(edges),
        chords=chords,
        certificate=certificate,
    )
