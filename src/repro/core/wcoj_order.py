"""Variable-order selection for worst-case optimal joins.

Leapfrog Triejoin (Veldhuizen 2012) evaluates a conjunctive join query
variable-at-a-time: pick a *global order* of the join-attribute
equivalence classes, index every relation as a sorted trie whose key
levels follow that order, and intersect the tries level by level.  This
module does the *planning* half of that story, staying in the core layer
(no engine imports):

* :func:`wcoj_spec_of` decides eligibility — a connected, pure-join
  query graph whose every edge carries at least one hash-decomposable
  equality conjunct and whose attribute-class hypergraph is genuinely
  *cyclic* (GYO gets stuck).  Acyclic graphs return ``None``: the
  binary-tree DP already owns them, and the
  paper's outerjoin theory (Theorem 1) never certifies reordering an
  outerjoin into the middle of a cyclic core, so graphs with outerjoin
  edges return ``None`` too.
* The chosen :class:`WcojSpec` fixes the global variable order (classes
  sorted by descending relation degree — intersect the most-shared
  variables first — with the class's minimal attribute name as a
  deterministic tie-break and identity), each relation's trie key
  levels under that order, and the residual non-equality conjuncts that
  must run as post-filters over assembled rows.
* :class:`Leapfrog` marks a join-only subtree of an implementing tree
  to run as one Leapfrog Triejoin: an operator choice inside the tree,
  so the plan cache replays it with the tree (the spec is a frozen
  value, so the node hashes and compares like any tree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.algebra.operators import PUBLIC_OPS, OperatorTable
from repro.algebra.predicates import Predicate, decompose_join_predicate
from repro.algebra.relation import Database, Relation
from repro.algebra.schema import SchemaRegistry
from repro.core.expressions import Expression, UnaryOp
from repro.core.graph import QueryGraph
from repro.core.gyo import _UnionFind, gyo_reduce


@dataclass(frozen=True)
class WcojSpec:
    """Everything the Leapfrog Triejoin operator needs, precomputed.

    ``variables`` is the global attribute-class order (each class named
    by its lexicographically smallest member attribute).  ``order`` is
    the relation order (one physical input per entry).  ``keys`` maps
    each relation to its trie key levels — ``(variable, attributes)``
    pairs in global variable order, where ``attributes`` are *this
    relation's* attributes in that class (more than one when the query
    equates two attributes of the same relation transitively; trie rows
    must then agree on all of them).  ``residuals`` are the non-equality
    conjuncts of the edge predicates, applied to assembled rows.
    """

    variables: Tuple[str, ...]
    order: Tuple[str, ...]
    keys: Tuple[Tuple[str, Tuple[Tuple[str, Tuple[str, ...]], ...]], ...]
    residuals: Tuple[Predicate, ...]

    def keys_for(self, relation: str) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        for name, levels in self.keys:
            if name == relation:
                return levels
        raise KeyError(relation)

    def hyperedges(self) -> Dict[str, FrozenSet[str]]:
        """Relation -> set of variables it constrains (for the AGM bound)."""
        return {
            name: frozenset(var for var, _attrs in levels)
            for name, levels in self.keys
        }


class Leapfrog(UnaryOp):
    """Run ``child``, a join-only subtree, as one Leapfrog Triejoin.

    ``child``'s leaves are base relations, each maybe under its pushed
    filter; ``spec`` is the trie layout and variable order of its graph.
    The node computes ``child``'s natural join, so evaluation, the SQL
    transpiler, cost walks and serialization read it as ``child``; the
    physical planner plans it as the Leapfrog operator.
    """

    __slots__ = ("spec",)
    visit_method = "visit_leapfrog"

    def __init__(self, child: Expression, spec: WcojSpec):
        super().__init__(child)
        self.spec = spec

    def eval(self, db: Database, ops: OperatorTable = PUBLIC_OPS) -> Relation:
        return self.child.eval(db, ops)

    def to_infix(self, show_predicates: bool = False) -> str:
        order = ", ".join(self.spec.variables)
        return f"Leapfrog[{order}]({self.child.to_infix(show_predicates)})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Leapfrog) and other.child == self.child and other.spec == self.spec

    def __hash__(self) -> int:
        return hash(("Leapfrog", self.child, self.spec))


def wcoj_spec_of(
    graph: QueryGraph, registry: SchemaRegistry
) -> Optional[WcojSpec]:
    """Build the WCOJ spec for a cyclic pure-join graph, or ``None``.

    Returns ``None`` — the caller keeps its DP plan —
    when the graph has outerjoin edges, is empty or disconnected, has an
    edge without an equality key (no trie key to intersect on), or when
    the attribute-class hypergraph is α-acyclic (GYO succeeds): the
    worst-case optimal path only pays off where binary plans can blow
    past the AGM bound, which is exactly the cyclic case.
    """
    if graph.oj_edges or not graph.nodes or not graph.is_connected():
        return None
    if len(graph.nodes) < 3:
        return None

    uf = _UnionFind()
    rel_key_attrs: Dict[str, List[str]] = {node: [] for node in graph.nodes}
    residuals: List[Predicate] = []
    for pair in sorted(graph.join_edges, key=sorted):
        u, v = sorted(pair)
        predicate = graph.join_edges[pair]
        left_keys, right_keys, residual = decompose_join_predicate(
            predicate, registry[u].attributes, registry[v].attributes
        )
        if not left_keys:
            return None
        for a, b in zip(left_keys, right_keys):
            uf.union(a, b)
        rel_key_attrs[u].extend(left_keys)
        rel_key_attrs[v].extend(right_keys)
        residuals.extend(residual)

    # Name every class by its smallest member attribute: stable across
    # union-find internals, so specs (and their cache entries) compare
    # equal between runs.
    members: Dict[str, List[str]] = {}
    for attrs in rel_key_attrs.values():
        for attr in attrs:
            members.setdefault(uf.find(attr), []).append(attr)
    class_name = {root: min(attrs) for root, attrs in members.items()}

    rel_classes: Dict[str, Dict[str, List[str]]] = {}
    for node, attrs in rel_key_attrs.items():
        grouped: Dict[str, List[str]] = {}
        for attr in attrs:
            grouped.setdefault(class_name[uf.find(attr)], []).append(attr)
        rel_classes[node] = {
            var: sorted(set(group)) for var, group in grouped.items()
        }

    hyper = {node: frozenset(rel_classes[node]) for node in graph.nodes}
    if gyo_reduce(hyper) is not None:
        return None  # α-acyclic: DP territory

    degree: Dict[str, int] = {}
    for verts in hyper.values():
        for var in verts:
            degree[var] = degree.get(var, 0) + 1
    variables = tuple(
        sorted(degree, key=lambda var: (-degree[var], var))
    )

    order = tuple(sorted(graph.nodes))
    keys = tuple(
        (
            node,
            tuple(
                (var, tuple(rel_classes[node][var]))
                for var in variables
                if var in rel_classes[node]
            ),
        )
        for node in order
    )
    return WcojSpec(
        variables=variables,
        order=order,
        keys=keys,
        residuals=tuple(residuals),
    )
