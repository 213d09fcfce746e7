"""Restriction placement — Section 4's "as early as possible".

The paper: "Unlike joins, we do not usually want to explore alternative
positions [for restrictions], but instead just want to do restrictions as
early as possible", subject to the one genuine obstacle: "Difficulties
arise only with moving restrictions past a null-supplied operand."

The legality rules implemented here:

* a single-relation restriction conjunct moves freely through joins and
  through the *preserved* operand of an outerjoin ("it is well known that
  a restriction on the preserved operand of an outerjoin can be moved
  into the outerjoin predicate" — moving it below is the same identity);
* it must NOT cross into a null-supplied operand.  When its relation
  lives there, the conjunct parks directly above that outerjoin — unless
  it is strong, in which case :func:`repro.core.simplify.simplify_outerjoins`
  has already converted the outerjoin to a join and the path is clear;
* multi-relation conjuncts sink to the lowest subtree containing all the
  relations they reference, under the same outerjoin barrier.

``push_restrictions`` therefore composes with the Section-4 simplifier:
run the simplifier first, then push — the pair realizes the paper's whole
Section-4 pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.algebra.predicates import Predicate
from repro.algebra.schema import SchemaRegistry
from repro.core.expressions import (
    BinaryOp,
    Expression,
    FullOuterJoin,
    Join,
    LeftOuterJoin,
    Rel,
    Restrict,
    RightOuterJoin,
)


@dataclass
class PushdownReport:
    """Where each restriction conjunct ended up."""

    query: Expression
    placements: List[str] = field(default_factory=list)
    blocked: List[str] = field(default_factory=list)

    @property
    def fully_pushed(self) -> bool:
        """True when every conjunct reached a leaf (sits on a base relation)."""
        return not self.blocked


def collect_restrictions(query: Expression) -> Tuple[Expression, List[Predicate]]:
    """Strip top-of-tree Restrict nodes, returning (core, conjuncts).

    Matches the paper's analyzed case: "all Restrictions ... in the
    original query occur after all outerjoins have been performed."
    """
    conjuncts: List[Predicate] = []
    node = query
    while isinstance(node, Restrict):
        conjuncts.extend(node.predicate.conjuncts())
        node = node.child
    return node, conjuncts


def split_leaf_filters(expr: Expression) -> Tuple[Expression, Dict[str, List[Predicate]]]:
    """Replace ``Restrict(Rel)`` leaves by bare leaves, collecting filters."""
    filters: Dict[str, List[Predicate]] = {}

    def walk(node: Expression) -> Expression:
        if isinstance(node, Restrict) and isinstance(node.child, Rel):
            filters.setdefault(node.child.name, []).extend(node.predicate.conjuncts())
            return node.child
        kids = node.children()
        if len(kids) == 2:
            return node.with_parts(walk(kids[0]), walk(kids[1]))  # type: ignore[attr-defined]
        if isinstance(node, Restrict):
            return Restrict(walk(node.child), node.predicate)
        return node

    return walk(expr), filters


def _barred_relations(node: Expression) -> frozenset[str]:
    """Relations unreachable by pushdown: inside some null-supplied operand."""
    if isinstance(node, Rel):
        return frozenset()
    barred: frozenset[str] = frozenset()
    for child in node.children():
        barred |= _barred_relations(child)
    if isinstance(node, (LeftOuterJoin, RightOuterJoin)):
        barred |= node.null_supplied().relations()
    elif isinstance(node, FullOuterJoin):
        barred |= node.relations()  # both sides are null-suppliable
    return barred


def _place(
    node: Expression,
    conjunct: Predicate,
    refs: frozenset[str],
    report: PushdownReport,
) -> Expression:
    """Sink one conjunct as deep as legality allows."""
    if isinstance(node, Rel):
        report.placements.append(f"{conjunct!r} -> on base relation {node.name}")
        return Restrict(node, conjunct)

    if isinstance(node, BinaryOp):
        left_rels = node.left.relations()
        right_rels = node.right.relations()
        into_left = refs <= left_rels
        into_right = refs <= right_rels
        if isinstance(node, Join):
            if into_left:
                return node.with_parts(_place(node.left, conjunct, refs, report), node.right)
            if into_right:
                return node.with_parts(node.left, _place(node.right, conjunct, refs, report))
        elif isinstance(node, (LeftOuterJoin, RightOuterJoin)):
            preserved = node.preserved()
            if refs <= preserved.relations():
                # Descending the preserved side is always legal; inner
                # outerjoins (if any) park the conjunct recursively.
                new_preserved = _place(preserved, conjunct, refs, report)
                if isinstance(node, LeftOuterJoin):
                    return node.with_parts(new_preserved, node.right)
                return node.with_parts(node.left, new_preserved)
            report.blocked.append(
                f"{conjunct!r} parked above {node.to_infix()}: its relation(s) "
                f"{sorted(refs & (node.null_supplied().relations() | _barred_relations(node)))} "
                "can be null-supplied below"
            )
            return Restrict(node, conjunct)
        elif isinstance(node, FullOuterJoin):
            report.blocked.append(
                f"{conjunct!r} parked above {node.to_infix()}: both operands of a "
                "two-sided outerjoin are null-suppliable"
            )
            return Restrict(node, conjunct)
        # Conjunct straddles both operands of a join (or could not descend):
        # it stays here.
        report.placements.append(f"{conjunct!r} -> above {node.to_infix()}")
        return Restrict(node, conjunct)

    # Unary wrappers (already-placed restricts, projections): stay above.
    report.placements.append(f"{conjunct!r} -> above {node.to_infix()}")
    return Restrict(node, conjunct)


def push_restrictions(query: Expression, registry: SchemaRegistry) -> PushdownReport:
    """Push every top-level restriction conjunct as deep as legal.

    Run :func:`repro.core.simplify.simplify_outerjoins` first so strong
    conjuncts have already converted their outerjoins; what remains
    blocked afterwards is blocked for a real semantic reason (e.g. an
    ``IS NULL`` probe for padded tuples).
    """
    core, conjuncts = collect_restrictions(query)
    report = PushdownReport(query=core)
    tree = core
    for conjunct in conjuncts:
        refs = frozenset(registry.owners(conjunct.attributes()))
        tree = _place(tree, conjunct, refs, report)
    report.query = tree
    return report
