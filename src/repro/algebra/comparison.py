"""Relation comparison under the paper's padding convention.

Section 2.1: "For comparing or computing the union of relations X, Y, we
first pad the tuples of each relation to scheme sch(X) ∪ sch(Y)."  All
identity checks in this library compare relations through these helpers,
under bag semantics by default (the paper's proofs are designed to survive
duplicates) with a set-semantics variant for the duplicate-free GOJ
identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.algebra.relation import Relation
from repro.algebra.tuples import Row


def _padded_pair(left: Relation, right: Relation) -> Tuple[Relation, Relation]:
    schema = left.schema.union(right.schema)
    return left.pad_to(schema), right.pad_to(schema)


def bag_equal(left: Relation, right: Relation) -> bool:
    """Bag equality after padding both sides to the union scheme."""
    a, b = _padded_pair(left, right)
    return a.counts() == b.counts()


def set_equal(left: Relation, right: Relation) -> bool:
    """Set equality (ignoring multiplicities) after padding."""
    a, b = _padded_pair(left, right)
    return set(a.distinct_rows()) == set(b.distinct_rows())


@dataclass
class RelationDiff:
    """A human-readable account of how two relations differ.

    Produced by :func:`explain_difference`; used in test assertions and in
    counterexample reports from the reorderability brute-force checker so
    that a failing identity shows *which* tuples diverge, not just a bool.
    """

    equal: bool
    only_left: List[Tuple[Row, int]] = field(default_factory=list)
    only_right: List[Tuple[Row, int]] = field(default_factory=list)

    def __str__(self) -> str:
        if self.equal:
            return "relations are bag-equal"
        lines = ["relations differ:"]
        for row, n in self.only_left:
            lines.append(f"  left has {n} extra of {row!r}")
        for row, n in self.only_right:
            lines.append(f"  right has {n} extra of {row!r}")
        return "\n".join(lines)


def explain_difference(left: Relation, right: Relation) -> RelationDiff:
    """Diff two relations under the padding convention (bag semantics)."""
    a, b = _padded_pair(left, right)
    only_left: List[Tuple[Row, int]] = []
    only_right: List[Tuple[Row, int]] = []
    # First-seen order, so the report does not depend on hash salts.
    for row in dict.fromkeys([*a.distinct_rows(), *b.distinct_rows()]):
        d = a.multiplicity(row) - b.multiplicity(row)
        if d > 0:
            only_left.append((row, d))
        elif d < 0:
            only_right.append((row, -d))
    return RelationDiff(equal=not only_left and not only_right,
                        only_left=only_left, only_right=only_right)
