"""Query expressions (operator trees) with bottom-up evaluation.

Section 1.2: "A query is an expression over operators in a relational
algebra.  It is expressed as a tree whose leaves correspond to relation
variables, and whose internal nodes contain joins, outerjoins, and other
algebraic operators.  The result of a query Q is denoted eval(Q), and is
defined by the usual bottom-up evaluation of expressions."

The tree is the representation that *can be evaluated*; the query graph
(:mod:`repro.core.graph`) is the representation that abstracts execution
order away.  Everything in Section 3 — implementing trees, basic
transforms, free reorderability — is phrased over these trees.

Operand order matters: the paper gives every non-commutative operator a
"symmetric form" (Section 2.1), which we realize as sibling classes
(``LeftOuterJoin``/``RightOuterJoin``, ``Antijoin``/``RightAntijoin``); the
reversal basic transform swaps operands while switching to the symmetric
class.  Expressions are immutable and hashable so closures under basic
transforms can be computed as plain sets.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import FrozenSet, Optional, Tuple

from repro.algebra.goj import generalized_outerjoin
from repro.algebra.operators import PUBLIC_OPS, OperatorTable
from repro.algebra.predicates import Predicate
from repro.algebra.relation import Database, Relation
from repro.algebra.schema import Schema, SchemaRegistry
from repro.util.errors import EvaluationError

#: A position in a tree: a tuple of 'L'/'R' steps from the root.
Path = Tuple[str, ...]


class Expression:
    """Abstract base class of all query-tree nodes."""

    __slots__ = ()

    #: Name of the visitor method :meth:`accept` dispatches to.  Set per
    #: concrete class; the SQL transpiler and the reproducer serializer
    #: (:mod:`repro.conformance`) are the in-tree visitors.
    visit_method = ""

    def accept(self, visitor):
        """Single-dispatch on the node kind: call ``visitor.visit_<kind>``.

        Falls back to ``visitor.generic_visit(node)`` when the specific
        method is absent, so visitors may handle only the operator subset
        they support and fail uniformly on the rest.
        """
        method = getattr(visitor, self.visit_method, None)
        if method is not None:
            return method(self)
        generic = getattr(visitor, "generic_visit", None)
        if generic is not None:
            return generic(self)
        raise EvaluationError(
            f"{type(visitor).__name__} handles neither {self.visit_method!r} "
            "nor 'generic_visit'"
        )

    def eval(self, db: Database, ops: OperatorTable = PUBLIC_OPS) -> Relation:
        """Bottom-up evaluation against a database of ground relations.

        ``ops`` supplies the operator implementations: the public ones by
        default, :data:`~repro.algebra.operators.ORACLE_OPS` for the
        nested-loop oracle.
        """
        raise NotImplementedError

    def relations(self) -> FrozenSet[str]:
        """Names of the relation variables at the leaves of this subtree."""
        raise NotImplementedError

    def scheme(self, registry: SchemaRegistry) -> Schema:
        """Scheme of the evaluation result, derived without evaluating."""
        raise NotImplementedError

    def children(self) -> Tuple["Expression", ...]:
        return ()

    def to_infix(self, show_predicates: bool = False) -> str:
        """Render in the paper's infix notation (− → ← ▷ ◁)."""
        raise NotImplementedError

    # -- tree walking -------------------------------------------------------

    def nodes(self, path: Path = ()) -> Iterator[Tuple[Path, "Expression"]]:
        """Yield ``(path, node)`` pairs in pre-order."""
        yield path, self
        kids = self.children()
        if kids:
            labels = ("L", "R") if len(kids) == 2 else ("L",)
            for label, kid in zip(labels, kids):
                yield from kid.nodes(path + (label,))

    def size(self) -> int:
        """Number of nodes in the tree."""
        return sum(1 for _ in self.nodes())

    def height(self) -> int:
        kids = self.children()
        if not kids:
            return 0
        return 1 + max(k.height() for k in kids)

    def __repr__(self) -> str:
        return self.to_infix(show_predicates=False)


class Rel(Expression):
    """A leaf: a relation variable."""

    __slots__ = ("name",)
    visit_method = "visit_rel"

    def __init__(self, name: str):
        self.name = name

    def eval(self, db: Database, ops: OperatorTable = PUBLIC_OPS) -> Relation:
        try:
            return db[self.name]
        except Exception as exc:  # SchemaError from Database lookup
            raise EvaluationError(str(exc)) from exc

    def relations(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def scheme(self, registry: SchemaRegistry) -> Schema:
        return registry[self.name]

    def to_infix(self, show_predicates: bool = False) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rel) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Rel", self.name))


class BinaryOp(Expression):
    """A binary join-like operator with an attached predicate."""

    __slots__ = ("left", "right", "predicate", "_rels")

    #: Infix symbol, following the paper's notation.
    symbol = "?"

    def __init__(self, left: Expression, right: Expression, predicate: Predicate):
        self.left = left
        self.right = right
        self.predicate = predicate
        self._rels = left.relations() | right.relations()
        overlap = left.relations() & right.relations()
        if overlap:
            raise EvaluationError(
                f"operands share relation variables {sorted(overlap)}; the paper assumes "
                "no relation is used more than once in a query"
            )

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def relations(self) -> FrozenSet[str]:
        return self._rels

    def scheme(self, registry: SchemaRegistry) -> Schema:
        return self.left.scheme(registry).union(self.right.scheme(registry))

    def with_parts(
        self, left: Expression, right: Expression, predicate: Optional[Predicate] = None
    ) -> "BinaryOp":
        """Rebuild the same operator kind with new parts (used by transforms)."""
        return type(self)(left, right, self.predicate if predicate is None else predicate)

    def to_infix(self, show_predicates: bool = False) -> str:
        tag = f" [{self.predicate!r}]" if show_predicates else ""
        return (
            f"({self.left.to_infix(show_predicates)} {self.symbol}{tag} "
            f"{self.right.to_infix(show_predicates)})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and other.left == self.left  # type: ignore[attr-defined]
            and other.right == self.right  # type: ignore[attr-defined]
            and other.predicate == self.predicate  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.left, self.right, self.predicate))


class Join(BinaryOp):
    """Regular join, drawn as an undirected edge (``X − Y``)."""

    __slots__ = ()
    visit_method = "visit_join"
    symbol = "-"

    def eval(self, db: Database, ops: OperatorTable = PUBLIC_OPS) -> Relation:
        return ops.join(self.left.eval(db, ops), self.right.eval(db, ops), self.predicate)


class LeftOuterJoin(BinaryOp):
    """``X → Y``: left operand preserved, right operand null-supplied."""

    __slots__ = ()
    visit_method = "visit_left_outer_join"
    symbol = "→"

    def eval(self, db: Database, ops: OperatorTable = PUBLIC_OPS) -> Relation:
        return ops.outerjoin(self.left.eval(db, ops), self.right.eval(db, ops), self.predicate)

    def preserved(self) -> Expression:
        return self.left

    def null_supplied(self) -> Expression:
        return self.right


class RightOuterJoin(BinaryOp):
    """``X ← Y``: the symmetric form — right operand preserved.

    Section 2.1's convention ``X ← Y  =  Y → X``; the arrow points at the
    null-supplied relation, here the *left* operand.
    """

    __slots__ = ()
    symbol = "←"
    visit_method = "visit_right_outer_join"

    def eval(self, db: Database, ops: OperatorTable = PUBLIC_OPS) -> Relation:
        return ops.outerjoin(self.right.eval(db, ops), self.left.eval(db, ops), self.predicate)

    def preserved(self) -> Expression:
        return self.right

    def null_supplied(self) -> Expression:
        return self.left


class FullOuterJoin(BinaryOp):
    """``X ⟷ Y``: two-sided outerjoin — both operands preserved.

    Outside the paper's core theory (Section 1.2 sets it aside) but needed
    by Section 4's conversion argument; symmetric, so reversal keeps the
    class and merely swaps operands.
    """

    __slots__ = ()
    symbol = "⟷"
    visit_method = "visit_full_outer_join"

    def eval(self, db: Database, ops: OperatorTable = PUBLIC_OPS) -> Relation:
        return ops.full_outerjoin(self.left.eval(db, ops), self.right.eval(db, ops), self.predicate)


class Antijoin(BinaryOp):
    """``X ▷ Y``: tuples of X with no match in Y (scheme = sch(X))."""

    __slots__ = ()
    symbol = "▷"
    visit_method = "visit_antijoin"

    def eval(self, db: Database, ops: OperatorTable = PUBLIC_OPS) -> Relation:
        return ops.antijoin(self.left.eval(db, ops), self.right.eval(db, ops), self.predicate)

    def scheme(self, registry: SchemaRegistry) -> Schema:
        return self.left.scheme(registry)


class RightAntijoin(BinaryOp):
    """``X ◁ Y  =  Y ▷ X`` (scheme = sch(Y))."""

    __slots__ = ()
    symbol = "◁"
    visit_method = "visit_right_antijoin"

    def eval(self, db: Database, ops: OperatorTable = PUBLIC_OPS) -> Relation:
        return ops.antijoin(self.right.eval(db, ops), self.left.eval(db, ops), self.predicate)

    def scheme(self, registry: SchemaRegistry) -> Schema:
        return self.right.scheme(registry)


class Semijoin(BinaryOp):
    """``X ⋉ Y``: tuples of X having a match in Y (Section 6.3 context)."""

    __slots__ = ()
    symbol = "⋉"
    visit_method = "visit_semijoin"

    def eval(self, db: Database, ops: OperatorTable = PUBLIC_OPS) -> Relation:
        return ops.semijoin(self.left.eval(db, ops), self.right.eval(db, ops), self.predicate)

    def scheme(self, registry: SchemaRegistry) -> Schema:
        return self.left.scheme(registry)


class GeneralizedOuterJoin(BinaryOp):
    """``GOJ[S](X, Y)`` of Section 6.2, with the projection set attached."""

    __slots__ = ("projection",)
    symbol = "GOJ"
    visit_method = "visit_generalized_outerjoin"

    def __init__(
        self,
        left: Expression,
        right: Expression,
        predicate: Predicate,
        projection: FrozenSet[str],
    ):
        super().__init__(left, right, predicate)
        self.projection = frozenset(projection)

    def eval(self, db: Database, ops: OperatorTable = PUBLIC_OPS) -> Relation:
        return generalized_outerjoin(
            self.left.eval(db, ops),
            self.right.eval(db, ops),
            self.predicate,
            self.projection,
            join=ops.join,
        )

    def with_parts(self, left, right, predicate=None):
        return GeneralizedOuterJoin(
            left, right, self.predicate if predicate is None else predicate, self.projection
        )

    def to_infix(self, show_predicates: bool = False) -> str:
        tag = f" [{self.predicate!r}]" if show_predicates else ""
        return (
            f"({self.left.to_infix(show_predicates)} GOJ[{sorted(self.projection)}]{tag} "
            f"{self.right.to_infix(show_predicates)})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GeneralizedOuterJoin)
            and other.left == self.left
            and other.right == self.right
            and other.predicate == self.predicate
            and other.projection == self.projection
        )

    def __hash__(self) -> int:
        return hash(("GOJ", self.left, self.right, self.predicate, self.projection))


class UnaryOp(Expression):
    """A unary operator wrapping one child expression."""

    __slots__ = ("child",)

    def __init__(self, child: Expression):
        self.child = child

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def relations(self) -> FrozenSet[str]:
        return self.child.relations()

    def scheme(self, registry: SchemaRegistry) -> Schema:
        return self.child.scheme(registry)


class Restrict(UnaryOp):
    """Selection (Section 4's Restriction)."""

    __slots__ = ("predicate",)
    visit_method = "visit_restrict"

    def __init__(self, child: Expression, predicate: Predicate):
        super().__init__(child)
        self.predicate = predicate

    def eval(self, db: Database, ops: OperatorTable = PUBLIC_OPS) -> Relation:
        return ops.restrict(self.child.eval(db, ops), self.predicate)

    def to_infix(self, show_predicates: bool = False) -> str:
        tag = f"[{self.predicate!r}]" if show_predicates else ""
        return f"σ{tag}({self.child.to_infix(show_predicates)})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Restrict)
            and other.child == self.child
            and other.predicate == self.predicate
        )

    def __hash__(self) -> int:
        return hash(("Restrict", self.child, self.predicate))


class Project(UnaryOp):
    """Projection; ``dedup=True`` is the paper's duplicate-removing π."""

    __slots__ = ("attributes", "dedup")
    visit_method = "visit_project"

    def __init__(self, child: Expression, attributes, dedup: bool = True):
        super().__init__(child)
        self.attributes = frozenset(attributes)
        self.dedup = dedup

    def eval(self, db: Database, ops: OperatorTable = PUBLIC_OPS) -> Relation:
        return ops.project(self.child.eval(db, ops), sorted(self.attributes), dedup=self.dedup)

    def scheme(self, registry: SchemaRegistry) -> Schema:
        return Schema(self.attributes)

    def to_infix(self, show_predicates: bool = False) -> str:
        return f"π[{sorted(self.attributes)}]({self.child.to_infix(show_predicates)})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Project)
            and other.child == self.child
            and other.attributes == self.attributes
            and other.dedup == self.dedup
        )

    def __hash__(self) -> int:
        return hash(("Project", self.child, self.attributes, self.dedup))


class Union(Expression):
    """Padded bag union (Section 2.1 convention); used by proof replays."""

    __slots__ = ("left", "right")
    visit_method = "visit_union"

    def __init__(self, left: Expression, right: Expression):
        self.left = left
        self.right = right

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def relations(self) -> FrozenSet[str]:
        return self.left.relations() | self.right.relations()

    def eval(self, db: Database, ops: OperatorTable = PUBLIC_OPS) -> Relation:
        return ops.union_padded(self.left.eval(db, ops), self.right.eval(db, ops))

    def scheme(self, registry: SchemaRegistry) -> Schema:
        return self.left.scheme(registry).union(self.right.scheme(registry))

    def with_parts(self, left: Expression, right: Expression, predicate=None) -> "Union":
        """Rebuild with new operands (a union has no predicate)."""
        return Union(left, right)

    def to_infix(self, show_predicates: bool = False) -> str:
        return f"({self.left.to_infix(show_predicates)} ∪ {self.right.to_infix(show_predicates)})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Union) and other.left == self.left and other.right == self.right

    def __hash__(self) -> int:
        return hash(("Union", self.left, self.right))


# ---------------------------------------------------------------------------
# Builders (read like the paper: jn / oj / aj and friends)
# ---------------------------------------------------------------------------


def rel(name: str) -> Rel:
    return Rel(name)


def jn(left, right, predicate: Predicate) -> Join:
    """``JN[p](X, Y)`` — regular join."""
    return Join(_as_expr(left), _as_expr(right), predicate)


def oj(left, right, predicate: Predicate) -> LeftOuterJoin:
    """``OJ[p](X, Y)`` — X preserved, Y null-supplied (``X → Y``)."""
    return LeftOuterJoin(_as_expr(left), _as_expr(right), predicate)


def roj(left, right, predicate: Predicate) -> RightOuterJoin:
    """``X ← Y`` — Y preserved, X null-supplied."""
    return RightOuterJoin(_as_expr(left), _as_expr(right), predicate)


def foj(left, right, predicate: Predicate) -> FullOuterJoin:
    """``X ⟷ Y`` — two-sided outerjoin, both operands preserved."""
    return FullOuterJoin(_as_expr(left), _as_expr(right), predicate)


def aj(left, right, predicate: Predicate) -> Antijoin:
    """``AJ[p](X, Y)`` = ``X ▷ Y``."""
    return Antijoin(_as_expr(left), _as_expr(right), predicate)


def sj(left, right, predicate: Predicate) -> Semijoin:
    return Semijoin(_as_expr(left), _as_expr(right), predicate)


def goj(left, right, predicate: Predicate, projection) -> GeneralizedOuterJoin:
    return GeneralizedOuterJoin(_as_expr(left), _as_expr(right), predicate, frozenset(projection))


def _as_expr(obj) -> Expression:
    if isinstance(obj, Expression):
        return obj
    if isinstance(obj, str):
        return Rel(obj)
    raise EvaluationError(f"cannot interpret {obj!r} as an expression")


# ---------------------------------------------------------------------------
# Tree surgery (used by the basic transforms of Section 3.2)
# ---------------------------------------------------------------------------


def subtree_at(expr: Expression, path: Path) -> Expression:
    """Return the node reached by following ``path`` ('L'/'R' steps)."""
    node = expr
    for step in path:
        kids = node.children()
        if step == "L":
            node = kids[0]
        elif step == "R":
            node = kids[1]
        else:
            raise EvaluationError(f"bad path step {step!r}")
    return node


def replace_at(expr: Expression, path: Path, replacement: Expression) -> Expression:
    """Return a copy of ``expr`` with the subtree at ``path`` replaced."""
    if not path:
        return replacement
    step, rest = path[0], path[1:]
    kids = expr.children()
    if isinstance(expr, BinaryOp):
        if step == "L":
            return expr.with_parts(replace_at(kids[0], rest, replacement), kids[1])
        return expr.with_parts(kids[0], replace_at(kids[1], rest, replacement))
    if isinstance(expr, Restrict):
        return Restrict(replace_at(expr.child, rest, replacement), expr.predicate)
    if isinstance(expr, Project):
        return Project(replace_at(expr.child, rest, replacement), expr.attributes, expr.dedup)
    if isinstance(expr, Union):
        if step == "L":
            return Union(replace_at(kids[0], rest, replacement), kids[1])
        return Union(kids[0], replace_at(kids[1], rest, replacement))
    raise EvaluationError(f"cannot descend into {type(expr).__name__}")
