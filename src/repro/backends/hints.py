"""Join-order hinting: render a physical tree as order-forcing SQL.

PostBOUND forces a plan onto Postgres with ``pg_hint_plan`` comments;
SQLite has no hint comments, but it documents a stronger mechanism: the
``CROSS JOIN`` keyword is *never reordered* ("the CROSS JOIN join
operator ... is handled specially by the query optimizer: the order of
the two operands is not commuted"), and outer joins are order-fixed in
every engine.  So a physical tree lowers to SQL whose FROM clause is the
tree itself — every binary node an explicitly parenthesized join source:

.. code-block:: sql

    SELECT "A.a", "B.a", "C.a"
    FROM ((SELECT ... FROM "A" CROSS JOIN "B" ON ("A.a" = "B.a") LIMIT -1)
          AS h1 CROSS JOIN "C" ON (...))

``CROSS JOIN`` alone is not enough: SQLite's query *flattener* merges a
parenthesized join source into the enclosing FROM, collapsing a bushy or
right-deep tree into its linear leaf order — which can contain cartesian
products the tree never had (a right-deep star becomes ``L1 × L2``
before the hub constrains anything).  A subquery that uses LIMIT is
never flattened, and ``LIMIT -1`` means "no limit", so composite join
operands are fenced in one: the subtree evaluates as a unit exactly
where the tree says, and ``CROSS JOIN`` pins the operand order within
each binary join.

Three exports:

* :func:`join_shape` — the tree's order as nested name tuples, the
  ground truth hints are compared against (a ``RightOuterJoin`` shows up
  swapped, because ``X ← Y`` executes as ``Y LEFT JOIN X``);
* :func:`hinted_sql` — tree → ``(sql, columns)``;
* :func:`parse_join_shape` — SQL → shape, by re-parsing the emitted
  paren nesting; the round-trip test
  ``parse_join_shape(hinted_sql(t)) == join_shape(t)`` is what certifies
  that the hint really pins the order.
"""

from __future__ import annotations

from typing import List, Tuple, Union as TUnion

from repro.algebra.schema import SchemaRegistry
from repro.algebra.sqlrender import SQLRenderError, sql_identifier
from repro.core.expressions import (
    Expression,
    Join,
    LeftOuterJoin,
    Rel,
    Restrict,
    RightOuterJoin,
)
from repro.util.errors import PlanningError

#: A join shape: a leaf's base-table name, or a (left, right) pair.
JoinShape = TUnion[str, Tuple["JoinShape", "JoinShape"]]


class HintError(PlanningError):
    """The expression has no order-forcing SQL form (operator or predicate)."""


def join_shape(expr: Expression) -> JoinShape:
    """The execution order of a physical tree as nested name tuples.

    Mirrors evaluation: ``RightOuterJoin`` contributes ``(right, left)``
    because ``X ← Y`` evaluates (and transpiles) as ``Y LEFT JOIN X``.
    ``Restrict`` wrappers are transparent — a filtered scan occupies the
    same position as its base table.
    """
    if isinstance(expr, Rel):
        return expr.name
    if isinstance(expr, Restrict):
        return join_shape(expr.child)
    if isinstance(expr, (Join, LeftOuterJoin)):
        return (join_shape(expr.left), join_shape(expr.right))
    if isinstance(expr, RightOuterJoin):
        return (join_shape(expr.right), join_shape(expr.left))
    raise HintError(f"operator {type(expr).__name__} has no hinted-SQL form")


def hinted_sql(expr: Expression, registry: SchemaRegistry) -> Tuple[str, List[str]]:
    """Render ``expr`` as one SELECT whose FROM clause pins the join order.

    Supported shapes are trees of Rel / Restrict / Join / LeftOuterJoin /
    RightOuterJoin — exactly the physical trees the optimizer emits
    (``PipelineResult.chosen``).  A ``Restrict`` over a non-leaf subtree
    becomes a named subquery, which still pins the order *inside* it.
    Inner joins are spelled ``CROSS JOIN``, SQLite's documented
    no-reorder spelling (it accepts an ON clause like any inner join).
    Raises :class:`HintError` for other operators and for predicates with
    no SQL rendering.
    """
    counter = [0]

    def alias() -> str:
        counter[0] += 1
        return f"h{counter[0]}"

    def pred_sql(predicate) -> str:
        try:
            return predicate.to_sql()
        except SQLRenderError as exc:
            raise HintError(str(exc)) from exc

    def operand(node: Expression) -> Tuple[str, List[str]]:
        """Render a join operand, barrier-wrapped when it contains joins.

        SQLite's query flattener merges a nested join source into the
        enclosing FROM, which turns a bushy or right-deep tree into its
        linear leaf order — and that order can contain cartesian products
        the tree never had.  A subquery using LIMIT is never flattened,
        and ``LIMIT -1`` means "no limit", so wrapping composite operands
        in one is a semantics-free evaluation fence: the subtree joins as
        a unit, exactly where the tree says it does.
        """
        src, cols, composite = render(node)
        if composite:
            collist = ", ".join(sql_identifier(c) for c in cols)
            return f"(SELECT {collist} FROM {src} LIMIT -1) AS {alias()}", cols
        return src, cols

    def render(node: Expression) -> Tuple[str, List[str], bool]:
        if isinstance(node, Rel):
            name = sql_identifier(node.name)
            return name, sorted(registry[node.name].attributes), False
        if isinstance(node, Restrict):
            src, cols, composite = render(node.child)
            collist = ", ".join(sql_identifier(c) for c in cols)
            where = pred_sql(node.predicate)
            fence = " LIMIT -1" if composite else ""
            return (
                f"(SELECT {collist} FROM {src} WHERE {where}{fence}) AS {alias()}",
                cols,
                False,
            )
        if isinstance(node, (Join, LeftOuterJoin, RightOuterJoin)):
            if isinstance(node, RightOuterJoin):
                first, second = node.right, node.left
                keyword = "LEFT JOIN"
            else:
                first, second = node.left, node.right
                keyword = "LEFT JOIN" if isinstance(node, LeftOuterJoin) else "CROSS JOIN"
            lsrc, lcols = operand(first)
            rsrc, rcols = operand(second)
            on = pred_sql(node.predicate)
            return f"({lsrc} {keyword} {rsrc} ON {on})", lcols + rcols, True
        raise HintError(f"operator {type(node).__name__} has no hinted-SQL form")

    src, cols, _composite = render(expr)
    collist = ", ".join(sql_identifier(c) for c in cols)
    return f"SELECT {collist} FROM {src}", cols


# ---------------------------------------------------------------------------
# Round-trip parser
# ---------------------------------------------------------------------------

_JOIN_STARTERS = {"CROSS", "LEFT", "JOIN"}


def _tokenize(sql: str) -> List[Tuple[str, str]]:
    """Lex into (kind, text): ident / str / punct / word / op tokens."""
    out: List[Tuple[str, str]] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == '"' or ch == "'":
            quote = ch
            j = i + 1
            parts: List[str] = []
            while j < n:
                if sql[j] == quote:
                    if j + 1 < n and sql[j + 1] == quote:  # doubled escape
                        parts.append(quote)
                        j += 2
                        continue
                    break
                parts.append(sql[j])
                j += 1
            else:
                raise HintError(f"unterminated {quote} quote in hinted SQL")
            out.append(("ident" if quote == '"' else "str", "".join(parts)))
            i = j + 1
            continue
        if ch in "(),":
            out.append(("punct", ch))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] in "_."):
                j += 1
            out.append(("word", sql[i:j].upper()))
            i = j
            continue
        j = i
        while j < n and not sql[j].isspace() and sql[j] not in "(),\"'":
            j += 1
        out.append(("op", sql[i:j]))
        i = j
    return out


class _TokenStream:
    def __init__(self, tokens: List[Tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Tuple[str, str]:
        if self.pos >= len(self.tokens):
            return ("eof", "")
        return self.tokens[self.pos]

    def next(self) -> Tuple[str, str]:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str = "") -> Tuple[str, str]:
        tok = self.next()
        if tok[0] != kind or (text and tok[1] != text):
            raise HintError(f"hinted-SQL parse: expected {kind} {text!r}, got {tok}")
        return tok


def _skip_to_from(ts: _TokenStream) -> None:
    """Consume the select list up to the matching top-level FROM."""
    depth = 0
    while True:
        kind, text = ts.next()
        if kind == "eof":
            raise HintError("hinted-SQL parse: no FROM clause")
        if kind == "punct" and text == "(":
            depth += 1
        elif kind == "punct" and text == ")":
            depth -= 1
        elif kind == "word" and text == "FROM" and depth == 0:
            return


def _skip_group(ts: _TokenStream) -> None:
    """Consume one balanced ``( ... )`` group (the ON predicate)."""
    ts.expect("punct", "(")
    depth = 1
    while depth:
        kind, text = ts.next()
        if kind == "eof":
            raise HintError("hinted-SQL parse: unbalanced ON group")
        if kind == "punct" and text == "(":
            depth += 1
        elif kind == "punct" and text == ")":
            depth -= 1


def _skip_to_close(ts: _TokenStream) -> None:
    """Consume the rest of a subquery (e.g. its WHERE) up to its ``)``."""
    depth = 0
    while True:
        kind, text = ts.next()
        if kind == "eof":
            raise HintError("hinted-SQL parse: unbalanced subquery")
        if kind == "punct" and text == "(":
            depth += 1
        elif kind == "punct" and text == ")":
            if depth == 0:
                return
            depth -= 1


def _parse_unit(ts: _TokenStream) -> JoinShape:
    kind, text = ts.next()
    if kind == "ident":
        return text
    if kind == "punct" and text == "(":
        if ts.peek() == ("word", "SELECT"):
            ts.next()
            _skip_to_from(ts)
            inner = _parse_source(ts)
            _skip_to_close(ts)
            if ts.peek() == ("word", "AS"):
                ts.next()
                ts.next()  # the alias
            return inner
        inner = _parse_source(ts)
        ts.expect("punct", ")")
        return inner
    raise HintError(f"hinted-SQL parse: unexpected token {(kind, text)}")


def _parse_source(ts: _TokenStream) -> JoinShape:
    shape = _parse_unit(ts)
    while ts.peek()[0] == "word" and ts.peek()[1] in _JOIN_STARTERS:
        while ts.peek() != ("word", "JOIN"):
            if ts.next()[0] == "eof":
                raise HintError("hinted-SQL parse: dangling join keyword")
        ts.next()  # JOIN
        right = _parse_unit(ts)
        ts.expect("word", "ON")
        _skip_group(ts)
        shape = (shape, right)
    return shape


def parse_join_shape(sql: str) -> JoinShape:
    """Recover the join order from hinted SQL by re-parsing its nesting.

    Inverse of :func:`hinted_sql` on the grammar it emits (quoted
    identifiers, parenthesized join sources, subquery leaves, always-
    parenthesized ON groups); used by the round-trip conformance test.
    """
    ts = _TokenStream(_tokenize(sql))
    ts.expect("word", "SELECT")
    _skip_to_from(ts)
    return _parse_source(ts)
