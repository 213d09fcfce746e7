"""Lower expression trees to SQLite SQL and execute them as an oracle.

SQLite is the one relational engine every Python ships with, and its
null/3VL semantics are the model this library copied (see
:mod:`repro.algebra.nulls`), which makes it a *fully independent* oracle:
no line of evaluation code is shared between ``expr.eval(db)`` and the
SQL produced here.

The transpiler is a visitor over :class:`repro.core.expressions`
(dispatched through ``Expression.accept``).  Each node becomes one
``SELECT``; bag semantics is preserved throughout because everything
composes via ``JOIN``/``UNION ALL`` and because projections without
``dedup`` use plain ``SELECT``.  The paper-specific operators map as:

* ``JN[p]``                → ``INNER JOIN ... ON p``
* ``OJ[p]`` / symmetric    → ``LEFT JOIN`` (operands swapped for ``←``)
* two-sided outerjoin      → ``LEFT JOIN ... UNION ALL`` the null-padded
  unmatched right rows via ``NOT EXISTS`` (portable to SQLite < 3.39,
  which lacks ``FULL OUTER JOIN``)
* semijoin / antijoin      → correlated ``EXISTS`` / ``NOT EXISTS``
* ``GOJ[S]`` (eq. 14)      → the join ``UNION ALL`` one null-padded row
  per S-projection in ``π[S](R1) EXCEPT π[S](JN(R1,R2))`` — SQLite's
  ``EXCEPT``/``DISTINCT`` treat NULLs as equal, exactly like the
  paper's set-level projection over our single null marker
* restrict / project       → ``WHERE`` / ``SELECT [DISTINCT]``
* padded union             → ``UNION ALL`` with ``NULL AS`` padding

Because ground schemes are mutually disjoint and attribute names are
globally unique (``"X.a"``), every column can keep its original quoted
name through arbitrary nesting — no alias bookkeeping is needed for
resolution, only for SQLite's requirement that subqueries be named.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.algebra.relation import Database, Relation
from repro.algebra.schema import SchemaRegistry
from repro.algebra.sqlrender import SQLRenderError, sql_identifier
from repro.core.expressions import Expression
from repro.tools import instrumentation
from repro.util.errors import EvaluationError


class TranspileError(EvaluationError):
    """The expression (or one of its predicates) has no SQL form."""


def _cols(names: Iterable[str]) -> str:
    return ", ".join(sql_identifier(n) for n in names)


def _null_padded(select_names: Sequence[str], present: Sequence[str]) -> str:
    """SELECT list producing ``select_names``, padding absent ones with NULL."""
    have = set(present)
    parts = []
    for name in select_names:
        if name in have:
            parts.append(sql_identifier(name))
        else:
            parts.append(f"NULL AS {sql_identifier(name)}")
    return ", ".join(parts)


class SQLTranspiler:
    """One-shot visitor: ``transpile(expr)`` returns ``(sql, columns)``.

    ``columns`` is the ordered output scheme of the emitted SELECT; the
    executor reads result columns by name, so the order only needs to be
    deterministic, not meaningful.
    """

    def __init__(self, registry: SchemaRegistry):
        self.registry = registry
        self._alias = 0

    def transpile(self, expr: Expression) -> Tuple[str, List[str]]:
        return expr.accept(self)

    # -- helpers -------------------------------------------------------------

    def _next_alias(self) -> str:
        self._alias += 1
        return f"t{self._alias}"

    def _pred_sql(self, predicate) -> str:
        try:
            return predicate.to_sql()
        except SQLRenderError as exc:
            raise TranspileError(str(exc)) from exc

    def _sub(self, expr: Expression) -> Tuple[str, List[str], str]:
        """Transpile a child into ``(parenthesized sql, columns, alias)``."""
        sql, cols = expr.accept(self)
        return f"({sql}) AS {self._next_alias()}", cols, ""

    def generic_visit(self, node: Expression):
        raise TranspileError(
            f"no SQL lowering for operator {type(node).__name__}"
        )

    # -- leaves --------------------------------------------------------------

    def visit_rel(self, node) -> Tuple[str, List[str]]:
        cols = sorted(self.registry[node.name].attributes)
        return f"SELECT {_cols(cols)} FROM {sql_identifier(node.name)}", cols

    # -- join family ---------------------------------------------------------

    def _binary_join(self, node, keyword: str, swap: bool) -> Tuple[str, List[str]]:
        left, right = (node.right, node.left) if swap else (node.left, node.right)
        lsub, lcols, _ = self._sub(left)
        rsub, rcols, _ = self._sub(right)
        pred = self._pred_sql(node.predicate)
        cols = lcols + rcols
        sql = f"SELECT {_cols(cols)} FROM {lsub} {keyword} {rsub} ON {pred}"
        return sql, cols

    def visit_join(self, node) -> Tuple[str, List[str]]:
        return self._binary_join(node, "JOIN", swap=False)

    def visit_left_outer_join(self, node) -> Tuple[str, List[str]]:
        return self._binary_join(node, "LEFT JOIN", swap=False)

    def visit_right_outer_join(self, node) -> Tuple[str, List[str]]:
        # X ← Y preserves Y: transpile as Y LEFT JOIN X.
        return self._binary_join(node, "LEFT JOIN", swap=True)

    def visit_full_outer_join(self, node) -> Tuple[str, List[str]]:
        """Emulated FULL JOIN, portable below SQLite 3.39.

        The left-preserved half is a plain LEFT JOIN; the unmatched right
        rows are appended with NULL padding via a correlated NOT EXISTS,
        which keeps each right row's multiplicity intact (bag semantics).
        """
        lsql, lcols = node.left.accept(self)
        rsql, rcols = node.right.accept(self)
        pred = self._pred_sql(node.predicate)
        cols = lcols + rcols
        a, b = self._next_alias(), self._next_alias()
        c, d = self._next_alias(), self._next_alias()
        matched = (
            f"SELECT {_cols(cols)} FROM ({lsql}) AS {a} "
            f"LEFT JOIN ({rsql}) AS {b} ON {pred}"
        )
        unmatched = (
            f"SELECT {_null_padded(cols, rcols)} FROM ({rsql}) AS {c} "
            f"WHERE NOT EXISTS (SELECT 1 FROM ({lsql}) AS {d} WHERE {pred})"
        )
        return f"{matched} UNION ALL {unmatched}", cols

    def _existence(self, node, negate: bool, swap: bool) -> Tuple[str, List[str]]:
        outer, inner = (node.right, node.left) if swap else (node.left, node.right)
        osql, ocols = outer.accept(self)
        isql, _icols = inner.accept(self)
        pred = self._pred_sql(node.predicate)
        a, b = self._next_alias(), self._next_alias()
        op = "NOT EXISTS" if negate else "EXISTS"
        sql = (
            f"SELECT {_cols(ocols)} FROM ({osql}) AS {a} "
            f"WHERE {op} (SELECT 1 FROM ({isql}) AS {b} WHERE {pred})"
        )
        return sql, ocols

    def visit_semijoin(self, node) -> Tuple[str, List[str]]:
        return self._existence(node, negate=False, swap=False)

    def visit_antijoin(self, node) -> Tuple[str, List[str]]:
        return self._existence(node, negate=True, swap=False)

    def visit_right_antijoin(self, node) -> Tuple[str, List[str]]:
        # X ◁ Y = Y ▷ X: the *right* operand survives.
        return self._existence(node, negate=True, swap=True)

    def visit_generalized_outerjoin(self, node) -> Tuple[str, List[str]]:
        """Equation 14, with the join SQL inlined on both sides of EXCEPT."""
        lsql, lcols = node.left.accept(self)
        rsql, rcols = node.right.accept(self)
        pred = self._pred_sql(node.predicate)
        cols = lcols + rcols
        s_attrs = sorted(node.projection)
        a, b = self._next_alias(), self._next_alias()
        c, d, e = self._next_alias(), self._next_alias(), self._next_alias()
        g = self._next_alias()
        join_sql = (
            f"SELECT {_cols(cols)} FROM ({lsql}) AS {a} JOIN ({rsql}) AS {b} ON {pred}"
        )
        join_again = (
            f"SELECT {_cols(s_attrs)} FROM ({lsql}) AS {d} JOIN ({rsql}) AS {e} ON {pred}"
        )
        missing = (
            f"SELECT {_cols(s_attrs)} FROM ({lsql}) AS {c} EXCEPT {join_again}"
        )
        padded = (
            f"SELECT {_null_padded(cols, s_attrs)} FROM ({missing}) AS {g}"
        )
        return f"{join_sql} UNION ALL {padded}", cols

    # -- unary + union -------------------------------------------------------

    def visit_restrict(self, node) -> Tuple[str, List[str]]:
        csub, cols, _ = self._sub(node.child)
        pred = self._pred_sql(node.predicate)
        return f"SELECT {_cols(cols)} FROM {csub} WHERE {pred}", cols

    def visit_project(self, node) -> Tuple[str, List[str]]:
        csub, _child_cols, _ = self._sub(node.child)
        attrs = sorted(node.attributes)
        distinct = "DISTINCT " if node.dedup else ""
        return f"SELECT {distinct}{_cols(attrs)} FROM {csub}", attrs

    def visit_leapfrog(self, node) -> Tuple[str, List[str]]:
        return node.child.accept(self)

    def visit_union(self, node) -> Tuple[str, List[str]]:
        lsql, lcols = node.left.accept(self)
        rsql, rcols = node.right.accept(self)
        cols = sorted(set(lcols) | set(rcols))
        a, b = self._next_alias(), self._next_alias()
        sql = (
            f"SELECT {_null_padded(cols, lcols)} FROM ({lsql}) AS {a} "
            f"UNION ALL SELECT {_null_padded(cols, rcols)} FROM ({rsql}) AS {b}"
        )
        return sql, cols


def to_sqlite_sql(expr: Expression, registry: SchemaRegistry) -> str:
    """Transpile an expression tree to one SQLite SELECT statement."""
    sql, _cols_out = SQLTranspiler(registry).transpile(expr)
    return sql


class SQLiteOracle:
    """An in-memory SQLite database mirroring an algebra-level Database.

    Loads every ground relation once at construction; ``evaluate`` then
    transpiles and runs arbitrarily many expressions against it.  Values
    are mapped ``NULL`` ↔ SQL ``NULL``; everything else passes through
    sqlite3's native binding (int/float/str).

    The connection and all load/bind machinery live in
    :class:`repro.backends.sqlite_backend.SQLiteBackend`; the oracle
    borrows a warm backend from the module pool and returns it on
    ``close()``, so a fuzz campaign's thousands of per-case oracles
    recycle a handful of connections instead of opening one each.
    """

    def __init__(self, db: Database):
        from repro.backends.sqlite_backend import acquire_pooled

        self.db = db
        self.registry = db.registry
        self._backend = acquire_pooled()
        self._backend.load_database(db)

    def close(self) -> None:
        from repro.backends.sqlite_backend import release_pooled

        if self._backend is not None:
            release_pooled(self._backend)
            self._backend = None

    def __enter__(self) -> "SQLiteOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def evaluate(self, expr: Expression) -> Relation:
        """Run the transpiled expression; return an algebra-level Relation."""
        if self._backend is None:
            raise EvaluationError("oracle is closed")
        instrumentation.bump("sqlite_oracle_queries")
        return self._backend.execute(expr)


def sqlite_evaluate(expr: Expression, db: Database) -> Relation:
    """One-shot convenience: load ``db`` into SQLite and evaluate ``expr``."""
    with SQLiteOracle(db) as oracle:
        return oracle.evaluate(expr)
