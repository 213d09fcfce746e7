"""Relational-algebra substrate: tuples, nulls, predicates, and operators.

This package implements every definition of the paper's Sections 1.2 and
2.1 from scratch: schemes, tuples with nulls, bag relations, three-valued
predicates with strongness analysis, and the join-like operators
(join, outerjoin, antijoin, semijoin, generalized outerjoin).
"""

from repro.algebra.aggregation import group_count
from repro.algebra.comparison import bag_equal, explain_difference, set_equal
from repro.algebra.goj import generalized_outerjoin
from repro.algebra.nulls import NULL, is_null, satisfied, tv_and, tv_not, tv_or
from repro.algebra.operators import (
    antijoin,
    full_outerjoin,
    cross,
    difference,
    join,
    naive_antijoin,
    naive_full_outerjoin,
    naive_join,
    naive_outerjoin,
    naive_semijoin,
    outerjoin,
    project,
    restrict,
    semijoin,
    union_padded,
)
from repro.algebra.predicates import (
    And,
    AttrRef,
    Comparison,
    Const,
    CustomPredicate,
    IsNull,
    Not,
    Or,
    PairView,
    Predicate,
    TruePredicate,
    conjunction,
    decompose_join_predicate,
    eq,
    gt,
    lt,
    references,
)
from repro.algebra.relation import Database, Relation
from repro.algebra.schema import Schema, SchemaRegistry, qualify
from repro.algebra.sqlrender import SQLRenderError, sql_identifier, sql_literal
from repro.algebra.tuples import Row, concat_rows, null_row

__all__ = [
    "NULL",
    "And",
    "AttrRef",
    "Comparison",
    "Const",
    "CustomPredicate",
    "Database",
    "IsNull",
    "Not",
    "Or",
    "PairView",
    "Predicate",
    "Relation",
    "Row",
    "SQLRenderError",
    "Schema",
    "SchemaRegistry",
    "TruePredicate",
    "antijoin",
    "bag_equal",
    "concat_rows",
    "conjunction",
    "cross",
    "decompose_join_predicate",
    "difference",
    "eq",
    "full_outerjoin",
    "explain_difference",
    "generalized_outerjoin",
    "group_count",
    "gt",
    "is_null",
    "join",
    "lt",
    "naive_antijoin",
    "naive_full_outerjoin",
    "naive_join",
    "naive_outerjoin",
    "naive_semijoin",
    "null_row",
    "outerjoin",
    "project",
    "qualify",
    "references",
    "restrict",
    "satisfied",
    "semijoin",
    "set_equal",
    "sql_identifier",
    "sql_literal",
    "tv_and",
    "tv_not",
    "tv_or",
    "union_padded",
]
