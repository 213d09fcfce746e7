"""GOJ parity between the oracle and the hash kernel.

The GOJ of equation 14 is built *on top of* join, so which join runs
underneath decides the code path of every generalized outerjoin: the
nested-loop ``naive_join`` when the oracle's operator table evaluates,
the hash kernel otherwise.  These tests pin the invariant that the result
is bag-identical either way, for the algebra operator, for expression
trees, and for the engine's :class:`GeneralizedOuterJoinOp`.
"""

import pytest

from repro.algebra import (
    bag_equal,
    eq,
    explain_difference,
    generalized_outerjoin,
    naive_join,
)
from repro.conformance import cross_check, run_executor
from repro.core.expressions import Rel, goj, jn
from repro.datagen import random_database
from repro.engine import Storage

SCHEMAS = {
    "X": ["X.k", "X.a"],
    "Y": ["Y.k", "Y.b"],
    "Z": ["Z.k", "Z.c"],
}


def _db(seed: int):
    return random_database(
        SCHEMAS,
        seed=seed,
        max_rows=6,
        domain=3,
        null_probability=0.25,
        duplicate_probability=0.3,
    )


def _operator_parity(db, projection):
    args = (db["X"], db["Y"], eq("X.k", "Y.k"), projection)
    naive = generalized_outerjoin(*args, join=naive_join)
    fast = generalized_outerjoin(*args)
    assert bag_equal(naive, fast), explain_difference(naive, fast)


@pytest.mark.parametrize("seed", range(8))
def test_operator_parity_on_random_inputs(seed):
    _operator_parity(_db(seed), ["X.k"])


@pytest.mark.parametrize("seed", range(8))
def test_expression_parity_goj_over_join(seed):
    """GOJ above a hash-joined join: X GOJ[S] (Y ⋈ Z)."""
    db = _db(seed)
    expr = goj(
        Rel("X"),
        jn(Rel("Y"), Rel("Z"), eq("Y.k", "Z.k")),
        eq("X.k", "Y.k"),
        ["X.k", "X.a"],
    )
    naive = run_executor("naive", expr, db)
    fast = run_executor("algebra", expr, db)
    assert bag_equal(naive, fast), explain_difference(naive, fast)


@pytest.mark.parametrize("seed", range(6))
def test_engine_goj_op_matches_both_kernel_modes(seed):
    """The hash-based GeneralizedOuterJoinOp agrees with the algebra
    evaluator on the oracle's operators and on the hash kernel."""
    db = _db(seed)
    storage = Storage.from_database(db)
    expr = goj(Rel("X"), Rel("Y"), eq("X.k", "Y.k"), ["X.k"])
    result = cross_check(
        expr,
        db,
        executors=("naive", "algebra", "engine", "batch"),
        storage=storage,
        strict=True,
    )
    assert result.ok, result.summary()


def test_projection_subset_parity():
    """A strict subset S (padding also nulls left attributes) must agree."""
    _operator_parity(_db(99), ["X.a"])
