"""GOJ parity across kernel modes (the gap PR 1 left open).

The hash kernels accelerate join/outerjoin, and the GOJ of equation 14 is
built *on top of* join — so flipping ``REPRO_NAIVE_KERNELS`` (or its
in-process equivalent :func:`kernel_mode`) changes the code path under
every generalized outerjoin.  These tests pin the invariant that the
result is bag-identical either way, for the algebra operator, for
expression trees, and for the engine's :class:`GeneralizedOuterJoinOp`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algebra import (
    Relation,
    bag_equal,
    eq,
    explain_difference,
    generalized_outerjoin,
)
from repro.algebra.kernels import small_input_limit
from repro.conformance import cross_check
from repro.core.expressions import Rel, goj, jn
from repro.datagen import random_database
from repro.engine import Storage
from repro.util.fastpath import kernel_mode

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


def _eval_in_mode(fn, enabled: bool) -> Relation:
    """Run ``fn`` with kernels forced on (no small-input fallback) or off."""
    with kernel_mode(enabled), small_input_limit(0):
        return fn()


@pytest.mark.parametrize("seed", range(8))
def test_operator_parity_on_random_inputs(seed):
    db = _db(seed)
    p = eq("X.k", "Y.k")
    run = lambda: generalized_outerjoin(db["X"], db["Y"], p, ["X.k"])
    naive = _eval_in_mode(run, False)
    fast = _eval_in_mode(run, True)
    assert bag_equal(naive, fast), explain_difference(naive, fast)


@pytest.mark.parametrize("seed", range(8))
def test_expression_parity_goj_over_join(seed):
    """GOJ above a kernel-eligible join: X GOJ[S] (Y ⋈ Z)."""
    db = _db(seed)
    expr = goj(
        Rel("X"),
        jn(Rel("Y"), Rel("Z"), eq("Y.k", "Z.k")),
        eq("X.k", "Y.k"),
        ["X.k", "X.a"],
    )
    naive = _eval_in_mode(lambda: expr.eval(db), False)
    fast = _eval_in_mode(lambda: expr.eval(db), True)
    assert bag_equal(naive, fast), explain_difference(naive, fast)


@pytest.mark.parametrize("seed", range(6))
def test_engine_goj_op_matches_both_kernel_modes(seed):
    """The hash-based GeneralizedOuterJoinOp agrees with the algebra
    evaluator whichever way the algebra's kernels are toggled."""
    db = _db(seed)
    storage = Storage.from_database(db)
    expr = goj(Rel("X"), Rel("Y"), eq("X.k", "Y.k"), ["X.k"])
    result = cross_check(
        expr,
        db,
        executors=("naive", "kernels", "engine", "batch"),
        storage=storage,
        strict=True,
    )
    assert result.ok, result.summary()


def test_projection_subset_parity():
    """A strict subset S (padding also nulls left attributes) must agree."""
    db = _db(99)
    p = eq("X.k", "Y.k")
    run = lambda: generalized_outerjoin(db["X"], db["Y"], p, ["X.a"])
    naive = _eval_in_mode(run, False)
    fast = _eval_in_mode(run, True)
    assert bag_equal(naive, fast), explain_difference(naive, fast)


def test_env_toggle_parity_subprocess():
    """``REPRO_NAIVE_KERNELS=1`` (the import-time toggle) yields the same
    GOJ bags as the fast default, compared across two interpreters."""
    root = Path(__file__).resolve().parents[1]
    program = (
        "from repro.algebra import generalized_outerjoin, eq\n"
        "from repro.datagen import random_database\n"
        "db = random_database({'X': ['X.k', 'X.a'], 'Y': ['Y.k', 'Y.b']},"
        " seed=7, max_rows=6, domain=3, null_probability=0.25,"
        " duplicate_probability=0.3)\n"
        "out = generalized_outerjoin(db['X'], db['Y'], eq('X.k', 'Y.k'), ['X.k'])\n"
        "rows = sorted(repr(sorted(r.items())) for r in out)\n"
        "print('\\n'.join(rows))\n"
    )
    outputs = []
    for naive in ("", "1"):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        if naive:
            env["REPRO_NAIVE_KERNELS"] = naive
        else:
            env.pop("REPRO_NAIVE_KERNELS", None)
        proc = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
