"""The ``naive`` tier never touches the hash kernel.

The oracle is an operator table passed to ``Expression.eval``, not a
process mode, so nothing outside the table may reach
:mod:`repro.algebra.kernels` while it evaluates.  The generalized
outerjoin is where a table could leak silently: GOJ computes its join
internally, so it must take that join from the table too, and so must the
deferred GOJ node that identity 15 rewrites into.  The kernel is patched
to raise here; the ``naive`` tier must still evaluate a tree holding every
operator kind, and the ``algebra`` tier must hit the patch — every public
join-like operator runs the kernel, whatever its input size.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.algebra import NULL, Database, Relation, Row, bag_equal, eq, lt
from repro.algebra import kernels
from repro.conformance import run_executor
from repro.core import (
    Project,
    Rel,
    Restrict,
    RightAntijoin,
    Union,
    aj,
    foj,
    goj,
    jn,
    oj,
    reassociate_outerjoin_of_join,
    roj,
    sj,
)

#: Key offset per relation: overlapping but unequal key ranges, so every
#: join matches some rows and every outerjoin pads some.
OFFSETS = dict(zip("ABCDEFGHIJKLMNO", (0, 1, 2, 3, 1, 2, 4, 0, 2, 1, 3, 0, 2, 1, 3)))
ROWS = 8


def _relation(name: str, offset: int) -> Relation:
    rows = [
        Row({f"{name}.k": NULL if i == ROWS - 1 else i + offset, f"{name}.v": i % 3})
        for i in range(ROWS)
    ]
    return Relation([f"{name}.k", f"{name}.v"], rows)


DB = Database({name: _relation(name, offset) for name, offset in OFFSETS.items()})


class KernelCalled(Exception):
    pass


def kernels_raise():
    return mock.patch.object(kernels, "hash_counts", side_effect=KernelCalled)


def k(a: str, b: str):
    return eq(f"{a}.k", f"{b}.k")


#: One tree per join-like operator kind.
SINGLE_OPERATORS = {
    "join": jn("A", "B", k("A", "B")),
    "left_outerjoin": oj("A", "B", k("A", "B")),
    "right_outerjoin": roj("A", "B", k("A", "B")),
    "full_outerjoin": foj("A", "B", k("A", "B")),
    "semijoin": sj("A", "B", k("A", "B")),
    "antijoin": aj("A", "B", k("A", "B")),
    "right_antijoin": RightAntijoin(Rel("A"), Rel("B"), k("A", "B")),
    "goj": goj("A", "B", k("A", "B"), ["A.k"]),
    "goj_over_join": goj("A", jn("B", "C", k("B", "C")), k("A", "B"), ["A.k", "A.v"]),
    "identity15_goj": reassociate_outerjoin_of_join(
        oj("A", jn("B", "C", k("B", "C")), k("A", "B"))
    ),
}


def every_operator_tree():
    """One tree holding every operator kind the algebra evaluates."""
    core = jn("A", "B", k("A", "B"))
    core = oj(core, "C", k("B", "C"))
    core = roj("D", core, k("D", "A"))
    core = foj(core, "E", k("A", "E"))
    core = sj(core, "F", k("A", "F"))
    core = aj(core, "G", k("A", "G"))
    core = RightAntijoin(jn("H", "I", k("H", "I")), core, eq("H.k", "A.v"))
    core = Project(Restrict(core, lt("A.v", 2)), ["A.k", "A.v", "C.k", "E.k"], dedup=False)
    rewritten = reassociate_outerjoin_of_join(oj("J", jn("K", "L", k("K", "L")), k("J", "K")))
    over_join = goj("M", jn("N", "O", k("N", "O")), k("M", "N"), ["M.k", "M.v"])
    return Union(Union(core, rewritten), over_join)


@pytest.mark.parametrize("name", sorted(SINGLE_OPERATORS))
def test_each_operator_reaches_a_kernel_at_the_default_cutoff(name):
    """Every join-like operator alone reaches the kernel (there is no
    size cutoff); the oracle answers the same without it."""
    expr = SINGLE_OPERATORS[name]
    expected = run_executor("algebra", expr, DB)
    with kernels_raise():
        with pytest.raises(KernelCalled):
            run_executor("algebra", expr, DB)
        assert bag_equal(run_executor("naive", expr, DB), expected)


def test_naive_tier_evaluates_every_operator_kind_without_a_kernel():
    expr = every_operator_tree()
    kinds = {type(node).__name__ for _path, node in expr.nodes()}
    assert kinds >= {
        "Join",
        "LeftOuterJoin",
        "RightOuterJoin",
        "FullOuterJoin",
        "Semijoin",
        "Antijoin",
        "RightAntijoin",
        "GeneralizedOuterJoin",
        "_DeferredGoj",
        "Restrict",
        "Project",
        "Union",
    }
    expected = run_executor("algebra", expr, DB)
    assert len(expected) > 0
    with kernels_raise():
        assert bag_equal(run_executor("naive", expr, DB), expected)
        with pytest.raises(KernelCalled):
            run_executor("algebra", expr, DB)
