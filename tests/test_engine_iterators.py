"""Tests for physical operators: semantics and retrieval accounting."""

from contextlib import nullcontext

import pytest

from repro.algebra import NULL, Comparison, TruePredicate, eq, gt
from repro.algebra.comparison import bag_equal
from repro.algebra.operators import ORACLE_OPS
from repro.algebra.relation import Relation
from repro.algebra.tuples import Row, layout_of, row_of
from repro.algebra.schema import Schema
from repro.core.expressions import Rel, Restrict, RightOuterJoin, aj, jn, oj, sj
from repro.core.wcoj_order import wcoj_spec_of
from repro.datagen.topologies import triangle
from repro.engine import (
    Filter,
    GeneralizedOuterJoinOp,
    HashJoin,
    IndexNestedLoopJoin,
    Metrics,
    NestedLoopJoin,
    PhysicalOp,
    Planner,
    ProjectOp,
    SeqScan,
    Storage,
    execute,
    execute_plan,
)
from repro.engine.batch import ColumnBatch
from repro.engine.iterators import PaddedUnion, trace_plan, untrace_plan
from repro.engine.wcoj import build_wcoj_plan
from repro.observability.spans import Span
from repro.util.cancel import CancelToken
from repro.util.errors import PlanningError, QueryCancelledError, SchemaError
from repro.util.fastpath import batch_size, batch_sized


@pytest.fixture
def storage():
    st = Storage()
    st.create_table(
        "R", ["R.a", "R.b"], [{"R.a": i, "R.b": i % 2} for i in range(4)]
    )
    st.create_table("S", ["S.a"], [{"S.a": 0}, {"S.a": 1}, {"S.a": 1}])
    st["S"].create_index("S.a")
    return st


class TestScanFilterProject:
    def test_seqscan_counts_retrievals(self, storage):
        m = Metrics()
        rows = list(SeqScan(storage["R"]).execute(m))
        assert len(rows) == 4
        assert m.tuples_retrieved["R"] == 4

    def test_filter(self, storage):
        plan = Filter(SeqScan(storage["R"]), Comparison("R.b", "=", 0))
        # Comparison against a constant: 0 is coerced to Const.
        out = plan.run()
        assert len(out) == 2

    def test_filter_drops_unknown(self):
        st = Storage()
        st.create_table("T", ["T.a"], [{"T.a": NULL}, {"T.a": 1}])
        plan = Filter(SeqScan(st["T"]), Comparison("T.a", "=", 1))
        assert len(plan.run()) == 1

    def test_project_dedup(self, storage):
        plan = ProjectOp(SeqScan(storage["R"]), ["R.b"], dedup=True)
        assert len(plan.run()) == 2


#: The algebra operator of each physical join type, for oracle trees.
_JOIN_EXPR = {"inner": jn, "left_outer": oj, "semi": sj, "anti": aj}

#: A residual that rejects some key matches: on ``_parity_storage`` a
#: semi join with it stops at the first, second or third match.
_RESIDUAL = gt("R.b", "L.a")

#: The pushed filter of the "filtered" parity cases (which also carry
#: ``_RESIDUAL``); their extra R row (2, NULL) makes it UNKNOWN on a key match.
_FILTER = Comparison("R.b", "<", 6)


def _parity_storage():
    """Probe side L and indexed side R, with duplicate and null keys on both."""
    st = Storage()
    st.create_table(
        "L",
        ["L.k", "L.a"],
        [{"L.k": k, "L.a": a} for k, a in
         [(1, 1), (2, 2), (NULL, 3), (2, 4), (5, 5), (1, 6), (2, 9)]],
    )
    st.create_table(
        "R",
        ["R.k", "R.b"],
        [{"R.k": k, "R.b": b} for k, b in
         [(2, 3), (1, 0), (NULL, 9), (2, 1), (9, 9), (1, 7), (2, 5)]],
    )
    st["R"].create_index("R.k")
    return st


def _join_predicate(residual):
    return eq("L.k", "R.k") & _RESIDUAL if residual else eq("L.k", "R.k")


def _parity_inner(residual):
    return Restrict(Rel("R"), _FILTER) if residual == "filtered" else Rel("R")


def _parity_case(plan, st, join_type, residual, size):
    """Drain ``plan`` at one batch size, check it against the nested-loop
    oracle, and return its Metrics."""
    metrics = Metrics()
    with nullcontext() if size is None else batch_sized(size):
        rows = list(plan.execute(metrics))
    expr = _JOIN_EXPR[join_type](Rel("L"), _parity_inner(residual), _join_predicate(residual))
    oracle = expr.eval(st.to_database(), ops=ORACLE_OPS)
    assert bag_equal(Relation(plan.schema, rows), oracle)
    return metrics


#: Batch sizes every order/accounting test runs at (None: the default).
_SIZES = (1, 2, None)
_over_sizes = pytest.mark.parametrize("size", _SIZES, ids=["b1", "b2", "default"])


def _parametrize_parity(expected):
    """Parametrize a parity test over batch size, residual and join type."""

    def wrap(test):
        cases = [(jt, res, counts) for (jt, res), counts in expected.items()]
        test = pytest.mark.parametrize(
            "join_type,residual,counts", cases,
            ids=[f"{jt}-{res if isinstance(res, str) else 'residual' if res else 'plain'}"
                 for jt, res, _ in cases],
        )(test)
        return _over_sizes(test)

    return wrap


def _pinned_storage():
    """``_parity_storage`` plus the small R/S pair and an empty table E."""
    st = _parity_storage()
    st.create_table("P", ["P.a", "P.b"], [{"P.a": i, "P.b": i % 2} for i in range(4)])
    st.create_table("Q", ["Q.a"], [{"Q.a": 0}, {"Q.a": 1}, {"Q.a": 1}])
    st.create_table("E", ["E.a"], [])
    return st


def _assert_pinned(plan, size, pinned):
    """Drain ``plan`` traced at one batch size and compare it with literals
    recorded from the pair loops each join operator used to own.

    ``pinned`` is ``(rows, evaluations, emitted, counters, batches_out)``:
    the exact output sequence (value tuples in sorted attribute order),
    ``Metrics.predicate_evaluations``, ``Metrics.rows_emitted``, the
    operator's size-independent span counters, and its ``batches_out``
    at batch sizes 1, 2 and the default.
    """
    rows, evaluations, emitted, counters, batches_out = pinned
    metrics = Metrics()
    root = Span("pinned")
    wrapped, undo = trace_plan(plan, root)
    try:
        with nullcontext() if size is None else batch_sized(size):
            got = list(wrapped.execute(metrics))
    finally:
        untrace_plan(undo)
    attrs = sorted(plan.schema.attributes)
    assert [tuple(r[a] for a in attrs) for r in got] == rows
    assert metrics.predicate_evaluations == evaluations
    assert dict(metrics.rows_emitted) == emitted
    expected = dict(counters)
    if batches_out[_SIZES.index(size)]:
        expected["batches_out"] = batches_out[_SIZES.index(size)]
    span = root.children[0].counters
    assert {k: span[k] for k in ("mem_rows", "build_buckets", "batches_out") if k in span} == expected


class TestNestedLoopJoin:
    def test_inner(self, storage):
        plan = NestedLoopJoin(
            SeqScan(storage["R"]), SeqScan(storage["S"]), eq("R.a", "S.a"), "inner"
        )
        out = plan.run()
        assert len(out) == 3  # R.a=0 matches S.a=0; R.a=1 matches two S rows

    def test_left_outer_pads(self, storage):
        plan = NestedLoopJoin(
            SeqScan(storage["R"]), SeqScan(storage["S"]), eq("R.a", "S.a"), "left_outer"
        )
        out = plan.run()
        padded = [r for r in out if r["S.a"] is NULL]
        assert {r["R.a"] for r in padded} == {2, 3}

    def test_semi_and_anti(self, storage):
        p = eq("R.a", "S.a")
        semi = NestedLoopJoin(SeqScan(storage["R"]), SeqScan(storage["S"]), p, "semi").run()
        anti = NestedLoopJoin(SeqScan(storage["R"]), SeqScan(storage["S"]), p, "anti").run()
        assert {r["R.a"] for r in semi} == {0, 1}
        assert {r["R.a"] for r in anti} == {2, 3}
        assert semi.scheme == frozenset({"R.a", "R.b"})

    def test_inner_input_scanned_once(self, storage):
        m = Metrics()
        plan = NestedLoopJoin(
            SeqScan(storage["R"]), SeqScan(storage["S"]), eq("R.a", "S.a"), "inner"
        )
        list(plan.execute(m))
        assert m.tuples_retrieved["S"] == 3  # materialized once, not per outer row

    def test_inequality_predicate(self, storage):
        plan = NestedLoopJoin(
            SeqScan(storage["R"]), SeqScan(storage["S"]), gt("R.a", "S.a"), "inner"
        )
        out = plan.run()
        # pairs with R.a > S.a: R1>S0, R2>S0, R2>S1(x2), R3>S0, R3>S1(x2) = 7
        assert len(out) == 7

    #: (join type, residual?) -> (predicate evaluations, rows emitted), as
    #: the row-at-a-time implementation metered them.  Each input is
    #: retrieved once: 7 rows of L and 7 of R.
    PARITY = {
        ("inner", False): (49, 13),
        ("inner", True): (49, 5),
        ("left_outer", False): (49, 15),
        ("left_outer", True): (49, 8),
        ("semi", False): (21, 5),
        ("semi", True): (41, 4),
        ("anti", False): (49, 2),
        ("anti", True): (49, 3),
    }

    @_parametrize_parity(PARITY)
    def test_parity_with_oracle_and_recorded_metrics(self, join_type, residual, counts, size):
        st = _parity_storage()
        plan = NestedLoopJoin(
            SeqScan(st["L"]), SeqScan(st["R"]), _join_predicate(residual), join_type
        )
        metrics = _parity_case(plan, st, join_type, residual, size)
        evaluations, emitted = counts
        assert dict(metrics.tuples_retrieved) == {"L": 7, "R": 7}
        assert dict(metrics.index_probes) == {}
        assert metrics.predicate_evaluations == evaluations
        assert dict(metrics.rows_emitted) == {f"NLJ[{join_type}]": emitted}

    def test_bad_join_type(self, storage):
        with pytest.raises(PlanningError):
            NestedLoopJoin(SeqScan(storage["R"]), SeqScan(storage["S"]), eq("R.a", "S.a"), "full")

    _TRUE_PAIRS = [
        (0, 0, 0), (0, 0, 1), (0, 0, 1), (1, 1, 0), (1, 1, 1), (1, 1, 1),
        (2, 0, 0), (2, 0, 1), (2, 0, 1), (3, 1, 0), (3, 1, 1), (3, 1, 1),
    ]
    _P_ROWS = [(0, 0), (1, 1), (2, 0), (3, 1)]

    #: (join type, case) -> pinned drain (see ``_assert_pinned``).  Cases:
    #: ``true`` joins P x Q under TRUE, ``empty`` joins P with the empty E,
    #: ``residual`` joins L and R under ``L.k = R.k AND R.b > L.a``.
    PINNED = {
        ("inner", "true"): (_TRUE_PAIRS, 12, {"NLJ[inner]": 12}, {"mem_rows": 3}, (4, 2, 1)),
        ("inner", "empty"): ([], 0, {}, {"mem_rows": 0}, (0, 0, 0)),
        ("inner", "residual"): (
            [(1, 1, 7, 1), (2, 2, 3, 2), (2, 2, 5, 2), (4, 2, 5, 2), (6, 1, 7, 1)],
            49, {"NLJ[inner]": 5}, {"mem_rows": 7}, (4, 3, 1),
        ),
        ("left_outer", "true"): (
            _TRUE_PAIRS, 12, {"NLJ[left_outer]": 12}, {"mem_rows": 3}, (4, 2, 1),
        ),
        ("left_outer", "empty"): (
            [(NULL, 0, 0), (NULL, 1, 1), (NULL, 2, 0), (NULL, 3, 1)],
            0, {"NLJ[left_outer]": 4}, {"mem_rows": 0}, (4, 2, 1),
        ),
        ("left_outer", "residual"): (
            [(1, 1, 7, 1), (2, 2, 3, 2), (2, 2, 5, 2), (3, NULL, NULL, NULL),
             (4, 2, 5, 2), (5, 5, NULL, NULL), (6, 1, 7, 1), (9, 2, NULL, NULL)],
            49, {"NLJ[left_outer]": 8}, {"mem_rows": 7}, (7, 4, 1),
        ),
        ("semi", "true"): (_P_ROWS, 4, {"NLJ[semi]": 4}, {"mem_rows": 3}, (4, 2, 1)),
        ("semi", "empty"): ([], 0, {}, {"mem_rows": 0}, (0, 0, 0)),
        ("semi", "residual"): (
            [(1, 1), (2, 2), (4, 2), (6, 1)], 41, {"NLJ[semi]": 4}, {"mem_rows": 7}, (4, 3, 1),
        ),
        ("anti", "true"): ([], 12, {}, {"mem_rows": 3}, (0, 0, 0)),
        ("anti", "empty"): (_P_ROWS, 0, {"NLJ[anti]": 4}, {"mem_rows": 0}, (4, 2, 1)),
        ("anti", "residual"): (
            [(3, NULL), (5, 5), (9, 2)], 49, {"NLJ[anti]": 3}, {"mem_rows": 7}, (3, 3, 1),
        ),
    }

    @_over_sizes
    @pytest.mark.parametrize("join_type,case", list(PINNED), ids=[f"{jt}-{c}" for jt, c in PINNED])
    def test_pinned_order_and_accounting(self, join_type, case, size):
        st = _pinned_storage()
        if case == "true":
            left, right, predicate = "P", "Q", TruePredicate()
        elif case == "empty":
            left, right, predicate = "P", "E", eq("P.a", "E.a")
        else:
            left, right, predicate = "L", "R", _join_predicate(True)
        plan = NestedLoopJoin(SeqScan(st[left]), SeqScan(st[right]), predicate, join_type)
        _assert_pinned(plan, size, self.PINNED[join_type, case])


class TestIndexNestedLoopJoin:
    #: (join type, residual?) -> (R rows retrieved = predicate evaluations,
    #: rows emitted), as the row-at-a-time implementation metered them.
    #: L is scanned once (7 rows) and every L row probes the index once.
    PARITY = {
        ("inner", False): (13, 13),
        ("inner", True): (13, 5),
        ("left_outer", False): (13, 15),
        ("left_outer", True): (13, 8),
        ("semi", False): (5, 5),
        ("semi", True): (11, 4),
        ("anti", False): (13, 2),
        ("anti", True): (13, 3),
        # A filtered inner σ(R) plans as this join with the filter conjoined
        # into the residual: every key match is examined, one more per k=2.
        ("inner", "filtered"): (16, 3),
        ("left_outer", "filtered"): (16, 8),
        ("semi", "filtered"): (12, 2),
        ("anti", "filtered"): (16, 5),
    }

    @_parametrize_parity(PARITY)
    def test_parity_with_oracle_and_recorded_metrics(self, join_type, residual, counts, size):
        st = _parity_storage()
        if residual == "filtered":
            st["R"].insert(Row({"R.k": 2, "R.b": NULL}))
            inner, predicate = _parity_inner(residual), _join_predicate(residual)
            plan = Planner(st).plan(_JOIN_EXPR[join_type](Rel("L"), inner, predicate))
            assert isinstance(plan, IndexNestedLoopJoin)
            if join_type == "left_outer":
                swapped = Planner(st).plan(RightOuterJoin(inner, Rel("L"), predicate))
                assert swapped.describe() == plan.describe()
        else:
            plan = IndexNestedLoopJoin(
                SeqScan(st["L"]),
                st["R"],
                st["R"].index_on("R.k"),
                "L.k",
                residual=_RESIDUAL if residual else None,
                join_type=join_type,
            )
        metrics = _parity_case(plan, st, join_type, residual, size)
        examined, emitted = counts
        assert dict(metrics.tuples_retrieved) == {"L": 7, "R": examined}
        assert dict(metrics.index_probes) == {"R(R.k)": 7}
        assert metrics.predicate_evaluations == examined
        assert dict(metrics.rows_emitted) == {f"INLJ[{join_type}]": emitted}

    def test_counts_only_fetched_tuples(self, storage):
        m = Metrics()
        plan = IndexNestedLoopJoin(
            SeqScan(storage["R"]),
            storage["S"],
            storage["S"].index_on("S.a"),
            "R.a",
            join_type="inner",
        )
        out = list(plan.execute(m))
        assert len(out) == 3
        assert m.tuples_retrieved["S"] == 3  # only matching entries fetched
        assert m.tuples_retrieved["R"] == 4
        assert m.index_probes["S(S.a)"] == 4

    def test_left_outer(self, storage):
        plan = IndexNestedLoopJoin(
            SeqScan(storage["R"]),
            storage["S"],
            storage["S"].index_on("S.a"),
            "R.a",
            join_type="left_outer",
        )
        out = plan.run()
        assert len(out) == 5  # 3 matches + 2 padded

    def test_anti(self, storage):
        plan = IndexNestedLoopJoin(
            SeqScan(storage["R"]),
            storage["S"],
            storage["S"].index_on("S.a"),
            "R.a",
            join_type="anti",
        )
        assert {r["R.a"] for r in plan.run()} == {2, 3}

    def test_residual_predicate(self, storage):
        plan = IndexNestedLoopJoin(
            SeqScan(storage["R"]),
            storage["S"],
            storage["S"].index_on("S.a"),
            "R.a",
            residual=Comparison("R.b", "=", 1),
            join_type="inner",
        )
        out = plan.run()
        assert all(r["R.b"] == 1 for r in out)


class TestHashJoin:
    def test_inner_matches_nlj(self, storage):
        p = eq("R.a", "S.a")
        nlj = NestedLoopJoin(SeqScan(storage["R"]), SeqScan(storage["S"]), p, "inner").run()
        hj = HashJoin(
            SeqScan(storage["R"]), SeqScan(storage["S"]), "R.a", "S.a", join_type="inner"
        ).run()
        assert nlj == hj

    def test_left_outer_matches_nlj(self, storage):
        p = eq("R.a", "S.a")
        nlj = NestedLoopJoin(
            SeqScan(storage["R"]), SeqScan(storage["S"]), p, "left_outer"
        ).run()
        hj = HashJoin(
            SeqScan(storage["R"]), SeqScan(storage["S"]), "R.a", "S.a",
            join_type="left_outer",
        ).run()
        assert nlj == hj

    def test_null_keys_never_match(self):
        st = Storage()
        st.create_table("A", ["A.k"], [{"A.k": NULL}])
        st.create_table("B", ["B.k"], [{"B.k": NULL}])
        hj = HashJoin(SeqScan(st["A"]), SeqScan(st["B"]), "A.k", "B.k", join_type="inner")
        assert len(hj.run()) == 0
        loj = HashJoin(
            SeqScan(st["A"]), SeqScan(st["B"]), "A.k", "B.k", join_type="left_outer"
        )
        assert len(loj.run()) == 1  # padded

    def test_semi_anti(self, storage):
        semi = HashJoin(
            SeqScan(storage["R"]), SeqScan(storage["S"]), "R.a", "S.a", join_type="semi"
        ).run()
        anti = HashJoin(
            SeqScan(storage["R"]), SeqScan(storage["S"]), "R.a", "S.a", join_type="anti"
        ).run()
        assert len(semi) + len(anti) == 4

    def test_describe_renders_plan_tree(self, storage):
        plan = HashJoin(
            SeqScan(storage["R"]), SeqScan(storage["S"]), "R.a", "S.a", join_type="inner"
        )
        text = plan.describe()
        assert "HashJoin" in text and "SeqScan(R)" in text

    #: residual? -> pinned drain of ``HashJoin[left_outer]`` over L and R
    #: (null keys on both sides; see ``_assert_pinned``).
    PINNED_LEFT_OUTER = {
        False: (
            [(1, 1, 0, 1), (1, 1, 7, 1), (2, 2, 3, 2), (2, 2, 1, 2), (2, 2, 5, 2),
             (3, NULL, NULL, NULL), (4, 2, 3, 2), (4, 2, 1, 2), (4, 2, 5, 2),
             (5, 5, NULL, NULL), (6, 1, 0, 1), (6, 1, 7, 1), (9, 2, 3, 2),
             (9, 2, 1, 2), (9, 2, 5, 2)],
            13, {"HashJoin[left_outer]": 15}, {"mem_rows": 6, "build_buckets": 3}, (7, 4, 1),
        ),
        True: (
            [(1, 1, 7, 1), (2, 2, 3, 2), (2, 2, 5, 2), (3, NULL, NULL, NULL),
             (4, 2, 5, 2), (5, 5, NULL, NULL), (6, 1, 7, 1), (9, 2, NULL, NULL)],
            13, {"HashJoin[left_outer]": 8}, {"mem_rows": 6, "build_buckets": 3}, (7, 4, 1),
        ),
    }

    @_over_sizes
    @pytest.mark.parametrize("residual", [False, True], ids=["plain", "residual"])
    def test_left_outer_pinned_order_and_accounting(self, residual, size):
        st = _parity_storage()
        plan = HashJoin(
            SeqScan(st["L"]), SeqScan(st["R"]), "L.k", "R.k",
            residual=_RESIDUAL if residual else None, join_type="left_outer",
        )
        _assert_pinned(plan, size, self.PINNED_LEFT_OUTER[residual])


class TestGeneralizedOuterJoin:
    #: residual? -> pinned drain of GOJ[S={L.k}] over L and R: the join
    #: pairs in probe order, then the witnesses of unmatched projections.
    PINNED = {
        False: (
            [(1, 1, 0, 1), (1, 1, 7, 1), (2, 2, 3, 2), (2, 2, 1, 2), (2, 2, 5, 2),
             (4, 2, 3, 2), (4, 2, 1, 2), (4, 2, 5, 2), (6, 1, 0, 1), (6, 1, 7, 1),
             (9, 2, 3, 2), (9, 2, 1, 2), (9, 2, 5, 2), (NULL, 5, NULL, NULL),
             (NULL, NULL, NULL, NULL)],
            13, {"GOJ": 15}, {"mem_rows": 6, "build_buckets": 3}, (6, 5, 2),
        ),
        True: (
            [(1, 1, 7, 1), (2, 2, 3, 2), (2, 2, 5, 2), (4, 2, 5, 2), (6, 1, 7, 1),
             (NULL, 5, NULL, NULL), (NULL, NULL, NULL, NULL)],
            13, {"GOJ": 7}, {"mem_rows": 6, "build_buckets": 3}, (5, 4, 2),
        ),
    }

    @_over_sizes
    @pytest.mark.parametrize("residual", [False, True], ids=["plain", "residual"])
    def test_pinned_order_and_accounting(self, residual, size):
        st = _parity_storage()
        plan = GeneralizedOuterJoinOp(
            SeqScan(st["L"]), SeqScan(st["R"]), "L.k", "R.k", ["L.k"],
            residual=_RESIDUAL if residual else None,
        )
        _assert_pinned(plan, size, self.PINNED[residual])


class _CountingToken(CancelToken):
    """A token that never fires and counts how often it is polled."""

    __slots__ = ("checks",)

    def __init__(self):
        super().__init__()
        self.checks = 0

    def check(self) -> None:
        self.checks += 1
        super().check()


def test_scan_batches_poll_the_cancel_token():
    """A hash join with no common key emits nothing until the end, so the
    root drain cannot see a deadline; every scan batch must poll it."""
    n = 5000
    st = Storage()
    st.create_table("A", ["A.k"], [{"A.k": i} for i in range(n)])
    st.create_table("B", ["B.k"], [{"B.k": -1 - i} for i in range(n)])
    token = _CountingToken()
    result = execute(jn(Rel("A"), Rel("B"), eq("A.k", "B.k")), st, cancel=token)
    assert len(result.relation) == 0
    assert token.checks >= 2 * n // batch_size()


class _CancelOnFirstBatch(PhysicalOp):
    """A root that drains its child up front, then hands the batches over
    one per pull, firing ``token`` as it hands over the first.  The child
    is done before the cancel, so only the consumer can see it.  Records
    how many batches were pulled and whether the stream was closed."""

    def __init__(self, child: PhysicalOp, token: CancelToken):
        self.child = child
        self.token = token
        self.schema = child.schema
        self.pulled = 0
        self.closed = False

    def execute_batches(self, metrics):
        batches = list(self.child.execute_batches(metrics))
        try:
            for batch in batches:
                self.pulled += 1
                self.token.cancel()
                yield batch
        finally:
            self.closed = True

    def describe(self, indent: int = 0) -> str:
        return " " * indent + "CancelOnFirstBatch"


def test_root_batches_poll_the_cancel_token():
    """A cancel that fires mid-result at the root is seen right after that
    batch: the drain stops, closes the plan and returns no relation."""
    st = Storage()
    st.create_table("A", ["A.k"], [{"A.k": i % 3} for i in range(10)])
    token = CancelToken()
    with batch_sized(2):
        plan = _CancelOnFirstBatch(Planner(st).plan(Rel("A")), token)
        with pytest.raises(QueryCancelledError) as raised:
            execute_plan(plan, cancel=token)
        assert plan.pulled == 1
        # Closed by the drain itself: ``raised`` still holds the traceback,
        # whose frames would otherwise keep the stream open.
        assert plan.closed and raised.traceback
        # Without the cancel the same plan yields the whole result.
        whole = _CancelOnFirstBatch(Planner(st).plan(Rel("A")), CancelToken())
        assert len(execute_plan(whole).relation) == 10
        assert whole.pulled == 5


def _materializer_storage():
    """L and R with NULLs in key and non-key columns, duplicates several
    rows apart (so they straddle batch boundaries at sizes 1 and 2), and
    ``1``/``1.0``/``True`` in one column; triangle tables R1-R3 for a
    Leapfrog plan with the same mix."""
    st = Storage()
    st.create_table(
        "L",
        ["L.k", "L.v"],
        [{"L.k": k, "L.v": v} for k, v in
         [(1, "a"), (2, NULL), (1.0, "a"), (NULL, "b"), (True, "a"), (2, NULL),
          (3, 1), (NULL, "b"), (2, NULL), (3, 1.0), (3, True), (4, "c"), (1, "a")]],
    )
    st.create_table(
        "R",
        ["R.k", "R.w"],
        [{"R.k": k, "R.w": w} for k, w in
         [(1, "x"), (True, NULL), (2, "y"), (NULL, "z"), (2, "y"), (1.0, "x"), (5, NULL)]],
    )
    pairs = [(1, 2), (2, 1), (1.0, 2), (True, 1), (2, 2), (NULL, 1), (1, 2), (2, True)]
    for name in ("R1", "R2", "R3"):
        st.create_table(
            name, [f"{name}.a", f"{name}.b"],
            [{f"{name}.a": a, f"{name}.b": b} for a, b in pairs],
        )
    return st


def _materializer_plans(st):
    """Name -> physical plan covering every root the executor drains."""
    small_k = Comparison("L.k", "<", 4)

    def scan(name):
        return SeqScan(st[name])

    plans = {
        f"hash-{jt}": HashJoin(Filter(scan("L"), small_k), scan("R"), "L.k", "R.k",
                                join_type=jt)
        for jt in ("inner", "left_outer", "full_outer", "semi", "anti")
    }
    plans["filter"] = Filter(scan("L"), small_k)
    plans["project-none"] = ProjectOp(Filter(scan("L"), small_k), [])
    plans["padded-union"] = PaddedUnion(Filter(scan("L"), small_k), scan("R"))
    plans["goj"] = GeneralizedOuterJoinOp(scan("L"), scan("R"), "L.k", "R.k", ["L.k"])
    scenario = triangle()
    spec = wcoj_spec_of(scenario.graph, scenario.registry)
    plans["leapfrog"] = build_wcoj_plan(spec, st, {"R1": [Comparison("R1.b", "<", 3)]})
    return plans


def _items(relation):
    """The bag's (repr(row), count) pairs in iteration order: equal only if
    the representatives (``1`` vs ``1.0`` vs ``True``) and the order agree."""
    return [(repr(row), n) for row, n in relation.counts().items()]


class TestResultMaterialization:
    """The executor's batch materializer builds exactly the bag that
    ``Relation(schema, rows)`` builds over the flattened root rows."""

    PLANS = sorted(_materializer_plans(_materializer_storage()))

    @pytest.mark.parametrize("size", [1, 2, 1024])
    @pytest.mark.parametrize("name", PLANS)
    def test_bag_and_order_match_the_row_drain(self, name, size):
        st = _materializer_storage()
        plan = _materializer_plans(st)[name]
        with batch_sized(size):
            got = execute_plan(plan).relation
            expected = Relation(plan.schema, plan.execute(Metrics()))
        assert got == expected
        assert _items(got) == _items(expected)
        assert got.schema == plan.schema
        assert not got.is_empty()

    def test_inputs_exercise_duplicates_selections_and_merged_keys(self):
        st = _materializer_storage()
        with batch_sized(2):
            plan = _materializer_plans(st)["filter"]
            assert any(b.selection is not None for b in plan.execute_batches(Metrics()))
            got = execute_plan(plan).relation
        assert got == Restrict(Rel("L"), Comparison("L.k", "<", 4)).eval(
            st.to_database(), ops=ORACLE_OPS
        )
        # 1, 1.0, True and 1 again are one row, represented by the first.
        assert _items(got)[0] == (repr(Row({"L.k": 1, "L.v": "a"})), 4)
        assert got.multiplicity(Row({"L.k": 2, "L.v": NULL})) == 3
        assert got.multiplicity(Row({"L.k": 3, "L.v": True})) == 3

    @pytest.mark.parametrize("size", [1, 2, 1024])
    def test_a_duplicate_first_seen_in_an_earlier_batch(self, size):
        """``(1, 'a')`` leads the scan; ``1.0``, ``True`` and ``1`` again
        follow in later batches at sizes 1 and 2.  The bag keeps the
        first representative with the summed count, like the row drain."""
        st = _materializer_storage()
        plan = _materializer_plans(st)["filter"]
        with batch_sized(size):
            batches = list(plan.execute_batches(Metrics()))
            got = execute_plan(plan).relation
            expected = Relation(plan.schema, plan.execute(Metrics()))
        assert (len(batches) > 1) is (size < 1024)
        assert _items(got) == _items(expected)
        assert _items(got)[0] == ("Row(L.k=1, L.v='a')", 4)

    def test_one_interned_layout_for_table_rows_results_and_scans(self):
        st = _materializer_storage()
        table = st["L"]
        layout = layout_of(("L.k", "L.v"))
        assert all(row._layout is layout for row in table.rows)
        assert row_of(layout, (1, "a")) == Row({"L.v": "a", "L.k": 1})
        rows = execute_plan(_materializer_plans(st)["filter"]).relation.distinct_rows()
        assert all(row._layout is layout for row in rows)
        batch = ColumnBatch.from_rows(table.schema, table.rows)
        assert batch.columns == {a: [row[a] for row in table.rows] for a in layout.attrs}
        wider = [row.concat(Row({"X.z": i})) for i, row in enumerate(table.rows)]
        assert ColumnBatch.from_rows(layout.attrs, wider).columns == batch.columns

    def test_rows_hash_and_compare_like_constructed_rows(self):
        st = _materializer_storage()
        for plan in _materializer_plans(st).values():
            for row in execute_plan(plan).relation.distinct_rows():
                rebuilt = Row(dict(row))
                assert hash(row) == hash(rebuilt)
                assert row == rebuilt

    def test_a_batch_on_the_wrong_scheme_raises(self):
        class WrongScheme(PhysicalOp):
            schema = Schema(["T.a"])

            def execute_batches(self, metrics):
                yield ColumnBatch(("T.b",), {"T.b": [1]}, 1)

            def describe(self, indent: int = 0) -> str:
                return " " * indent + "WrongScheme"

        with pytest.raises(SchemaError):
            execute_plan(WrongScheme())
