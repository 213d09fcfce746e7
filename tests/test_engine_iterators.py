"""Tests for physical operators: semantics and retrieval accounting."""

from contextlib import nullcontext

import pytest

from repro.algebra import NULL, Comparison, eq, gt
from repro.algebra.comparison import bag_equal
from repro.algebra.operators import ORACLE_OPS
from repro.algebra.relation import Relation
from repro.core.expressions import Rel, aj, jn, oj, sj
from repro.engine import (
    Filter,
    HashJoin,
    IndexNestedLoopJoin,
    Metrics,
    NestedLoopJoin,
    ProjectOp,
    SeqScan,
    Storage,
    execute,
)
from repro.util.cancel import CancelToken
from repro.util.errors import PlanningError
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


def _parity_case(plan, st, join_type, residual, size):
    """Drain ``plan`` at one batch size, check it against the nested-loop
    oracle, and return its Metrics."""
    metrics = Metrics()
    with nullcontext() if size is None else batch_sized(size):
        rows = list(plan.execute(metrics))
    expr = _JOIN_EXPR[join_type](Rel("L"), Rel("R"), _join_predicate(residual))
    oracle = expr.eval(st.to_database(), ops=ORACLE_OPS)
    assert bag_equal(Relation(plan.schema, rows), oracle)
    return metrics


def _parametrize_parity(expected):
    """Parametrize a parity test over batch size, residual and join type."""

    def wrap(test):
        cases = [(jt, res, counts) for (jt, res), counts in expected.items()]
        test = pytest.mark.parametrize(
            "join_type,residual,counts", cases,
            ids=[f"{jt}-{'residual' if res else 'plain'}" for jt, res, _ in cases],
        )(test)
        return pytest.mark.parametrize("size", [1, 2, None], ids=["b1", "b2", "default"])(test)

    return wrap


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
    }

    @_parametrize_parity(PARITY)
    def test_parity_with_oracle_and_recorded_metrics(self, join_type, residual, counts, size):
        st = _parity_storage()
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
