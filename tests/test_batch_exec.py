"""Boundary and parity tests for the vectorized columnar batch layer.

Covers the edges the fuzzer is unlikely to pin down deterministically:
empty batches, ``batch_size=1`` chunking, all-null key columns, zero-row
selections, and the full-outer batch joiner against the algebra kernel.
"""

from collections import Counter

import pytest

from repro.algebra.comparison import bag_equal
from repro.algebra.kernels import hash_counts
from repro.algebra.nulls import NULL
from repro.algebra.operators import ORACLE_OPS
from repro.algebra.predicates import Comparison, Const, eq, gt
from repro.algebra.relation import Relation
from repro.algebra.tuples import Row
from repro.core.expressions import Project, Rel, Restrict, aj, foj, jn, oj, sj
from repro.engine.batch import (
    BatchHashJoiner,
    BuildSide,
    ColumnBatch,
    batches_from_rows,
    compile_filter,
    rows_from_batches,
)
from repro.engine.batch.kernels import _vector_pass
from repro.engine.iterators import (
    Filter,
    HashJoin,
    IndexNestedLoopJoin,
    ProjectOp,
    SeqScan,
)
from repro.engine.metrics import Metrics
from repro.engine.planner import Planner, split_equijoin
from repro.engine.storage import Storage
from repro.util.errors import PredicateError, SchemaError
from repro.util.fastpath import batch_sized

#: The algebra operator of each physical join type, for oracle trees.
_JOIN_EXPR = {"inner": jn, "left_outer": oj, "semi": sj, "anti": aj}


#: (key, value) rows of the probe side L and the build side R.
_L_ROWS = [(1, 10), (2, 20), (NULL, 30), (2, 40), (5, 50)]
_R_ROWS = [(2, 200), (1, 100), (NULL, 300), (2, 400), (9, 900)]


def _storage(r_rows=_R_ROWS):
    """Two small joinable tables with null keys sprinkled on both sides."""
    storage = Storage()
    storage.create_table("L", ["L.k", "L.a"], [{"L.k": k, "L.a": a} for k, a in _L_ROWS])
    storage.create_table("R", ["R.k", "R.b"], [{"R.k": k, "R.b": b} for k, b in r_rows])
    return storage


def _join_plan(storage, join_type, residual=None):
    return HashJoin(
        SeqScan(storage["L"]),
        SeqScan(storage["R"]),
        "L.k",
        "R.k",
        residual=residual,
        join_type=join_type,
    )


class TestColumnBatchBoundaries:
    def test_empty_batch_roundtrip(self):
        batch = ColumnBatch.empty(["x", "y"])
        assert batch.num_rows == 0
        assert batch.is_empty()
        assert batch.to_rows() == []
        assert list(batch.indices()) == []

    def test_batches_from_rows_empty_stream(self):
        assert list(batches_from_rows([], ["x"], 4)) == []

    def test_zero_row_selection_is_empty_but_physical(self):
        batch = ColumnBatch.from_rows(["x"], [Row({"x": 1}), Row({"x": 2})])
        narrowed = batch.with_selection([])
        assert narrowed.num_rows == 0
        assert narrowed.length == 2  # zero copy: physical rows untouched
        assert narrowed.to_rows() == []
        assert narrowed.compact().num_rows == 0

    def test_null_mask_matches_values_and_caches(self):
        batch = ColumnBatch.from_rows(
            ["x"], [Row({"x": 1}), Row({"x": NULL}), Row({"x": 3})]
        )
        mask = batch.null_mask("x")
        assert mask == [False, True, False]
        assert batch.null_mask("x") is mask  # cached

    def test_project_missing_attribute_raises(self):
        batch = ColumnBatch.from_rows(["x"], [Row({"x": 1})])
        with pytest.raises(SchemaError):
            batch.project(["x", "y"])

    def test_column_length_mismatch_raises(self):
        with pytest.raises(SchemaError):
            ColumnBatch(("x", "y"), {"x": [1, 2], "y": [1]}, 2)

    def test_rows_from_batches_respects_selection_order(self):
        batch = ColumnBatch.from_rows(
            ["x"], [Row({"x": i}) for i in range(5)]
        ).with_selection([1, 3, 4])
        assert [r["x"] for r in rows_from_batches([batch])] == [1, 3, 4]


def _drain(plan, size):
    """(rows, metrics) of ``plan.execute`` at one batch size."""
    metrics = Metrics()
    with batch_sized(size):
        return list(plan.execute(metrics)), metrics


class TestBatchSizeBoundaries:
    """The reference row path is ``execute()`` at the default size 1024.

    Every chunk size must replay its row sequence and ``Metrics``
    exactly, and the rows must be bag-equal to the algebra evaluator.
    """

    @pytest.mark.parametrize("size", [1, 2, 3, 1024])
    @pytest.mark.parametrize("join_type", ["inner", "left_outer", "semi", "anti"])
    def test_every_chunking_matches_row_path_exactly(self, size, join_type):
        storage = _storage()
        plan = ProjectOp(
            Filter(_join_plan(storage, join_type), gt("L.a", Const(5))),
            ["L.a", "L.k"],
            dedup=True,
        )
        expected, reference = _drain(plan, 1024)
        got, metrics = _drain(plan, size)
        assert got == expected  # same rows, same order
        assert metrics.tuples_retrieved == reference.tuples_retrieved
        assert metrics.predicate_evaluations == reference.predicate_evaluations
        assert metrics.rows_emitted == reference.rows_emitted
        join = _JOIN_EXPR[join_type](Rel("L"), Rel("R"), eq("L.k", "R.k"))
        query = Project(Restrict(join, gt("L.a", Const(5))), ["L.a", "L.k"], dedup=True)
        oracle = query.eval(storage.to_database())
        assert bag_equal(Relation(plan.schema, got), oracle)

    def test_residual_join_matches_row_path_at_size_one(self):
        storage = _storage()
        plan = _join_plan(storage, "inner", residual=gt("R.b", "L.a"))
        expected, _ = _drain(plan, 1024)
        got, _ = _drain(plan, 1)
        assert got == expected
        query = jn(Rel("L"), Rel("R"), eq("L.k", "R.k") & gt("R.b", "L.a"))
        assert bag_equal(Relation(plan.schema, got), query.eval(storage.to_database()))


class TestAllNullKeys:
    def _null_key_rows(self, n=3):
        return [Row({"R.k": NULL, "R.b": i}) for i in range(n)]

    def test_build_side_never_buckets_null_keys(self):
        build = BuildSide("R.k", ("R.b", "R.k"))
        build.add_batch(ColumnBatch.from_rows(("R.b", "R.k"), self._null_key_rows()))
        assert build.rows == 3
        assert build.buckets == {}
        assert build.bucketed_rows == 0
        assert build.null_indices == [0, 1, 2]

    def test_inner_probe_with_all_null_keys_emits_nothing(self):
        build = BuildSide("R.k", ("R.b", "R.k"))
        build.add_batch(ColumnBatch.from_rows(("R.b", "R.k"), self._null_key_rows()))
        joiner = BatchHashJoiner(build, "L.k", "inner", None, Metrics(), "HashJoin[inner]")
        probe = ColumnBatch.from_rows(
            ("L.a", "L.k"), [Row({"L.k": NULL, "L.a": 1}), Row({"L.k": 7, "L.a": 2})]
        )
        assert joiner.probe(probe) is None

    def test_left_outer_all_null_keys_pads_every_probe_row(self):
        build = BuildSide("R.k", ("R.b", "R.k"))
        build.add_batch(ColumnBatch.from_rows(("R.b", "R.k"), self._null_key_rows()))
        joiner = BatchHashJoiner(
            build, "L.k", "left_outer", None, Metrics(), "HashJoin[left_outer]"
        )
        probe = ColumnBatch.from_rows(
            ("L.a", "L.k"), [Row({"L.k": 1, "L.a": 1}), Row({"L.k": NULL, "L.a": 2})]
        )
        out = joiner.probe(probe)
        rows = out.to_rows()
        assert [r["L.a"] for r in rows] == [1, 2]
        assert all(r["R.b"] is NULL and r["R.k"] is NULL for r in rows)

    def test_full_outer_all_null_keys_pads_both_sides(self):
        build = BuildSide("R.k", ("R.b", "R.k"))
        build.add_batch(ColumnBatch.from_rows(("R.b", "R.k"), self._null_key_rows(2)))
        joiner = BatchHashJoiner(
            build, "L.k", "full_outer", None, Metrics(), "HashJoin[full_outer]"
        )
        probe = ColumnBatch.from_rows(("L.a", "L.k"), [Row({"L.k": NULL, "L.a": 1})])
        out = joiner.probe(probe)
        assert out.num_rows == 1  # the probe row, right-padded
        tail = joiner.finish(("L.a", "L.k"))
        rows = tail.to_rows()
        assert len(rows) == 2  # every null-keyed build row, left-padded
        assert all(r["L.a"] is NULL and r["L.k"] is NULL for r in rows)
        assert sorted(r["R.b"] for r in rows) == [0, 1]


class TestFullOuterJoinerParity:
    @pytest.mark.parametrize("size", [1, 2, 1024])
    def test_bag_matches_algebra_kernel(self, size):
        storage = _storage()
        left_rows = storage["L"].rows
        right_rows = storage["R"].rows
        expected = hash_counts(
            Relation(["L.k", "L.a"], left_rows),
            Relation(["R.k", "R.b"], right_rows),
            eq("L.k", "R.k"),
            "full_outer",
        )
        build = BuildSide("R.k", ("R.b", "R.k"))
        for batch in batches_from_rows(right_rows, ("R.b", "R.k"), size):
            build.add_batch(batch)
        joiner = BatchHashJoiner(
            build, "L.k", "full_outer", None, Metrics(), "HashJoin[full_outer]"
        )
        got = []
        for batch in batches_from_rows(left_rows, ("L.a", "L.k"), size):
            out = joiner.probe(batch)
            if out is not None:
                got.extend(out.to_rows())
        tail = joiner.finish(("L.a", "L.k"))
        if tail is not None:
            got.extend(tail.to_rows())
        assert Counter(got) == expected

    @pytest.mark.parametrize("size", [1, 2, 1024])
    @pytest.mark.parametrize(
        "key, predicate",
        [("L.k", eq("L.k", "R.k")), (None, gt("L.k", "R.k"))],
        ids=["hash", "nested_loop"],
    )
    def test_planned_operator_matches_oracle(self, key, predicate, size):
        storage = _storage()
        query = foj("L", "R", predicate)
        plan = Planner(storage).plan(query)
        assert type(plan) is HashJoin and plan.join_type == "full_outer"
        assert plan.left_key == key
        with batch_sized(size):
            got = plan.run()
        assert bag_equal(got, query.eval(storage.to_database(), ops=ORACLE_OPS))


#: The algebra operator of every physical join type, for the matrix oracle.
_MATRIX_EXPR = {**_JOIN_EXPR, "full_outer": foj}

#: A residual over both sides that rejects R's first k=2 row, so a semi
#: join examines two rows of that key before it stops.
_MATRIX_RESIDUAL = gt("R.b", "L.a") & gt("R.b", Const(250))

#: The inner sides of the matrix: R in full, R empty (every pad has no
#: build row), and R read up to ordinal 3 although it holds 5 rows.
_INNERS = {"full": (_R_ROWS, None), "empty": ([], None), "prefix": (_R_ROWS, 3)}


def _matrix_plan(storage, operator, join_type, predicate, n):
    """The join of L with R under ``predicate`` as one physical operator."""
    left = SeqScan(storage["L"])
    if operator == "keyless":
        return HashJoin(left, SeqScan(storage["R"], n), None, None, predicate, join_type)
    left_key, right_key, residual = split_equijoin(predicate, left.schema, storage["R"].schema)
    if operator == "index":
        index = storage["R"].index_on(right_key)
        return IndexNestedLoopJoin(left, storage["R"], index, left_key, residual, join_type, n)
    return HashJoin(left, SeqScan(storage["R"], n), left_key, right_key, residual, join_type)


class TestJoinVariantMatrix:
    """Every join that probes through :class:`BatchHashJoiner` — the index
    nested-loop join, the keyed hash join and the keyless hash join — over
    every variant it serves, with and without a residual, against null
    probe keys, an empty inner side and an index join that reads a prefix
    of its table.  Each result is bag-equal to the nested-loop oracle, and
    the counters equal the literals recorded from the loops these joins
    ran before they shared one.
    """

    #: (operator, join type, inner) -> ((predicate evaluations, R rows
    #: retrieved) without a residual, the same with one).  L is always
    #: scanned once (5 rows); an index join probes its index once per L row.
    MATRIX = {
        ("index", "inner", "full"): ((5, 5), (5, 5)),
        ("index", "inner", "empty"): ((0, 0), (0, 0)),
        ("index", "inner", "prefix"): ((3, 3), (3, 3)),
        ("index", "left_outer", "full"): ((5, 5), (5, 5)),
        ("index", "left_outer", "empty"): ((0, 0), (0, 0)),
        ("index", "left_outer", "prefix"): ((3, 3), (3, 3)),
        ("index", "semi", "full"): ((3, 3), (5, 5)),
        ("index", "semi", "empty"): ((0, 0), (0, 0)),
        ("index", "semi", "prefix"): ((3, 3), (3, 3)),
        ("index", "anti", "full"): ((5, 5), (5, 5)),
        ("index", "anti", "empty"): ((0, 0), (0, 0)),
        ("index", "anti", "prefix"): ((3, 3), (3, 3)),
        ("hash", "inner", "full"): ((5, 5), (5, 5)),
        ("hash", "inner", "empty"): ((0, 0), (0, 0)),
        ("hash", "inner", "prefix"): ((3, 3), (3, 3)),
        ("hash", "left_outer", "full"): ((5, 5), (5, 5)),
        ("hash", "left_outer", "empty"): ((0, 0), (0, 0)),
        ("hash", "left_outer", "prefix"): ((3, 3), (3, 3)),
        ("hash", "semi", "full"): ((3, 5), (5, 5)),
        ("hash", "semi", "empty"): ((0, 0), (0, 0)),
        ("hash", "semi", "prefix"): ((3, 3), (3, 3)),
        ("hash", "anti", "full"): ((5, 5), (5, 5)),
        ("hash", "anti", "empty"): ((0, 0), (0, 0)),
        ("hash", "anti", "prefix"): ((3, 3), (3, 3)),
        ("hash", "full_outer", "full"): ((5, 5), (5, 5)),
        ("hash", "full_outer", "empty"): ((0, 0), (0, 0)),
        ("hash", "full_outer", "prefix"): ((3, 3), (3, 3)),
        ("keyless", "inner", "full"): ((25, 5), (25, 5)),
        ("keyless", "inner", "empty"): ((0, 0), (0, 0)),
        ("keyless", "inner", "prefix"): ((15, 3), (15, 3)),
        ("keyless", "left_outer", "full"): ((25, 5), (25, 5)),
        ("keyless", "left_outer", "empty"): ((0, 0), (0, 0)),
        ("keyless", "left_outer", "prefix"): ((15, 3), (15, 3)),
        ("keyless", "semi", "full"): ((14, 5), (23, 5)),
        ("keyless", "semi", "empty"): ((0, 0), (0, 0)),
        ("keyless", "semi", "prefix"): ((10, 3), (15, 3)),
        ("keyless", "anti", "full"): ((25, 5), (25, 5)),
        ("keyless", "anti", "empty"): ((0, 0), (0, 0)),
        ("keyless", "anti", "prefix"): ((15, 3), (15, 3)),
        ("keyless", "full_outer", "full"): ((25, 5), (25, 5)),
        ("keyless", "full_outer", "empty"): ((0, 0), (0, 0)),
        ("keyless", "full_outer", "prefix"): ((15, 3), (15, 3)),
    }

    @pytest.mark.parametrize("size", [2, 1024])
    @pytest.mark.parametrize("residual", [False, True], ids=["plain", "residual"])
    @pytest.mark.parametrize("operator, join_type, inner", list(MATRIX), ids="-".join)
    def test_matches_oracle_and_recorded_counters(
        self, operator, join_type, inner, residual, size
    ):
        rows, n = _INNERS[inner]
        storage = _storage(rows)
        storage["R"].create_index("R.k")
        predicate = eq("L.k", "R.k") & _MATRIX_RESIDUAL if residual else eq("L.k", "R.k")
        plan = _matrix_plan(storage, operator, join_type, predicate, n)
        metrics = Metrics()
        with batch_sized(size):
            got = Relation(plan.schema, list(plan.execute(metrics)))
        oracle_rows = rows if n is None else rows[:n]
        expr = _MATRIX_EXPR[join_type](Rel("L"), Rel("R"), predicate)
        oracle = expr.eval(_storage(oracle_rows).to_database(), ops=ORACLE_OPS)
        assert bag_equal(got, oracle)
        evaluations, retrieved = self.MATRIX[operator, join_type, inner][residual]
        assert metrics.predicate_evaluations == evaluations
        assert metrics.tuples_retrieved == Counter({"L": 5, "R": retrieved})
        probes = {"R(R.k)": 5} if operator == "index" else {}
        assert dict(metrics.index_probes) == probes


class TestFilterKernel:
    def test_simple_conjuncts_vectorize(self):
        predicate = gt("L.a", Const(5))
        assert _vector_pass(predicate) is not None  # a per-column loop
        assert len(compile_filter(predicate).passes) == 1

    def test_zero_row_result_drops_batches_downstream(self):
        storage = _storage()
        plan = Filter(SeqScan(storage["L"]), gt("L.a", Const(10**9)))
        with batch_sized(2):
            assert list(plan.execute_batches(Metrics())) == []

    def test_type_error_matches_row_path_error(self):
        """A vectorized comparison's TypeError surfaces as the algebra
        evaluator's :class:`PredicateError`, message included."""
        storage = _storage()
        predicate = Comparison("L.a", "<", Const("not-a-number"))
        plan = Filter(SeqScan(storage["L"]), predicate)
        with pytest.raises(PredicateError) as algebra_err:
            Restrict(Rel("L"), predicate).eval(storage.to_database())
        with batch_sized(2), pytest.raises(PredicateError) as batch_err:
            list(plan.execute(Metrics()))
        assert str(batch_err.value) == str(algebra_err.value)

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    @pytest.mark.parametrize(
        "left, right",
        [("x", "y"), ("x", Const(1)), (Const(1), "y")],
        ids=["attr-attr", "attr-const", "const-attr"],
    )
    def test_comparison_passes_agree_with_the_scalar_evaluator(self, op, left, right):
        """The ``operator`` comparators keep ``Comparison.evaluate``'s
        semantics, over a whole batch and over a narrowed selection: NULL
        on either side never satisfies, and ``1``, ``1.0`` and ``True``
        are equal."""
        xs = [1, NULL, 2, NULL, 1.0, True, 0, 3]
        ys = [1, 1, NULL, NULL, 1, 1, 1, 2]
        batch = ColumnBatch(("x", "y"), {"x": xs, "y": ys}, len(xs))
        predicate = Comparison(left, op, right)
        kernel = compile_filter(predicate)
        for indices in (range(len(xs)), [1, 3, 4, 7]):
            expected = [
                i for i in indices if predicate.evaluate({"x": xs[i], "y": ys[i]}) is True
            ]
            assert kernel.passes[0](batch, indices) == expected


def _values(plan, rows):
    """Each row as the tuple of its values in sorted attribute order."""
    attrs = sorted(plan.schema.attributes)
    return [tuple(row[a] for a in attrs) for row in rows]


class TestCompiledResidual:
    """A join residual runs as the compiled filter over the candidate
    pairs: pads stay inline in probe order, full-outer marks come from the
    survivors, and a semi join still counts its short circuit."""

    #: ``R.k < L.k AND R.b > L.a``: L's rows 0 and 2 (a null key) find no
    #: partner, so left-outer pads sit between matched rows.
    RESIDUAL = Comparison("R.k", "<", "L.k") & gt("R.b", "L.a")

    #: The keyless joins' row sequences (L.a, L.k, R.b, R.k), recorded from
    #: the per-pair loop the compiled residual replaced.
    MATCHED = [
        (20, 2, 100, 1),
        (40, 2, 100, 1),
        (50, 5, 200, 2),
        (50, 5, 100, 1),
        (50, 5, 400, 2),
    ]
    PINNED = {
        "left_outer": [(10, 1, NULL, NULL), *MATCHED[:1], (30, NULL, NULL, NULL), *MATCHED[1:]],
        "full_outer": [
            (10, 1, NULL, NULL),
            *MATCHED[:1],
            (30, NULL, NULL, NULL),
            *MATCHED[1:],
            (NULL, NULL, 300, NULL),
            (NULL, NULL, 900, 9),
        ],
        "semi": [(20, 2), (40, 2), (50, 5)],
        "anti": [(10, 1), (30, NULL)],
    }
    EVALUATIONS = {"left_outer": 25, "full_outer": 25, "semi": 15, "anti": 25}

    @pytest.mark.parametrize("size", [2, 1024])
    @pytest.mark.parametrize("join_type", list(PINNED))
    def test_keyless_row_sequence_is_pinned_across_buffer_flushes(self, join_type, size):
        """Under ``batch_sized(2)`` every probe row brings five candidates,
        so the candidate buffer flushes after each row; at 1024 one run
        holds the whole batch."""
        storage = _storage()
        plan = HashJoin(
            SeqScan(storage["L"]), SeqScan(storage["R"]), None, None, self.RESIDUAL, join_type
        )
        got, metrics = _drain(plan, size)
        assert _values(plan, got) == self.PINNED[join_type]
        assert metrics.predicate_evaluations == self.EVALUATIONS[join_type]
        expr = _MATRIX_EXPR[join_type](Rel("L"), Rel("R"), self.RESIDUAL)
        oracle = expr.eval(storage.to_database(), ops=ORACLE_OPS)
        assert bag_equal(Relation(plan.schema, got), oracle)

    @pytest.mark.parametrize("size", [1, 1024])
    @pytest.mark.parametrize("op", ["=", ">="])
    def test_null_on_either_side_pads_under_left_outer(self, op, size):
        """A NULL operand makes the residual unknown: L's null ``a`` pads
        even against R's null ``b`` (``NULL = NULL`` is not true), and R's
        null ``b`` never satisfies."""
        storage = Storage()
        storage.create_table(
            "L", ["L.k", "L.a"], [{"L.k": 1, "L.a": NULL}, {"L.k": 1, "L.a": 9}]
        )
        storage.create_table(
            "R", ["R.k", "R.b"], [{"R.k": 1, "R.b": NULL}, {"R.k": 1, "R.b": 9}]
        )
        residual = Comparison("R.b", op, "L.a")
        plan = HashJoin(
            SeqScan(storage["L"]), SeqScan(storage["R"]), "L.k", "R.k", residual, "left_outer"
        )
        got, metrics = _drain(plan, size)
        assert _values(plan, got) == [(NULL, 1, NULL, NULL), (9, 1, 9, 1)]
        assert metrics.predicate_evaluations == 4

    def test_one_one_point_zero_and_true_compare_equal(self):
        storage = Storage()
        storage.create_table("L", ["L.a"], [{"L.a": 1}, {"L.a": 1.0}, {"L.a": True}])
        storage.create_table("R", ["R.b"], [{"R.b": True}, {"R.b": 2}, {"R.b": 1}])
        predicate = eq("L.a", "R.b")
        plan = HashJoin(SeqScan(storage["L"]), SeqScan(storage["R"]), None, None, predicate)
        got, metrics = _drain(plan, 1024)
        assert len(got) == 6  # every L row meets R's True and R's 1
        assert metrics.predicate_evaluations == 9
        oracle = jn(Rel("L"), Rel("R"), predicate).eval(storage.to_database(), ops=ORACLE_OPS)
        assert bag_equal(Relation(plan.schema, got), oracle)

    def test_semi_join_counts_up_to_the_first_satisfying_pair(self):
        """L's row 0 is satisfied by the third pair of its five-row bucket
        (3 evaluations); row 1 by none of them (all 5)."""
        storage = Storage()
        storage.create_table(
            "L", ["L.k", "L.a"], [{"L.k": 1, "L.a": 25}, {"L.k": 1, "L.a": 99}]
        )
        storage.create_table(
            "R", ["R.k", "R.b"], [{"R.k": 1, "R.b": b} for b in (10, 20, 30, 40, 50)]
        )
        plan = HashJoin(
            SeqScan(storage["L"]), SeqScan(storage["R"]), "L.k", "R.k", gt("R.b", "L.a"), "semi"
        )
        got, metrics = _drain(plan, 1024)
        assert _values(plan, got) == [(25, 1)]
        assert metrics.predicate_evaluations == 3 + 5

    def test_mismatched_types_raise_the_algebra_error(self):
        storage = Storage()
        storage.create_table("L", ["L.k", "L.a"], [{"L.k": 1, "L.a": 10}])
        storage.create_table("R", ["R.k", "R.s"], [{"R.k": 1, "R.s": "x"}])
        predicate = eq("L.k", "R.k") & Comparison("L.a", "<", "R.s")
        plan = HashJoin(
            SeqScan(storage["L"]), SeqScan(storage["R"]), "L.k", "R.k",
            Comparison("L.a", "<", "R.s"),
        )
        with pytest.raises(PredicateError) as algebra_err:
            jn(Rel("L"), Rel("R"), predicate).eval(storage.to_database(), ops=ORACLE_OPS)
        with pytest.raises(PredicateError) as batch_err:
            _drain(plan, 2)
        assert str(batch_err.value) == str(algebra_err.value)

    @pytest.mark.parametrize("size", [1, 2, 1024])
    def test_full_outer_tail_holds_the_build_rows_no_pair_satisfied(self, size):
        """R's rows 0 and 3 share L's keys but fail the residual, so they
        join the unmatched build tail with the null-keyed and unkeyed rows."""
        storage = _storage()
        residual = gt("R.b", Const(250))
        plan = _join_plan(storage, "full_outer", residual=residual)
        got, metrics = _drain(plan, size)
        values = _values(plan, got)
        assert values == [
            (10, 1, NULL, NULL),
            (20, 2, 400, 2),
            (30, NULL, NULL, NULL),
            (40, 2, 400, 2),
            (50, 5, NULL, NULL),
            (NULL, NULL, 200, 2),
            (NULL, NULL, 100, 1),
            (NULL, NULL, 300, NULL),
            (NULL, NULL, 900, 9),
        ]
        assert metrics.predicate_evaluations == 5
        expr = foj(Rel("L"), Rel("R"), eq("L.k", "R.k") & residual)
        assert bag_equal(Relation(plan.schema, got), expr.eval(storage.to_database(), ops=ORACLE_OPS))
