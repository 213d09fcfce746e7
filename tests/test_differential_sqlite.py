"""The differential conformance harness, end to end.

Four layers of tests:

1. transpiler known-answer checks — every operator the fuzzer can emit
   is lowered to SQLite and must agree with the algebra evaluator on
   hand-built databases (nulls, duplicates, 3VL predicates included);
2. a fixed-seed fuzz smoke campaign across all six executor tiers that
   must find zero disagreements;
3. a *sabotage* test: an intentionally wrong kernel is injected and the
   campaign must catch it AND shrink the counterexample to at most three
   relations with a replayable artifact — this is the proof that the
   harness has teeth;
4. artifact round-trips: serialize → parse → byte-identical re-dump.
"""

import json
from unittest import mock

import pytest

from repro.algebra import (
    NULL,
    And,
    Comparison,
    IsNull,
    Not,
    Or,
    Relation,
    bag_equal,
    eq,
    explain_difference,
)
import repro.algebra.kernels as K
import repro.conformance.check as check_module
from repro.conformance import (
    EXECUTOR_TIERS,
    case_dumps,
    case_from_json,
    case_to_json,
    cross_check,
    generate_case,
    run_campaign,
    run_case,
    to_sqlite_sql,
)
from repro.conformance.fuzz import replay_artifact, save_artifact
from repro.conformance.sqlite_oracle import SQLiteOracle, sqlite_evaluate
from repro.core.expressions import (
    Project,
    Rel,
    Restrict,
    Union,
    aj,
    foj,
    goj,
    jn,
    oj,
    roj,
    sj,
)
from repro.algebra.relation import Database


@pytest.fixture
def db():
    x = Relation.from_dicts(
        ["X.k", "X.a"],
        [
            {"X.k": 1, "X.a": 10},
            {"X.k": 1, "X.a": 10},  # duplicate row
            {"X.k": 2, "X.a": 20},
            {"X.k": NULL, "X.a": 30},
        ],
    )
    y = Relation.from_dicts(
        ["Y.k", "Y.b"],
        [
            {"Y.k": 1, "Y.b": 100},
            {"Y.k": 3, "Y.b": 300},
            {"Y.k": NULL, "Y.b": 400},
        ],
    )
    z = Relation.from_dicts(["Z.k"], [{"Z.k": 1}, {"Z.k": 2}, {"Z.k": 2}])
    return Database({"X": x, "Y": y, "Z": z})


def assert_sqlite_agrees(expr, db):
    expected = expr.eval(db)
    actual = sqlite_evaluate(expr, db)
    assert bag_equal(expected, actual), explain_difference(expected, actual)


P = lambda: eq("X.k", "Y.k")


class TestTranspilerKnownAnswers:
    def test_base_relation(self, db):
        assert_sqlite_agrees(Rel("X"), db)

    def test_join_with_duplicates_and_nulls(self, db):
        assert_sqlite_agrees(jn(Rel("X"), Rel("Y"), P()), db)

    def test_left_outerjoin(self, db):
        assert_sqlite_agrees(oj(Rel("X"), Rel("Y"), P()), db)

    def test_right_outerjoin(self, db):
        assert_sqlite_agrees(roj(Rel("X"), Rel("Y"), P()), db)

    def test_full_outerjoin(self, db):
        assert_sqlite_agrees(foj(Rel("X"), Rel("Y"), P()), db)

    def test_semijoin(self, db):
        assert_sqlite_agrees(sj(Rel("X"), Rel("Y"), P()), db)

    def test_antijoin(self, db):
        assert_sqlite_agrees(aj(Rel("X"), Rel("Y"), P()), db)

    def test_generalized_outerjoin(self, db):
        assert_sqlite_agrees(goj(Rel("X"), Rel("Y"), P(), ["X.k"]), db)

    def test_goj_proper_projection_subset(self, db):
        assert_sqlite_agrees(goj(Rel("X"), Rel("Y"), P(), ["X.a"]), db)

    def test_restrict_three_valued_logic(self, db):
        # NULL < 25 is unknown → dropped by σ; SQLite agrees.
        assert_sqlite_agrees(Restrict(Rel("X"), Comparison("X.a", "<", 25)), db)

    def test_restrict_is_null_and_negation(self, db):
        assert_sqlite_agrees(Restrict(Rel("X"), IsNull("X.k")), db)
        assert_sqlite_agrees(Restrict(Rel("X"), Not(IsNull("X.k"))), db)

    def test_restrict_and_or(self, db):
        p = Or((Comparison("X.a", ">", 15), And((IsNull("X.k"), eq("X.a", 30)))))
        assert_sqlite_agrees(Restrict(Rel("X"), p), db)

    def test_project_bag_and_dedup(self, db):
        assert_sqlite_agrees(Project(Rel("X"), ["X.k"], dedup=False), db)
        assert_sqlite_agrees(Project(Rel("X"), ["X.k"], dedup=True), db)

    def test_padded_union(self, db):
        assert_sqlite_agrees(Union(Rel("X"), Rel("Y")), db)

    def test_nested_tree(self, db):
        expr = oj(
            jn(Rel("X"), Rel("Z"), eq("X.k", "Z.k")),
            Restrict(Rel("Y"), Not(IsNull("Y.k"))),
            P(),
        )
        assert_sqlite_agrees(expr, db)

    def test_oracle_reuse_and_sql_text(self, db):
        expr = jn(Rel("X"), Rel("Y"), P())
        sql = to_sqlite_sql(expr, db.registry)
        assert "JOIN" in sql and '"X.k"' in sql
        with SQLiteOracle(db) as oracle:
            first = oracle.evaluate(expr)
            second = oracle.evaluate(oj(Rel("X"), Rel("Y"), P()))
        assert bag_equal(first, expr.eval(db))
        assert bag_equal(second, oj(Rel("X"), Rel("Y"), P()).eval(db))


class TestCrossCheck:
    def test_all_tiers_agree_on_example(self, db):
        from repro.engine import Storage

        expr = oj(jn(Rel("X"), Rel("Z"), eq("X.k", "Z.k")), Rel("Y"), P())
        result = cross_check(
            expr, db, executors=EXECUTOR_TIERS, storage=Storage.from_database(db)
        )
        assert result.ok, result.summary()
        # The wcoj tier owns cyclic join cores only; it declines this
        # acyclic example by design.  Every other tier must run.
        assert set(result.skipped) <= {"wcoj"}

    def test_engine_tiers_statically_skipped_for_foj(self, db):
        # Kept under its old name: engine, batch and sqlite all run the FOJ and agree.
        expr = foj(Rel("X"), Rel("Y"), P())
        result = cross_check(expr, db, executors=EXECUTOR_TIERS)
        assert result.ok, result.summary()
        assert {"engine", "batch", "sqlite"} <= set(result.results)
        assert set(result.skipped) == {"wcoj"}


class TestFuzzSmoke:
    def test_fixed_seed_campaign_is_clean(self):
        report = run_campaign(cases=60, seed=0)
        assert report.cases == 60
        assert report.ok, report.summary()
        # Coverage steering rotates through every feature.
        for op in ("none", "foj", "sj", "aj", "raj", "goj", "union"):
            assert report.coverage.get(f"op:{op}", 0) > 0, report.summary()
        for topo in ("chain", "star", "cycle", "nice", "random"):
            assert report.coverage.get(f"topology:{topo}", 0) > 0

    def test_engine_tiers_run_every_case(self):
        report = run_campaign(cases=200, seed=0)
        assert report.ok, report.summary()
        assert not {"engine", "batch"} & set(report.skipped_tiers), report.summary()

    def test_single_generated_case_runs(self):
        case = generate_case(42)
        result = run_case(case)
        assert result.ok, result.summary()


_hash_counts = K.hash_counts


def _broken_hash_counts(left, right, predicate, variant):
    """A deliberately wrong kernel: drops the null-padded preserved rows,
    silently turning every outerjoin into a plain join."""
    return _hash_counts(left, right, predicate, "inner" if variant == "left_outer" else variant)


class TestInjectedBugIsCaught:
    def test_campaign_catches_and_shrinks(self, tmp_path):
        with mock.patch.object(K, "hash_counts", _broken_hash_counts):
            report = run_campaign(
                cases=40,
                seed=0,
                executors=("naive", "algebra"),
                artifacts_dir=str(tmp_path),
            )
        assert not report.ok, "sabotaged kernel went undetected"
        for failure in report.failures:
            # Shrinking must reach a tiny counterexample: ≤3 base relations.
            assert len(failure.shrunk.expression.relations()) <= 3, failure.summary()
            assert failure.result.mismatches
            assert failure.artifact is not None
            # The artifact replays to a *pass* once the bug is removed...
            case, clean = replay_artifact(failure.artifact)
            assert clean.ok
            # ...and still reproduces the disagreement while the bug is in.
            with mock.patch.object(K, "hash_counts", _broken_hash_counts):
                _, dirty = replay_artifact(failure.artifact)
            assert not dirty.ok

    def test_sqlite_tier_also_catches_it(self, db):
        """The external oracle flags the same sabotage — no shared code."""
        expr = oj(Rel("X"), Rel("Y"), P())
        with mock.patch.object(K, "hash_counts", _broken_hash_counts):
            result = cross_check(expr, db, executors=("algebra", "sqlite"))
        assert not result.ok


_run_executor = check_module.run_executor


def _batch_tier_raises_index_error(name, expr, db, storage=None, oracle=None):
    """A tier that crashes instead of answering: ``batch`` indexes past a list."""
    if name == "batch":
        raise IndexError("list index out of range")
    return _run_executor(name, expr, db, storage=storage, oracle=oracle)


class TestTierExceptions:
    """A tier that raises anything but :class:`ReproError` fails the check;
    it does not abort the campaign."""

    def test_cross_check_names_the_tier_and_the_exception(self, db):
        expr = oj(Rel("X"), Rel("Y"), P())
        with mock.patch.object(check_module, "run_executor", _batch_tier_raises_index_error):
            result = cross_check(expr, db, executors=("naive", "batch", "engine"))
        assert not result.ok
        assert result.errors == {"batch": "IndexError: list index out of range"}
        assert set(result.results) == {"naive", "engine"}
        assert not result.mismatches
        assert "batch raised IndexError: list index out of range" in result.summary()

    def test_strict_reraises(self, db):
        expr = oj(Rel("X"), Rel("Y"), P())
        with mock.patch.object(check_module, "run_executor", _batch_tier_raises_index_error):
            with pytest.raises(IndexError):
                cross_check(expr, db, executors=("naive", "batch"), strict=True)

    def test_unknown_tier_is_rejected_not_skipped(self, db):
        """A misspelt or retired tier name (say, in a replayed artifact)
        must not pass as a tier that declined the query."""
        expr = oj(Rel("X"), Rel("Y"), P())
        with pytest.raises(ValueError, match="'kernelz'.*known: naive, algebra"):
            cross_check(expr, db, executors=("naive", "kernelz"))

    def test_repro_error_is_still_a_skip(self, db):
        result = cross_check(foj(Rel("X"), Rel("Y"), P()), db, executors=("naive", "wcoj"))
        assert result.ok, result.summary()
        assert set(result.skipped) == {"wcoj"}
        assert not result.errors

    def test_campaign_shrinks_and_writes_a_repro(self, tmp_path):
        with mock.patch.object(check_module, "run_executor", _batch_tier_raises_index_error):
            report = run_campaign(
                cases=3,
                seed=0,
                executors=("naive", "batch"),
                artifacts_dir=str(tmp_path),
            )
        assert report.cases == 3
        assert len(report.failures) == 3
        for failure in report.failures:
            assert failure.result.errors == {"batch": "IndexError: list index out of range"}
            assert failure.artifact is not None
            assert len(failure.shrunk.expression.relations()) <= 3, failure.summary()
            _, clean = replay_artifact(failure.artifact)
            assert clean.ok, clean.summary()


class TestArtifacts:
    def test_round_trip_is_byte_identical(self, tmp_path):
        case = generate_case(7)
        encoded = case_dumps(case)
        decoded = case_from_json(json.loads(encoded))
        assert case_dumps(decoded) == encoded
        assert decoded.expression == case.expression
        assert decoded.executors == case.executors

    def test_save_and_replay(self, tmp_path):
        case = generate_case(11)
        path = save_artifact(case, str(tmp_path))
        loaded, result = replay_artifact(path)
        assert loaded.seed == case.seed
        assert result.ok, result.summary()

    def test_case_to_json_has_version(self):
        doc = case_to_json(generate_case(3))
        assert doc["version"] == 1
