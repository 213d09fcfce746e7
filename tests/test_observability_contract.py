"""Property tests for the metrics contract over randomized traced queries.

Every traced execution must satisfy the invariants pinned down in
:mod:`repro.observability.contract`: the plan root's ``rows_out`` equals
the query's result cardinality, every operator's ``rows_in`` equals the
sum of its children's ``rows_out``, child spans nest inside their
parents, and no timing or counter goes negative.  The property tests
drive ≥ 200 randomized (scenario, database, query) cases through the
engine and demand a clean contract report on each.
"""

from __future__ import annotations

from repro.datagen.queries import random_query, random_scenario
from repro.datagen.random_db import random_database
from repro.engine.executor import execute
from repro.engine.storage import Storage
from repro.observability import (
    ENGINE_OP_CATEGORY,
    Span,
    operator_spans,
    tracing,
    validate_span_tree,
)
from repro.util.errors import ReproError
from repro.util.rng import make_rng

#: How many successfully traced queries the contract test must check.
TARGET_CASES = 200


def _traced_cases(seed: int, target: int = TARGET_CASES):
    """Yield ``(query, result)`` for ``target`` traced executions.

    Queries the planner cannot lower (exotic decorations) are skipped and
    regenerated; a hard attempt bound keeps a planner regression from
    turning into an infinite loop.
    """
    rng = make_rng(seed)
    produced = 0
    attempts = 0
    while produced < target:
        attempts += 1
        assert attempts <= target * 5, (
            f"only {produced}/{target} cases plannable after {attempts} attempts"
        )
        scenario = random_scenario(rng, min_relations=2, max_relations=4)
        db = random_database(scenario.schemas, seed=rng)
        try:
            # Outerjoin cycles and other IT-free graphs cannot produce a
            # query; queries the planner cannot lower are skipped the same
            # way.  The rng stream stays shared so cases remain reproducible.
            query = random_query(scenario, rng, extended="none")
            storage = Storage.from_database(db)
            with tracing(enabled=True):
                result = execute(query, storage)
        except ReproError:
            continue
        produced += 1
        yield query, result


def test_contract_over_randomized_queries():
    checked = 0
    for query, result in _traced_cases(seed=1991):
        root = result.trace
        assert root is not None, "forced tracing must produce a trace"
        errors = validate_span_tree(root, result_rows=len(result.relation))
        assert not errors, f"contract violated on {query!r}: {errors}"
        checked += 1
    assert checked >= TARGET_CASES


def test_row_conservation_spot_check():
    """Beyond 'no violations': the invariant quantities really are wired.

    Every traced run must carry at least one operator span, and the root
    operator's ``rows_out`` must equal the result cardinality directly
    (not merely via the validator's internal bookkeeping).
    """
    for _query, result in _traced_cases(seed=424242, target=25):
        ops = operator_spans([result.trace])
        assert ops, "traced execution recorded no operator spans"
        assert ops[0].counters.get("rows_out", 0) == len(result.relation)
        for span in ops:
            assert span.finished and span.duration_ns >= 0


class TestContractDetectsViolations:
    """The validator must reject each class of broken tree it exists for."""

    def _finished(self, name, category, start, end, **counters) -> Span:
        span = Span(name, category)
        span.begin(start)
        span.finish(end)
        span.counters.update(counters)
        return span

    def test_negative_duration_flagged(self):
        bad = self._finished("op", ENGINE_OP_CATEGORY, 100, 50)
        assert any("negative duration" in e for e in validate_span_tree(bad))

    def test_finish_without_start_flagged(self):
        span = Span("op", ENGINE_OP_CATEGORY)
        span.finish(10)
        assert any("never started" in e for e in validate_span_tree(span))

    def test_child_escaping_parent_interval_flagged(self):
        parent = self._finished("parent", ENGINE_OP_CATEGORY, 100, 200)
        child = self._finished("child", ENGINE_OP_CATEGORY, 50, 150)
        parent.children.append(child)
        errors = validate_span_tree(parent)
        assert any("starts before parent" in e for e in errors)

    def test_row_conservation_violation_flagged(self):
        parent = self._finished("join", ENGINE_OP_CATEGORY, 0, 100, rows_in=3)
        parent.children.append(
            self._finished("scan", ENGINE_OP_CATEGORY, 0, 50, rows_out=5)
        )
        errors = validate_span_tree(parent)
        assert any("rows_in=3" in e and "emitted 5" in e for e in errors)

    def test_root_row_count_mismatch_flagged(self):
        root = self._finished("scan", ENGINE_OP_CATEGORY, 0, 10, rows_out=4)
        assert any("returned 7" in e for e in validate_span_tree(root, result_rows=7))
        assert validate_span_tree(root, result_rows=4) == []

    def test_negative_counter_flagged(self):
        span = self._finished("scan", ENGINE_OP_CATEGORY, 0, 10)
        span.counters["rows_out"] = -1
        assert any("negative" in e for e in validate_span_tree(span))


def test_conformance_tiers_traced(xyz_db, pxy):
    """Cross-checking under the tracer records per-tier spans + outcomes."""
    from repro.conformance.check import cross_check
    from repro.core import jn

    expr = jn("X", "Y", pxy)
    with tracing(enabled=True) as tracer:
        result = cross_check(expr, xyz_db)
    assert result.ok
    root = tracer.roots[-1]
    assert root.name == "conformance.cross_check"
    tiers = root.find_all("conformance.tier")
    assert len(tiers) >= 3
    outcomes = {t.attrs["tier"]: t.attrs.get("outcome") for t in tiers}
    assert all(v in ("ok", "skipped") for v in outcomes.values())
    ran = [t for t in tiers if t.attrs.get("outcome") == "ok"]
    assert all(t.finished and t.duration_ns >= 0 for t in ran)
    assert root.counters["tiers_ran"] == len(ran)
    assert root.counters["mismatches"] == 0
