"""Experiment: the complete Section-4 + Section-6.1 pipeline, measured.

Simplify (strong restrictions convert outerjoins) → push restrictions to
the leaves → abstract to a graph → certify with Theorem 1 → DP-reorder →
execute.  Compared against executing the query exactly as written.

Also measures the graceful degradation: an IS NULL restriction (the
find-unmatched-rows idiom) blocks both the conversion and the pushdown,
and the pipeline falls back to the written order — correctness first.
"""

import pytest

from repro.algebra import Comparison, Const, IsNull, bag_equal, eq
from repro.core import Restrict, jn, oj
from repro.datagen import example1_storage
from repro.engine import execute
from repro.optimizer.pipeline import optimize_and_run

P12 = eq("R1.k", "R2.k")
P23 = eq("R2.j", "R3.j")


def strong_query():
    return Restrict(
        jn("R1", oj("R2", "R3", P23), P12), Comparison("R3.j", "=", Const(5))
    )


def isnull_query():
    return Restrict(jn("R1", oj("R2", "R3", P23), P12), IsNull("R3.j"))


@pytest.mark.parametrize("n", [500, 5_000])
def test_pipeline_beats_written_order(benchmark, report, n):
    storage = example1_storage(n)
    query = strong_query()

    def run_pipeline():
        # use_cache=False: this scenario times the full pipeline (simplify,
        # push, certify, DP); a cache hit's skipped work is pinned exactly
        # by tests/test_plan_cache.py.
        return optimize_and_run(query, storage, use_cache=False)

    result, run = benchmark(run_pipeline)
    baseline = execute(query, storage)
    assert bag_equal(run.relation, baseline.relation)
    assert result.conversions and result.reordered
    assert run.tuples_retrieved < baseline.tuples_retrieved
    report.add(
        f"retrievals at N={n}",
        "pipeline < written",
        f"{run.tuples_retrieved} < {baseline.tuples_retrieved}",
    )
    report.dump("Pipeline: simplify + push + reorder")


def test_pipeline_blocks_on_isnull(benchmark, report):
    storage = example1_storage(500)
    query = isnull_query()

    def run_pipeline():
        return optimize_and_run(query, storage, use_cache=False)

    result, run = benchmark(run_pipeline)
    baseline = execute(query, storage)
    assert bag_equal(run.relation, baseline.relation)
    assert not result.reordered and result.blocked
    report.add("IS NULL restriction", "blocks reordering", "fell back to written order")
    report.add("correctness", "preserved", "bag-equal with naive evaluation")
    report.dump("Pipeline: order-sensitive restriction handled safely")


def test_pipeline_explanation_trace(benchmark, report):
    storage = example1_storage(200)

    def explain():
        result, _run = optimize_and_run(strong_query(), storage, use_cache=False)
        return result.explain()

    text = benchmark(explain)
    assert "simplify:" in text and "push:" in text
    report.add("explanation", "auditable trace", f"{len(text.splitlines())} lines")
    report.dump("Pipeline: explainability")
