"""Plan-space equivalence: Theorem 1 as an executable assertion.

Theorem 1 says that for *nice* query graphs — the freely-reorderable
class — every implementing tree evaluates to the same relation.
:func:`check_plan_space` makes that machine-checked on a concrete
database: it enumerates the graph's implementing trees, runs each of
them (plus every optimizer's chosen tree — DP, greedy, the
outerjoin-barrier baseline, and the rewrite optimizer), and demands that
all results are pairwise bag-equal, with the first tree additionally
cross-checked against the external SQLite oracle.

Pairwise equality over N trees is established as N comparisons against
one reference result; bag equality is transitive.

For graphs that are **not** nice (Example 2's outerjoin-into-a-join is
the canonical case) the theorem's equivalence claim does not hold — the
implementing trees legitimately compute different relations — so the
checker downgrades to the strongest statement that *is* true there:
every individual tree must still agree with itself across all executor
tiers.  The report's ``nice`` flag records which regime applied.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.algebra.comparison import RelationDiff, bag_equal, explain_difference
from repro.algebra.relation import Database, Relation
from repro.conformance.check import CheckResult, cross_check
from repro.conformance.sqlite_oracle import SQLiteOracle
from repro.core.enumeration import count_implementing_trees, implementing_trees
from repro.core.expressions import Expression
from repro.datagen.random_db import random_database
from repro.datagen.topologies import GraphScenario
from repro.tools import instrumentation


@dataclass
class PlanSpaceReport:
    """Verdict over one graph's entire (possibly truncated) plan space."""

    scenario: str
    trees_total: int
    nice: bool = True
    trees_checked: int = 0
    optimizers_checked: List[str] = field(default_factory=list)
    reference: Optional[Expression] = None
    cross_check_result: Optional[CheckResult] = None
    mismatches: List[Tuple[str, Expression, RelationDiff]] = field(default_factory=list)
    tier_failures: List[Tuple[str, Expression, CheckResult]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        cross_ok = self.cross_check_result is None or self.cross_check_result.ok
        return cross_ok and not self.mismatches and not self.tier_failures

    @property
    def truncated(self) -> bool:
        return self.trees_checked < self.trees_total

    def summary(self) -> str:
        regime = "all equivalent" if self.nice else "per-tree tier conformance (not nice)"
        head = (
            f"{self.scenario}: {self.trees_checked}/{self.trees_total} trees, "
            f"optimizers [{', '.join(self.optimizers_checked)}]"
        )
        if self.ok:
            note = " (TRUNCATED)" if self.truncated else ""
            return f"{head} -- {regime}{note}"
        lines = [
            f"{head} -- {len(self.mismatches) + len(self.tier_failures)} mismatch(es)"
        ]
        for label, expr, diff in self.mismatches:
            lines.append(f"  {label}: {expr!r}\n    {diff}")
        for label, expr, result in self.tier_failures:
            lines.append(f"  {label}: {expr!r}\n    {result.summary()}")
        if self.cross_check_result is not None and not self.cross_check_result.ok:
            lines.append("  " + self.cross_check_result.summary())
        return "\n".join(lines)


def _optimizer_trees(scenario: GraphScenario, storage, reference: Expression):
    """(label, expression) pairs from every optimizer entry point."""
    from repro.optimizer import (
        CardinalityEstimator,
        CoutCostModel,
        DPOptimizer,
        GreedyOptimizer,
        OuterjoinBarrierOptimizer,
        RewriteOptimizer,
        fixed_order_plan,
    )

    cost_model = CoutCostModel(CardinalityEstimator(storage))
    registry = scenario.registry
    yield "dp", DPOptimizer(scenario.graph, cost_model).optimize().expr
    yield "greedy", GreedyOptimizer(scenario.graph, cost_model).optimize().expr
    yield "barrier", OuterjoinBarrierOptimizer(registry, cost_model).optimize(reference).expr
    yield "rewriter", RewriteOptimizer(registry, cost_model).optimize_hill_climb(reference).best.expr
    yield "fixed-order", fixed_order_plan(reference, cost_model).expr


def check_plan_space(
    scenario: GraphScenario,
    db: Optional[Database] = None,
    seed: int | None = None,
    max_trees: Optional[int] = 2000,
    executors: Tuple[str, ...] = ("naive", "algebra", "engine", "sqlite"),
    include_optimizers: bool = True,
) -> PlanSpaceReport:
    """Run every implementing tree and optimizer output; require equality.

    The first enumerated tree is the reference: it is cross-checked
    through all requested executor tiers (SQLite included), and every
    other tree/optimizer result is compared to its algebra-level result.
    ``max_trees`` bounds enumeration on large graphs — the report's
    ``truncated`` flag makes the cap explicit, never silent.

    When the graph is not nice, cross-tree equality is not a theorem —
    instead *every* tree (and optimizer output) is cross-checked through
    the executor tiers individually.
    """
    from repro.core.niceness import is_nice

    instrumentation.bump("planspace_checks")
    if db is None:
        db = random_database(scenario.schemas, seed=seed)
    from repro.engine.storage import Storage

    storage = Storage.from_database(db)
    total = count_implementing_trees(scenario.graph)
    nice = is_nice(scenario.graph)
    report = PlanSpaceReport(scenario=scenario.name, trees_total=total, nice=nice)

    def tier_check(label: str, expr: Expression) -> CheckResult:
        result = cross_check(
            expr,
            db,
            executors=executors,
            storage=storage,
            oracle=oracle,
        )
        if not result.ok:
            instrumentation.bump("planspace_mismatches")
            report.tier_failures.append((label, expr, result))
        return result

    reference_result: Optional[Relation] = None
    with SQLiteOracle(db) as oracle:
        trees = itertools.islice(implementing_trees(scenario.graph), max_trees)
        for i, tree in enumerate(trees):
            report.trees_checked += 1
            if reference_result is None:
                report.reference = tree
                # The reference failure is reported via cross_check_result,
                # not tier_failures, so it is never double-counted.
                report.cross_check_result = cross_check(
                    tree,
                    db,
                    executors=executors,
                    storage=storage,
                    oracle=oracle,
                )
                baseline_tier = report.cross_check_result.baseline
                reference_result = report.cross_check_result.results[baseline_tier]
                continue
            if not nice:
                tier_check(f"tree#{i}", tree)
                continue
            candidate = tree.eval(db)
            if not bag_equal(reference_result, candidate):
                instrumentation.bump("planspace_mismatches")
                report.mismatches.append(
                    (f"tree#{i}", tree, explain_difference(reference_result, candidate))
                )
        if include_optimizers and report.reference is not None:
            for label, expr in _optimizer_trees(scenario, storage, report.reference):
                report.optimizers_checked.append(label)
                if not nice:
                    tier_check(label, expr)
                    continue
                candidate = expr.eval(db)
                if not bag_equal(reference_result, candidate):
                    instrumentation.bump("planspace_mismatches")
                    report.mismatches.append(
                        (label, expr, explain_difference(reference_result, candidate))
                    )
    return report
