"""Executor tiers and the differential cross-checker.

One logical query, many evaluators.  Each *tier* is an independent route
from an expression tree to a bag of rows:

======================  =====================================================
tier                    route
======================  =====================================================
``"naive"``             the oracle operator table — the nested-loop
                        transcription of the paper
``"kernels"``           the public algebra operators with the small-input
                        cutoff at 0, so every equi-join runs a hash kernel
``"algebra"``           the public algebra operators: hash kernels, with
                        the nested loop when a kernel declines
``"engine"``            physical planner + iterators (hash equi-joins,
                        vectorized scan/filter/project/join) at the
                        default batch size
``"sqlite"``            transpiled SQL on stdlib sqlite3 (external oracle)
``"batch"``             the ``engine`` tier with the batch size pinned
                        to 2 (:mod:`repro.engine.batch`), so small
                        inputs still cross chunk boundaries
``"wcoj"``              the cyclic fast path: every maximal *pure-join*
                        subtree with a genuinely cyclic class
                        hypergraph runs as a Leapfrog Triejoin over
                        sorted tries (:mod:`repro.engine.wcoj`);
                        wrapper/outerjoin operators evaluate via the
                        algebra layer on the recursed children.
                        Declines (skips) when no core is cyclic —
                        acyclic graphs belong to the DP tree, and
                        outerjoins never enter a cyclic core
======================  =====================================================

:func:`cross_check` runs a query through any subset of tiers and demands
pairwise bag-equality of the results (pairwise equality is checked
against the first tier that ran; equality is transitive).  Tiers that
*cannot* run a query — the planner has no physical operator for
``FullOuterJoin``/``Union``, the transpiler refuses opaque predicates —
are recorded as skipped rather than failed, unless ``strict=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.algebra.comparison import RelationDiff, bag_equal, explain_difference
from repro.algebra.operators import ORACLE_OPS
from repro.algebra.relation import Database, Relation
from repro.core.expressions import Expression, FullOuterJoin, Union
from repro.observability.spans import maybe_span
from repro.tools import instrumentation
from repro.util.errors import PlanningError, ReproError
from repro.util.fastpath import small_input_limit

#: Every known tier, in oracle-first order (the first tier that runs
#: becomes the comparison baseline, so the semantic oracle leads).
EXECUTOR_TIERS: Tuple[str, ...] = (
    "naive",
    "kernels",
    "algebra",
    "engine",
    "sqlite",
    "batch",
    "wcoj",
)

_ENGINE_TIERS = frozenset({"engine", "batch"})

#: Tiers that evaluate through :class:`~repro.engine.storage.Storage`
#: (and hence benefit from a shared instance across many checks).
_STORAGE_TIERS = _ENGINE_TIERS | {"wcoj"}


def supported_executors(
    expr: Expression, executors: Tuple[str, ...] = EXECUTOR_TIERS
) -> Tuple[str, ...]:
    """Drop tiers that statically cannot run this expression.

    The physical planner has no operator for the two-sided outerjoin or
    the padded union, so the engine tiers are excluded when either
    appears.  (GOJ *is* plannable, but only with an equi-join conjunct;
    that case is caught dynamically and reported as a skip.)
    """
    has_unplannable = any(
        isinstance(node, (FullOuterJoin, Union)) for _path, node in expr.nodes()
    )
    if not has_unplannable:
        return tuple(executors)
    return tuple(e for e in executors if e not in _ENGINE_TIERS)


def run_executor(
    name: str,
    expr: Expression,
    db: Database,
    storage=None,
    oracle=None,
) -> Relation:
    """Evaluate ``expr`` on one tier.

    ``storage`` (for the engine tiers) and ``oracle`` (a live
    :class:`~repro.conformance.sqlite_oracle.SQLiteOracle`) may be passed
    in to amortize setup across many calls; both are derived from ``db``
    on demand otherwise.
    """
    if name == "naive":
        return expr.eval(db, ops=ORACLE_OPS)
    if name == "kernels":
        # Zero the cutoff: on the tiny relations the fuzzer generates the
        # kernels would otherwise decline and fall back to the naive path,
        # making this tier a silent duplicate of "naive".
        with small_input_limit(0):
            return expr.eval(db)
    if name == "algebra":
        return expr.eval(db)
    if name in _ENGINE_TIERS:
        from repro.engine.executor import execute_plan
        from repro.engine.planner import Planner
        from repro.engine.storage import Storage
        from repro.util.fastpath import batch_sized

        if storage is None:
            storage = Storage.from_database(db)
        plan = Planner(storage).plan(expr)
        if name == "batch":
            # Batch size 2 on purpose: the fuzzer's tiny relations then
            # still span several batches, exercising chunk boundaries,
            # zero-row selections, and cross-batch dedup/build state.
            with batch_sized(2):
                return execute_plan(plan).relation
        return execute_plan(plan).relation
    if name == "sqlite":
        from repro.conformance.sqlite_oracle import SQLiteOracle

        if oracle is not None:
            return oracle.evaluate(expr)
        with SQLiteOracle(db) as own:
            return own.evaluate(expr)
    if name == "wcoj":
        from repro.engine.storage import Storage

        if storage is None:
            storage = Storage.from_database(db)
        return _run_wcoj(expr, db, storage)
    raise PlanningError(f"unknown executor tier {name!r}")


def _run_wcoj(expr: Expression, db: Database, storage) -> Relation:
    """Evaluate with every maximal cyclic join core on the WCOJ fast path.

    A *core* here is a pure tree of Rel/Join — outerjoins never enter a
    cyclic core (Theorem 1 certifies reordering them only on the
    implementing-tree side).  Each maximal core whose attribute-class
    hypergraph is genuinely cyclic runs as a Leapfrog Triejoin over
    sorted tries; every other operator evaluates via the algebra layer
    on the recursed children, so the tier only ever vouches for the
    fragment Leapfrog actually ran.  Raises :class:`PlanningError` — a
    cross-check *skip* — when no core is WCOJ-eligible, so the tier
    never silently duplicates the algebra tier.  Note the existing
    ``cycle``/``random`` fuzz topologies join every edge on ``.a = .a``,
    collapsing all attributes into one class; their class hypergraphs
    are acyclic and this tier declines on them by design — only the
    alternating-attribute cyclic topologies actually run here.
    """
    from repro.algebra import operators as ops
    from repro.algebra.goj import generalized_outerjoin
    from repro.core.expressions import (
        Antijoin,
        GeneralizedOuterJoin,
        Join,
        LeftOuterJoin,
        Project,
        Rel,
        Restrict,
        RightAntijoin,
        RightOuterJoin,
        Semijoin,
    )
    from repro.core.graph import graph_of
    from repro.core.wcoj_order import wcoj_spec_of
    from repro.engine.executor import execute_plan
    from repro.engine.wcoj import build_wcoj_plan

    registry = storage.registry
    took_fast_path = False

    def is_core(node: Expression) -> bool:
        if isinstance(node, Rel):
            return True
        if isinstance(node, Join):
            return is_core(node.left) and is_core(node.right)
        return False

    def recurse(node: Expression) -> Relation:
        nonlocal took_fast_path
        if isinstance(node, Rel):
            return node.eval(db)
        if is_core(node):
            spec = wcoj_spec_of(graph_of(node, registry), registry)
            if spec is None:
                raise PlanningError(
                    f"wcoj tier declines: join core is not cyclic for {node!r}"
                )
            took_fast_path = True
            return execute_plan(build_wcoj_plan(spec, storage, {})).relation
        if isinstance(node, Join):
            return ops.join(recurse(node.left), recurse(node.right), node.predicate)
        if isinstance(node, LeftOuterJoin):
            return ops.outerjoin(recurse(node.left), recurse(node.right), node.predicate)
        if isinstance(node, RightOuterJoin):
            return ops.outerjoin(recurse(node.right), recurse(node.left), node.predicate)
        if isinstance(node, FullOuterJoin):
            return ops.full_outerjoin(
                recurse(node.left), recurse(node.right), node.predicate
            )
        if isinstance(node, Semijoin):
            return ops.semijoin(recurse(node.left), recurse(node.right), node.predicate)
        if isinstance(node, Antijoin):
            return ops.antijoin(recurse(node.left), recurse(node.right), node.predicate)
        if isinstance(node, RightAntijoin):
            return ops.antijoin(recurse(node.right), recurse(node.left), node.predicate)
        if isinstance(node, GeneralizedOuterJoin):
            return generalized_outerjoin(
                recurse(node.left), recurse(node.right), node.predicate, node.projection
            )
        if isinstance(node, Restrict):
            return ops.restrict(recurse(node.child), node.predicate)
        if isinstance(node, Project):
            return ops.project(
                recurse(node.child), sorted(node.attributes), dedup=node.dedup
            )
        if isinstance(node, Union):
            return ops.union_padded(recurse(node.left), recurse(node.right))
        raise PlanningError(f"wcoj tier cannot evaluate {type(node).__name__}")

    relation = recurse(expr)
    if not took_fast_path:
        raise PlanningError("wcoj tier declines: no cyclic join core")
    return relation


@dataclass
class CheckResult:
    """Outcome of one differential check across executor tiers."""

    expr: Expression
    baseline: Optional[str] = None
    results: Dict[str, Relation] = field(default_factory=dict)
    skipped: Dict[str, str] = field(default_factory=dict)
    mismatches: List[Tuple[str, str, RelationDiff]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        if self.ok:
            ran = ", ".join(sorted(self.results))
            skip = f" (skipped: {', '.join(sorted(self.skipped))})" if self.skipped else ""
            return f"agree across [{ran}]{skip}"
        lines = [f"{len(self.mismatches)} tier disagreement(s) on {self.expr!r}:"]
        for a, b, diff in self.mismatches:
            lines.append(f"  {a} vs {b}: {diff}")
        return "\n".join(lines)


def cross_check(
    expr: Expression,
    db: Database,
    executors: Tuple[str, ...] = EXECUTOR_TIERS,
    storage=None,
    oracle=None,
    strict: bool = False,
) -> CheckResult:
    """Run ``expr`` through every tier and compare results pairwise.

    The first tier that produces a result is the baseline; every later
    result is compared to it with :func:`bag_equal` (under the padding
    convention), which by transitivity establishes pairwise equality.
    A tier raising :class:`ReproError` (no physical plan, no SQL
    lowering, ...) is recorded in ``skipped`` unless ``strict``.
    """
    instrumentation.bump("conformance_checks")
    result = CheckResult(expr=expr)
    if storage is None and any(e in _STORAGE_TIERS for e in executors):
        from repro.engine.storage import Storage

        storage = Storage.from_database(db)
    with maybe_span("conformance.cross_check", category="conformance") as check_span:
        for name in executors:
            with maybe_span(
                f"conformance.tier.{name}", category="conformance.tier", tier=name
            ) as tier_span:
                try:
                    relation = run_executor(name, expr, db, storage=storage, oracle=oracle)
                except ReproError as exc:
                    if strict:
                        raise
                    result.skipped[name] = str(exc)
                    if tier_span is not None:
                        tier_span.set(outcome="skipped", reason=str(exc)[:200])
                    continue
                result.results[name] = relation
                if tier_span is not None:
                    tier_span.counters["rows"] = len(relation)
                    tier_span.set(outcome="ok")
                if result.baseline is None:
                    result.baseline = name
                    continue
                base = result.results[result.baseline]
                if not bag_equal(base, relation):
                    instrumentation.bump("conformance_mismatches")
                    result.mismatches.append(
                        (result.baseline, name, explain_difference(base, relation))
                    )
                    if tier_span is not None:
                        tier_span.set(outcome="mismatch", against=result.baseline)
        if check_span is not None:
            check_span.counters["tiers_ran"] = len(result.results)
            check_span.counters["tiers_skipped"] = len(result.skipped)
            check_span.counters["mismatches"] = len(result.mismatches)
    return result
