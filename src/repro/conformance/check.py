"""Executor tiers and the differential cross-checker.

One logical query, many evaluators.  Each *tier* is an independent route
from an expression tree to a bag of rows:

======================  =====================================================
tier                    route
======================  =====================================================
``"naive"``             the oracle operator table — the nested-loop
                        transcription of the paper
``"algebra"``           the public algebra operators: every join-like
                        operator runs the hash build/probe loop (a
                        keyless predicate is one bucket)
``"engine"``            physical planner + iterators (hash equi-joins,
                        vectorized scan/filter/project/join) at the
                        default batch size
``"sqlite"``            transpiled SQL on stdlib sqlite3 (external oracle)
``"batch"``             the ``engine`` tier with the batch size pinned
                        to 2 (:mod:`repro.engine.batch`), so small
                        inputs still cross chunk boundaries, over its
                        own storage with a hash index on every
                        attribute, so base inners of equi-joins run as
                        index nested-loop joins
``"wcoj"``              the cyclic fast path: every maximal *pure-join*
                        subtree with a genuinely cyclic class
                        hypergraph is wrapped in a ``Leapfrog`` node
                        and the engine planner plans the tree, so each
                        such core runs as a Leapfrog Triejoin over
                        sorted tries (:mod:`repro.engine.wcoj`).
                        Declines (skips) when no core is cyclic —
                        acyclic graphs belong to the DP tree, and
                        outerjoins never enter a cyclic core
======================  =====================================================

:func:`cross_check` runs a query through any subset of tiers and demands
pairwise bag-equality of the results (pairwise equality is checked
against the first tier that ran; equality is transitive).  Every tier
is tried on every query; a tier that *declines* one — ``wcoj`` finds no
cyclic core, the transpiler refuses an opaque predicate — raises a
:class:`ReproError` and is recorded as skipped rather than failed,
unless ``strict=True``.  A tier that raises any other exception fails
the check with the exception's type and message (``errors``), so a
fuzz campaign shrinks the case and writes a reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.algebra.comparison import RelationDiff, bag_equal, explain_difference
from repro.algebra.operators import ORACLE_OPS
from repro.algebra.relation import Database, Relation
from repro.core.expressions import Expression, Join, Rel, replace_at
from repro.core.graph import graph_of
from repro.core.wcoj_order import Leapfrog, wcoj_spec_of
from repro.observability.spans import maybe_span
from repro.tools import instrumentation
from repro.util.errors import PlanningError, ReproError

#: Every known tier, in oracle-first order (the first tier that runs
#: becomes the comparison baseline, so the semantic oracle leads).
EXECUTOR_TIERS: Tuple[str, ...] = (
    "naive",
    "algebra",
    "engine",
    "sqlite",
    "batch",
    "wcoj",
)

#: Tiers that evaluate through :class:`~repro.engine.storage.Storage`;
#: all but ``batch`` (which indexes its own) share an unindexed instance.
_STORAGE_TIERS = frozenset({"engine", "batch", "wcoj"})


def require_known_tiers(names) -> None:
    """Raise :class:`ValueError` naming every unknown tier in ``names``."""
    unknown = [name for name in names if name not in EXECUTOR_TIERS]
    if unknown:
        raise ValueError(
            f"unknown executor tier(s) {unknown}; known: {', '.join(EXECUTOR_TIERS)}"
        )


def run_executor(
    name: str,
    expr: Expression,
    db: Database,
    storage=None,
    oracle=None,
) -> Relation:
    """Evaluate ``expr`` on one tier.

    ``storage`` (for the ``engine`` and ``wcoj`` tiers; ``batch``
    indexes its own) and ``oracle`` (a live
    :class:`~repro.conformance.sqlite_oracle.SQLiteOracle`) may be passed
    in to amortize setup across many calls; both are derived from ``db``
    on demand otherwise.
    """
    if name == "naive":
        return expr.eval(db, ops=ORACLE_OPS)
    if name == "algebra":
        return expr.eval(db)
    if name in _STORAGE_TIERS:
        from repro.engine.executor import execute_plan
        from repro.engine.planner import Planner
        from repro.engine.storage import Storage
        from repro.util.fastpath import batch_sized

        if name == "batch":
            storage = Storage.from_database(db)
            for table in storage.values():
                for attribute in table.schema:
                    table.create_index(attribute)
        elif storage is None:
            storage = Storage.from_database(db)
        if name == "wcoj":
            expr = _leapfrog_cores(expr, storage.registry)
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
    raise ValueError(f"unknown executor tier {name!r}; known: {', '.join(EXECUTOR_TIERS)}")


def _leapfrog_cores(expr: Expression, registry) -> Expression:
    """``expr`` with each maximal cyclic join core wrapped in ``Leapfrog``.

    A *core* is a pure tree of Rel/Join; outerjoins never enter one
    (Theorem 1 certifies reordering them only on the implementing-tree
    side).  Each maximal core whose attribute-class hypergraph is
    genuinely cyclic becomes a Leapfrog node; the rest stays as written.
    Raises :class:`PlanningError` (a cross-check *skip*) when no core is
    cyclic, so the tier never silently duplicates ``engine``.
    """
    wrapped, core = expr, None
    for path, node in expr.nodes():  # pre-order: a core's subtree follows it
        if core is not None and path[: len(core)] == core:
            continue
        if isinstance(node, Join) and all(isinstance(n, (Join, Rel)) for _p, n in node.nodes()):
            core = path
            spec = wcoj_spec_of(graph_of(node, registry), registry)
            if spec is not None:
                wrapped = replace_at(wrapped, path, Leapfrog(node, spec))
    if wrapped is expr:
        raise PlanningError("wcoj tier declines: no cyclic join core")
    return wrapped


@dataclass
class CheckResult:
    """Outcome of one differential check across executor tiers."""

    expr: Expression
    baseline: Optional[str] = None
    results: Dict[str, Relation] = field(default_factory=dict)
    skipped: Dict[str, str] = field(default_factory=dict)
    mismatches: List[Tuple[str, str, RelationDiff]] = field(default_factory=list)
    #: Tier -> ``"ExceptionType: message"`` of an unexpected exception.
    errors: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.errors

    def summary(self) -> str:
        if self.ok:
            ran = ", ".join(sorted(self.results))
            skip = f" (skipped: {', '.join(sorted(self.skipped))})" if self.skipped else ""
            return f"agree across [{ran}]{skip}"
        failures = len(self.mismatches) + len(self.errors)
        lines = [f"{failures} tier disagreement(s) on {self.expr!r}:"]
        for a, b, diff in self.mismatches:
            lines.append(f"  {a} vs {b}: {diff}")
        for name, error in sorted(self.errors.items()):
            lines.append(f"  {name} raised {error}")
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
    lowering, ...) is recorded in ``skipped`` unless ``strict``.  A tier
    raising any other exception fails the check: ``errors`` records the
    exception's type and message under the tier's name (``strict``
    re-raises it), so a fuzz campaign shrinks the case and writes a
    reproducer instead of stopping.  An unknown tier name raises
    :class:`ValueError` before any tier runs: it is a typo or a stale
    artifact, not a tier declining the query.
    """
    require_known_tiers(executors)
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
                except Exception as exc:
                    if strict:
                        raise
                    result.errors[name] = f"{type(exc).__name__}: {exc}"
                    if tier_span is not None:
                        tier_span.set(outcome="error", reason=result.errors[name][:200])
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
            check_span.counters["tier_errors"] = len(result.errors)
    return result
