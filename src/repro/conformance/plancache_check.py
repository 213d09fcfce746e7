"""Conformance mode for plan-cache replay: cached results must be bag-equal.

Theorem 1 is what makes the plan cache *sound*: every valid implementing
tree of a nice graph with strong predicates computes the same result, so
replaying the tree cached for one query against a different query with
the same canonical fingerprint cannot change semantics.  This module
checks the claim end to end, the same way the differential fuzzer checks
the executors: generate a random scenario, sample **two different
implementing trees** of its graph, optimize both through one shared
:class:`~repro.optimizer.plancache.PlanCache` (the second must hit), and
demand the replayed plan's engine result is bag-equal to the *naive*
algebra evaluation of the second tree — the slow transcription of the
paper's definitions, evaluated with the oracle operator table.  The
replayed plan is the one the service would serve: the physical plan of
the tree the second optimization chose, a Leapfrog node included.

Graphs that are not freely reorderable are exercised too, with one
twist: two implementing trees of a *non-nice* graph are inequivalent
queries in general (Example 2), and the pipeline's simplification step
can legitimately fire for one tree shape but not another (a strong join
predicate sitting above an outerjoin converts it; the same predicate
below does not) — so their fingerprints may rightly differ.  Those
cases therefore replay the *same* written tree twice: the cache must
hit on the verdict, keep the written order, and still agree with the
oracle.  Fingerprint identity across *different* trees is asserted
exactly when Theorem 1 applies — which is the theorem's own scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.algebra.comparison import bag_equal
from repro.algebra.operators import ORACLE_OPS
from repro.core.enumeration import count_implementing_trees, sample_implementing_tree
from repro.core.reorderability import theorem1_applies
from repro.datagen.queries import random_scenario
from repro.datagen.random_db import random_database
from repro.engine.executor import execute_plan, plan_expression
from repro.engine.storage import Storage
from repro.optimizer.pipeline import optimize_query
from repro.optimizer.plancache import PlanCache
from repro.tools import instrumentation
from repro.util.rng import make_rng


@dataclass
class PlanCacheReport:
    """Tally of one plan-cache conformance run."""

    cases: int = 0
    hits: int = 0
    reorderable: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        lines = [
            f"plan-cache conformance: {self.cases} cases, {self.hits} cache hit(s), "
            f"{self.reorderable} freely reorderable, {len(self.mismatches)} mismatch(es)"
        ]
        for mismatch in self.mismatches:
            lines.append(f"  FAIL {mismatch}")
        return "\n".join(lines)


def check_plan_cache(cases: int = 200, seed: int = 0) -> PlanCacheReport:
    """Run ``cases`` cached-vs-oracle experiments; report disagreements.

    Each case uses a *fresh private* cache so the hit being asserted is
    exactly the one the case just stored — the process-wide default cache
    is never touched.
    """
    master = make_rng(seed)
    report = PlanCacheReport()
    while report.cases < cases:
        case_seed = master.randrange(2**32)
        rng = make_rng(case_seed)
        scenario = random_scenario(rng)
        for _ in range(20):
            if count_implementing_trees(scenario.graph) > 0:
                break
            scenario = random_scenario(rng)
        else:
            scenario = random_scenario(rng, kind="chain")
        db = random_database(
            scenario.schemas,
            seed=rng,
            max_rows=rng.randint(2, 6),
            domain=rng.choice((2, 3, 4)),
            null_probability=rng.choice((0.0, 0.2)),
        )
        first = sample_implementing_tree(scenario.graph, rng)
        # Only when Theorem 1 holds are two distinct trees of the graph
        # interchangeable (and guaranteed to share a fingerprint); for
        # non-reorderable graphs the cache is exercised by replaying the
        # same written query, which is all it may ever amortize there.
        verdict = theorem1_applies(scenario.graph, scenario.registry)
        second = (
            sample_implementing_tree(scenario.graph, rng)
            if verdict.freely_reorderable
            else first
        )
        storage = Storage.from_database(db)
        report.cases += 1
        instrumentation.bump("plancache_conformance_cases")
        if verdict.freely_reorderable:
            report.reorderable += 1

        cache = PlanCache(capacity=16)
        r1 = optimize_query(first, storage, cache=cache)
        r2 = optimize_query(second, storage, cache=cache)

        label = f"seed={case_seed} ({scenario.name})"
        if r1.fingerprint != r2.fingerprint:
            report.mismatches.append(
                f"{label}: fingerprints differ for equivalent trees: "
                f"{r1.fingerprint} vs {r2.fingerprint}"
            )
            continue
        if r1.fingerprint is not None and not r2.cache_hit:
            report.mismatches.append(f"{label}: second optimization missed the cache")
            continue
        if r2.cache_hit:
            report.hits += 1

        replayed = execute_plan(plan_expression(r2.chosen, storage)).relation
        oracle = second.eval(db, ops=ORACLE_OPS)
        if not bag_equal(replayed, oracle):
            instrumentation.bump("plancache_conformance_failures")
            report.mismatches.append(
                f"{label}: replayed plan disagrees with naive oracle "
                f"({len(replayed)} vs {len(oracle)} rows)"
            )
    return report
