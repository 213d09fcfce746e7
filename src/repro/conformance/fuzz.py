"""Coverage-aware differential fuzzing across the executor tiers.

Each fuzz *case* is a complete experiment: a random scenario, a random
database over its schemas, a random query, and the list of executor
tiers that can run it.  Running a case cross-checks all tiers pairwise
(:func:`repro.conformance.check.cross_check`); any disagreement is
shrunk (:func:`repro.conformance.shrink.shrink_case`) and written as a
replayable JSON artifact.

Coverage steering: the campaign keeps a counter of generated features
(topology family, extended operator) and each new case picks the
*least-covered* option, so long campaigns rotate through the whole
feature grid instead of oversampling the default shapes.  The steering
is deterministic — one master seed fixes the entire case sequence,
including every steered choice — which the seed-determinism tests
assert byte-for-byte.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.relation import Database
from repro.conformance.check import EXECUTOR_TIERS, CheckResult, cross_check
from repro.conformance.serialize import case_dumps, case_from_json
from repro.conformance.shrink import shrink_case
from repro.core.enumeration import count_implementing_trees
from repro.core.expressions import Expression
from repro.datagen.queries import (
    EXTENDED_OPS,
    TOPOLOGY_KINDS,
    random_query,
    random_scenario,
)
from repro.datagen.random_db import random_database
from repro.tools import instrumentation
from repro.util.rng import make_rng


@dataclass
class FuzzCase:
    """One self-contained differential experiment."""

    seed: int
    description: str
    executors: Tuple[str, ...]
    database: Database
    expression: Expression


def _least_covered(options: Sequence[str], prefix: str, coverage: Counter, rng) -> str:
    """The option with minimal coverage; ties broken by the case rng."""
    lowest = min(coverage[f"{prefix}:{o}"] for o in options)
    candidates = [o for o in options if coverage[f"{prefix}:{o}"] == lowest]
    return candidates[0] if len(candidates) == 1 else rng.choice(candidates)


def _validated_topologies(topologies: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """The topology filter as a validated tuple (default: every kind).

    An unknown name — or a filter that matches *nothing* — is an error,
    not a silent no-op: a campaign invoked with a typo'd ``--topologies``
    used to fall through to the full grid and report green coverage on
    families it never ran.
    """
    if topologies is None:
        return tuple(TOPOLOGY_KINDS)
    chosen = tuple(topologies)
    unknown = [t for t in chosen if t not in TOPOLOGY_KINDS]
    if unknown or not chosen:
        raise ValueError(
            f"unknown topology kind(s) {unknown or '<empty>'}; "
            f"expected a non-empty subset of {tuple(TOPOLOGY_KINDS)}"
        )
    return chosen


def generate_case(
    seed: int,
    coverage: Optional[Counter] = None,
    executors: Tuple[str, ...] = EXECUTOR_TIERS,
    topologies: Optional[Sequence[str]] = None,
) -> FuzzCase:
    """Generate one case; updates ``coverage`` with the chosen features.

    Regenerating a case from its seed requires the same coverage state
    (the steering reads it), so reproducers are persisted as full JSON
    artifacts rather than as seeds.  ``topologies`` restricts the steered
    topology choice (default: all of ``TOPOLOGY_KINDS``) — campaigns use
    it to focus on acyclic families.
    """
    if coverage is None:
        coverage = Counter()
    rng = make_rng(seed)
    topology = _least_covered(
        _validated_topologies(topologies), "topology", coverage, rng
    )
    extended = _least_covered(EXTENDED_OPS, "op", coverage, rng)
    coverage[f"topology:{topology}"] += 1
    coverage[f"op:{extended}"] += 1

    # Arbitrary random graphs may have no implementing trees at all (e.g.
    # two outerjoin arrows meeting head-on leave no legal root cut);
    # resample until realizable, falling back to a chain.
    scenario = random_scenario(rng, kind=topology)
    for _ in range(20):
        if count_implementing_trees(scenario.graph) > 0:
            break
        scenario = random_scenario(rng, kind=topology)
    else:
        scenario = random_scenario(rng, kind="chain")
    db = random_database(
        scenario.schemas,
        seed=rng,
        max_rows=rng.randint(2, 6),
        domain=rng.choice((2, 3, 4)),
        null_probability=rng.choice((0.0, 0.15, 0.35)),
        duplicate_probability=rng.choice((0.0, 0.3)),
    )
    expr = random_query(scenario, rng, extended=extended)
    return FuzzCase(
        seed=seed,
        description=f"{scenario.name} op={extended}",
        executors=tuple(executors),
        database=db,
        expression=expr,
    )


def run_case(case: FuzzCase) -> CheckResult:
    """Differentially check one case across its executor tiers."""
    instrumentation.bump("fuzz_cases")
    return cross_check(case.expression, case.database, executors=case.executors)


@dataclass
class CampaignFailure:
    """A disagreement found by a campaign, after shrinking."""

    case: FuzzCase
    shrunk: FuzzCase
    result: CheckResult
    artifact: Optional[str] = None

    def summary(self) -> str:
        where = f" -> {self.artifact}" if self.artifact else ""
        return (
            f"seed={self.case.seed} ({self.case.description}): "
            f"{self.result.summary()}{where}"
        )


@dataclass
class CampaignReport:
    """Everything a campaign did: counts, coverage, and failures."""

    cases: int = 0
    failures: List[CampaignFailure] = field(default_factory=list)
    coverage: Dict[str, int] = field(default_factory=dict)
    skipped_tiers: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz campaign: {self.cases} cases, {len(self.failures)} disagreement(s)"
        ]
        for key in sorted(self.coverage):
            lines.append(f"  coverage {key}: {self.coverage[key]}")
        for key in sorted(self.skipped_tiers):
            lines.append(f"  skipped {key}: {self.skipped_tiers[key]} case(s)")
        for failure in self.failures:
            lines.append(f"  FAIL {failure.summary()}")
        return "\n".join(lines)


def save_artifact(case: FuzzCase, directory: str) -> str:
    """Write a replayable reproducer JSON; returns its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"repro-{case.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(case_dumps(case))
    return path


def run_campaign(
    cases: int,
    seed: int = 0,
    executors: Tuple[str, ...] = EXECUTOR_TIERS,
    artifacts_dir: Optional[str] = None,
    shrink: bool = True,
    topologies: Optional[Sequence[str]] = None,
) -> CampaignReport:
    """Run a fixed-seed campaign of ``cases`` differential checks.

    On each disagreement the case is shrunk to a minimal reproducer and,
    when ``artifacts_dir`` is given, persisted there as JSON.  The
    report's ``ok`` property is the campaign verdict.  ``topologies``
    narrows the graph families the generator draws from.
    """
    coverage: Counter = Counter()
    report = CampaignReport()
    master = make_rng(seed)
    for _ in range(cases):
        case = generate_case(master.randrange(2**32), coverage, executors, topologies=topologies)
        result = run_case(case)
        report.cases += 1
        for tier in result.skipped:
            report.skipped_tiers[tier] = report.skipped_tiers.get(tier, 0) + 1
        if result.ok:
            continue
        instrumentation.bump("fuzz_failures")
        shrunk = shrink_case(case) if shrink else case
        final = cross_check(shrunk.expression, shrunk.database, executors=shrunk.executors)
        if final.ok:  # shrinking lost the bug somehow; keep the original
            shrunk, final = case, result
        artifact = save_artifact(shrunk, artifacts_dir) if artifacts_dir else None
        report.failures.append(
            CampaignFailure(case=case, shrunk=shrunk, result=final, artifact=artifact)
        )
    report.coverage = dict(coverage)
    return report


def replay_artifact(path: str) -> Tuple[FuzzCase, CheckResult]:
    """Load a reproducer JSON and re-run its differential check."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    case = case_from_json(doc)
    return case, run_case(case)
