"""Differential conformance harness: machine-checked semantic equivalence.

The paper's claims are equivalence claims — identities 1-16 and Theorem 1
all assert that differently-shaped trees compute *the same relation* — so
this package makes equivalence checking a first-class subsystem with
three independent oracle tiers:

1. **naive algebra** (``executors="naive"``): the nested-loop operators
   that transcribe the paper's definitions, passed to the evaluator as
   the oracle operator table — the in-tree semantic truth;
2. **fast tiers** (``"algebra"``, ``"engine"``, ...): the public algebra
   operators (the hash build/probe loop, which shares no join code with
   the oracle) and the engine's plans — the code we actually want to
   trust;
3. **SQLite** (``"sqlite"``): the stdlib ``sqlite3`` engine running a
   transpiled form of the same query — an oracle that shares *no code*
   with this library.

On top of the tiers sit :func:`check_plan_space` (run every implementing
tree and every optimizer output of a query graph and require pairwise
bag-equality — Theorem 1 as an executable assertion) and the
coverage-aware differential fuzzer (:mod:`repro.conformance.fuzz`) that
shrinks any mismatch to a minimal, replayable JSON reproducer.
"""

from repro.conformance.check import (
    EXECUTOR_TIERS,
    CheckResult,
    cross_check,
    run_executor,
)
from repro.conformance.equivalence import PlanSpaceReport, check_plan_space
from repro.conformance.fuzz import (
    CampaignReport,
    FuzzCase,
    generate_case,
    replay_artifact,
    run_campaign,
    run_case,
)
from repro.conformance.plancache_check import PlanCacheReport, check_plan_cache
from repro.conformance.serialize import (
    case_dumps,
    case_from_json,
    case_to_json,
    database_from_json,
    database_to_json,
    expression_from_json,
    expression_to_json,
)
from repro.conformance.shrink import shrink_case
from repro.conformance.sqlite_oracle import (
    SQLiteOracle,
    TranspileError,
    to_sqlite_sql,
)

__all__ = [
    "CampaignReport",
    "CheckResult",
    "EXECUTOR_TIERS",
    "FuzzCase",
    "PlanCacheReport",
    "PlanSpaceReport",
    "SQLiteOracle",
    "TranspileError",
    "case_dumps",
    "case_from_json",
    "case_to_json",
    "check_plan_cache",
    "check_plan_space",
    "cross_check",
    "database_from_json",
    "database_to_json",
    "expression_from_json",
    "expression_to_json",
    "generate_case",
    "replay_artifact",
    "run_campaign",
    "run_case",
    "run_executor",
    "shrink_case",
    "to_sqlite_sql",
]
