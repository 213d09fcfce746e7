"""Service + plan-cache benchmark: cold vs cached, 1/2/4/8 workers.

Produces the PR-4 benchmark artifact (``BENCH_PR4.json`` by default)::

    python -m repro.tools.servicebench --out BENCH_PR4.json
    python -m repro.tools.servicebench --smoke          # CI-sized
    python -m repro.tools.servicebench --stress         # overload drill

Three sections, one claim each:

* ``plan_cache`` — per-query optimization latency with a cold cache
  (every query pays simplify + push + certify + leaf statistics + DP)
  versus a warm one (repeated shapes replay the cached tree).  The
  headline is the speedup ratio; the acceptance bar is >= 3x.
* ``concurrency`` — a :class:`~repro.service.QueryService` at 1, 2, 4,
  and 8 workers, each measured twice: ``cold`` (caching off) and
  ``cached`` (shared primed cache).  Python threads share the GIL, so
  the point is not linear scaling but that throughput *holds* under
  concurrency and the cache multiplier survives it.
* ``conformance`` — :func:`repro.conformance.check_plan_cache` over
  randomized queries: every replayed plan bag-equal to the naive
  oracle.  The report embeds the tally so the artifact is
  self-certifying.

``--stress`` adds an overload drill (tiny queue, tight deadlines,
explicit cancellations) asserting the service degrades by *resolving*
every ticket — shed, timed out, or served — rather than wedging.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from time import monotonic, perf_counter
from typing import Any, Dict, List, Optional, Sequence

from repro.conformance.plancache_check import check_plan_cache
from repro.core.enumeration import sample_implementing_tree
from repro.core.expressions import Expression, Restrict
from repro.algebra.predicates import Comparison
from repro.datagen.random_db import random_database
from repro.datagen.topologies import GraphScenario, chain
from repro.engine.storage import Storage
from repro.optimizer.pipeline import optimize_query
from repro.optimizer.plancache import PlanCache
from repro.service import QueryService
from repro.util.rng import make_rng

#: The benchmark's worker grid.  Explicit and constant — never derived
#: from ``os.cpu_count()`` — so the 1/2/4/8 sweep means the same thing on
#: a 2-core CI runner as on a big box, and artifacts are comparable.
WORKER_COUNTS = (1, 2, 4, 8)


def build_scenario(relations: int = 6) -> GraphScenario:
    """The bench scenario: a join/outerjoin chain long enough to make DP real."""
    kinds = ["join" if i % 3 else "out" for i in range(relations - 1)]
    return chain(relations, kinds, name=f"servicebench-chain{relations}")


def build_storage(scenario: GraphScenario, rows: int, seed: int) -> Storage:
    db = random_database(
        scenario.schemas, seed=seed, max_rows=rows, domain=max(rows // 4, 4),
        null_probability=0.1,
    )
    return Storage.from_database(db)


def build_workload(
    scenario: GraphScenario, shapes: int, seed: int
) -> List[Expression]:
    """``shapes`` distinct query shapes (distinct fingerprints) over the scenario.

    Each shape is an implementing tree plus a strong restriction whose
    constant varies — the constant is part of the predicate signature, so
    every shape is its own cache entry, and the trees vary so replay
    crosses tree boundaries (Theorem 1 in action).
    """
    rng = make_rng(seed)
    nodes = sorted(scenario.schemas)
    queries: List[Expression] = []
    for i in range(shapes):
        tree = sample_implementing_tree(scenario.graph, rng)
        attr = f"{rng.choice(nodes)}.b"
        queries.append(Restrict(tree, Comparison(attr, "<=", i)))
    return queries


def bench_plan_cache(
    storage: Storage, workload: Sequence[Expression], repeats: int
) -> Dict[str, Any]:
    """Cold vs warm optimization latency over ``repeats`` passes."""
    cold_s = 0.0
    cold_queries = 0
    for _ in range(repeats):
        for query in workload:
            start = perf_counter()
            optimize_query(query, storage, use_cache=False)
            cold_s += perf_counter() - start
            cold_queries += 1

    cache = PlanCache(capacity=max(len(workload) * 2, 8))
    for query in workload:  # prime
        optimize_query(query, storage, cache=cache)
    warm_s = 0.0
    warm_queries = 0
    for _ in range(repeats):
        for query in workload:
            start = perf_counter()
            result = optimize_query(query, storage, cache=cache)
            warm_s += perf_counter() - start
            warm_queries += 1
            assert result.cache_hit, "warm pass must hit the primed cache"
    cold_ms = cold_s * 1e3 / cold_queries
    warm_ms = warm_s * 1e3 / warm_queries
    return {
        "queries": cold_queries,
        "cold_ms_per_query": round(cold_ms, 4),
        "warm_ms_per_query": round(warm_ms, 4),
        "speedup": round(cold_ms / warm_ms, 2) if warm_ms else None,
        "cache": cache.snapshot(),
    }


def bench_concurrency(
    storage: Storage,
    workload: Sequence[Expression],
    queries_per_run: int,
    workers_grid: Sequence[int] = WORKER_COUNTS,
) -> List[Dict[str, Any]]:
    """Throughput at each worker count, cold and cached.

    Every service is constructed with an *explicit* worker count, so the
    measurement is deterministic regardless of the host CPU count.
    """
    rows: List[Dict[str, Any]] = []
    batch = [workload[i % len(workload)] for i in range(queries_per_run)]
    for workers in workers_grid:
        for mode in ("cold", "cached"):
            if mode == "cached":
                cache = PlanCache(capacity=max(len(workload) * 2, 8))
                for query in workload:
                    optimize_query(query, storage, cache=cache)
                service = QueryService(
                    storage, workers=workers, queue_size=queries_per_run, plan_cache=cache
                )
            else:
                service = QueryService(
                    storage, workers=workers, queue_size=queries_per_run, use_cache=False
                )
            with service:
                start = monotonic()
                tickets = service.submit_batch(batch)
                outcomes = [t.result(timeout=600) for t in tickets]
                elapsed = monotonic() - start
            ok = sum(1 for o in outcomes if o.ok)
            hits = sum(1 for o in outcomes if o.cache_hit)
            row: Dict[str, Any] = {
                "workers": workers,
                "mode": mode,
                "queries": len(outcomes),
                "ok": ok,
                "cache_hits": hits,
                "elapsed_s": round(elapsed, 4),
                "qps": round(len(outcomes) / elapsed, 2) if elapsed else None,
            }
            rows.append(row)
    return rows


def stress_drill(
    storage: Storage, workload: Sequence[Expression], queries: int, seed: int
) -> Dict[str, Any]:
    """Overload the service on purpose; every ticket must still resolve."""
    rng = make_rng(seed)
    service = QueryService(
        storage, workers=4, queue_size=8, use_cache=True,
        plan_cache=PlanCache(capacity=64), default_timeout_s=2.0,
    )
    outcomes: Dict[str, int] = {}
    with service:
        tickets = []
        for i in range(queries):
            query = workload[i % len(workload)]
            timeout = rng.choice((0.001, 0.05, 2.0, None))
            ticket = service.submit(query, timeout_s=timeout)
            if rng.random() < 0.1:
                ticket.cancel()
            tickets.append(ticket)
        for ticket in tickets:
            status = ticket.result(timeout=600).status
            outcomes[status] = outcomes.get(status, 0) + 1
    resolved = sum(outcomes.values())
    return {
        "queries": queries,
        "resolved": resolved,
        "outcomes": outcomes,
        "all_resolved": resolved == queries,
        "service": service.snapshot(),
    }


def run(
    out_path: Optional[str],
    smoke: bool = False,
    stress: bool = False,
    seed: int = 0,
    out=sys.stdout,
) -> Dict[str, Any]:
    relations = 5 if smoke else 6
    rows = 30 if smoke else 80
    shapes = 4 if smoke else 8
    repeats = 3 if smoke else 10
    queries_per_run = 24 if smoke else 96
    conformance_cases = 50 if smoke else 200

    scenario = build_scenario(relations)
    storage = build_storage(scenario, rows=rows, seed=seed + 1)
    workload = build_workload(scenario, shapes=shapes, seed=seed + 2)

    report: Dict[str, Any] = {
        "meta": {
            "artifact": "BENCH_PR4",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "smoke": smoke,
            "seed": seed,
            "scenario": scenario.name,
            "rows_per_table": rows,
            "workload_shapes": shapes,
            "worker_grid": list(WORKER_COUNTS),
            "worker_sizing": "explicit",
        }
    }

    print(f"[servicebench] plan cache: {shapes} shapes x {repeats} repeats", file=out)
    report["plan_cache"] = bench_plan_cache(storage, workload, repeats=repeats)
    print(
        f"  cold {report['plan_cache']['cold_ms_per_query']} ms/q, "
        f"warm {report['plan_cache']['warm_ms_per_query']} ms/q, "
        f"speedup {report['plan_cache']['speedup']}x",
        file=out,
    )

    print(f"[servicebench] concurrency: workers {list(WORKER_COUNTS)}", file=out)
    report["concurrency"] = bench_concurrency(
        storage, workload, queries_per_run=queries_per_run
    )
    for row in report["concurrency"]:
        print(
            f"  workers={row['workers']} mode={row['mode']}: "
            f"{row['qps']} q/s ({row['ok']}/{row['queries']} ok)",
            file=out,
        )

    print(f"[servicebench] conformance: {conformance_cases} cases", file=out)
    conf = check_plan_cache(cases=conformance_cases, seed=seed)
    report["conformance"] = {
        "cases": conf.cases,
        "cache_hits": conf.hits,
        "reorderable": conf.reorderable,
        "mismatches": conf.mismatches,
        "ok": conf.ok,
    }
    print(f"  {conf.summary().splitlines()[0]}", file=out)

    if stress:
        print("[servicebench] stress: 4 workers, queue 8, mixed deadlines", file=out)
        report["stress"] = stress_drill(
            storage, workload, queries=120 if smoke else 400, seed=seed + 3
        )
        print(
            f"  resolved {report['stress']['resolved']}/{report['stress']['queries']}: "
            f"{report['stress']['outcomes']}",
            file=out,
        )

    from repro.tools.benchschema import validate_servicebench_report

    validate_servicebench_report(report)
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[servicebench] wrote {out_path}", file=out)
    return report


def verify(report: Dict[str, Any], min_speedup: float = 3.0) -> List[str]:
    """Acceptance checks over a report; returns a list of violations."""
    problems: List[str] = []
    speedup = report.get("plan_cache", {}).get("speedup")
    if speedup is None or speedup < min_speedup:
        problems.append(f"plan-cache speedup {speedup} < required {min_speedup}x")
    seen = {(row["workers"], row["mode"]) for row in report.get("concurrency", ())}
    for workers in WORKER_COUNTS:
        for mode in ("cold", "cached"):
            if (workers, mode) not in seen:
                problems.append(f"missing concurrency row workers={workers} mode={mode}")
    for row in report.get("concurrency", ()):
        if row["ok"] != row["queries"]:
            problems.append(
                f"concurrency workers={row['workers']} mode={row['mode']}: "
                f"{row['queries'] - row['ok']} non-ok outcomes"
            )
    conf = report.get("conformance", {})
    if not conf.get("ok"):
        problems.append(f"conformance mismatches: {conf.get('mismatches')}")
    stress = report.get("stress")
    if stress is not None and not stress.get("all_resolved"):
        problems.append("stress drill left unresolved tickets")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.servicebench",
        description="benchmark the query service and plan cache, write BENCH_PR4.json",
    )
    parser.add_argument("--out", default="BENCH_PR4.json", help="output JSON path")
    parser.add_argument("--no-out", action="store_true", help="skip writing the artifact")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes for CI")
    parser.add_argument("--stress", action="store_true", help="add the overload drill")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="fail unless cached/cold speedup reaches this (default 3.0)",
    )
    args = parser.parse_args(argv)
    report = run(
        None if args.no_out else args.out,
        smoke=args.smoke,
        stress=args.stress,
        seed=args.seed,
    )
    problems = verify(report, min_speedup=args.min_speedup)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
