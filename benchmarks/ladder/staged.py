"""The traced run: bench-side spans around each layer's public functions.

Nothing inside the program is instrumented here and the ambient tracer is
left as shipped.  A single-threaded *staged driver* replays a workload's
queries through the same public calls ``QueryService._run`` makes
(``optimize_query`` -> ``Planner.plan`` -> ``execute_plan``), one span per
call, and once per distinct shape runs *probes*: the optimizer's stages one
by one, a cold pipeline, a bare drain, the fast path the service does not
take, SQLite-native.  Spans are ``(name, start, end, parent, query id)``
rows held in memory and written out at the end; a layer's self time is its
span minus its children.  Counts come from ``Metrics``, ``PlanCache`` and
``QueryService`` snapshots, ``QueryOutcome`` and instrumentation deltas.

A short stretch of real service traffic (closed loop, or the three fixed
rates of the open loop) supplies the ``service.*`` metrics.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.expressions import Expression, Rel, Restrict
from repro.core.graph import graph_of
from repro.core.pushdown import push_restrictions
from repro.core.reorderability import theorem1_applies
from repro.core.simplify import simplify_outerjoins
from repro.engine.executor import execute_plan
from repro.engine.metrics import Metrics
from repro.engine.planner import Planner
from repro.engine.storage import Storage
from repro.engine.wcoj import build_wcoj_plan
from repro.engine.yannakakis import build_yannakakis_plan
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import RetrievalCostModel
from repro.optimizer.dp import DPOptimizer
from repro.optimizer.pipeline import optimize_query
from repro.optimizer.plancache import PlanCache
from repro.tools import instrumentation
from repro.util.errors import GraphUndefinedError

import harness as H
import workloads as W
from report import Outcome

#: Queries the staged driver replays (fixed, so every count repeats
#: exactly) and shapes the cold workload probes (a multiple of ten keeps
#: the planted kind shares exact).
REPLAY = {"report_oj_warm": 100, "adhoc_plan_cold": 150, "cyclic_skew_warm": 100, "mixed_open_writes": 300}
COLD_PROBES = 50
PROBE_REPEATS = 3

#: Share of ``--seconds`` spent on real service traffic in the traced run.
SERVICE_SHARE_CLOSED = 0.3
SERVICE_SHARE_OPEN = 0.75


class Spans:
    """In-memory span rows; ``on=False`` records nothing (overhead baseline)."""

    def __init__(self, on: bool = True):
        self.on = on
        self.rows: List[Optional[Tuple[str, float, float, Optional[int], int]]] = []
        self._stack: List[int] = []

    def span(self, name: str, query_id: int):
        return self._record(name, query_id) if self.on else nullcontext()

    @contextmanager
    def _record(self, name: str, query_id: int) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.rows)
        self.rows.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.rows[index] = (name, start, end, parent, query_id)

    def durations(self, since: int = 0) -> Dict[str, List[Tuple[int, float]]]:
        """Span name -> [(query id, duration)] over the rows from ``since`` on."""
        found: Dict[str, List[Tuple[int, float]]] = defaultdict(list)
        for row in self.rows[since:]:
            if row:
                found[row[0]].append((row[4], row[2] - row[1]))
        return found

    def self_times(self, since: int = 0) -> Dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child_time: Dict[int, float] = defaultdict(float)
        for row in self.rows[since:]:
            if row and row[3] is not None:
                child_time[row[3]] += row[2] - row[1]
        totals: Dict[str, float] = defaultdict(float)
        for index, row in enumerate(self.rows[since:], start=since):
            if row:
                totals[row[0]] += (row[2] - row[1]) - child_time[index]
        return totals

    def dump(self, path: Path) -> None:
        with path.open("w") as handle:
            for index, row in enumerate(self.rows):
                if row:
                    name, start, end, parent, query_id = row
                    handle.write(
                        json.dumps(
                            {"id": index, "name": name, "start": start, "end": end,
                             "parent": parent, "query": query_id}
                        )
                        + "\n"
                    )


def bare_core(expr: Expression) -> Expression:
    """The join/outerjoin core under pushed leaf restrictions."""
    if isinstance(expr, Restrict) and isinstance(expr.child, Rel):
        return expr.child
    if isinstance(expr, Rel):
        return expr
    kids = expr.children()
    if len(kids) == 2:
        return expr.with_parts(bare_core(kids[0]), bare_core(kids[1]))
    return expr


def served_path(query: Expression, storage: Storage, cache: PlanCache, spans: Spans, query_id: int):
    """What ``QueryService._run`` does for a local query, one span per call."""
    with spans.span("query", query_id):
        with spans.span("optimizer.pipeline", query_id):
            pipeline = optimize_query(query, storage, cost_model="retrieval", cache=cache, use_cache=True)
        with spans.span("engine.planner", query_id):
            plan = Planner(storage).plan(pipeline.chosen)
        with spans.span("engine.executor", query_id):
            execution = execute_plan(plan)
    return pipeline, execution


def probe(query: Expression, storage: Storage, spans: Spans, query_id: int, sqlite, count: bool) -> Dict[str, object]:
    """The per-shape probes; returns the facts (not the times) they found."""
    registry = storage.registry
    facts: Dict[str, object] = {"free": False, "dp_subsets": 0, "wcoj_seeks": 0, "trie_builds": 0}
    with spans.span("probe", query_id):
        with spans.span("core.simplify", query_id):
            simplified = simplify_outerjoins(query, registry)
        with spans.span("core.pushdown", query_id):
            pushed = push_restrictions(simplified.query, registry)
        facts["conversions"] = len(simplified.conversions)
        facts["blocked"] = len(pushed.blocked)
        graph = None
        if pushed.fully_pushed:
            core = bare_core(pushed.query)
            try:
                with spans.span("core.graph", query_id):
                    graph = graph_of(core, registry)
            except GraphUndefinedError:
                graph = None
        if graph is not None:
            with spans.span("core.reorderability", query_id):
                verdict = theorem1_applies(graph, registry)
            facts["free"] = verdict.freely_reorderable
        if facts["free"]:
            model = RetrievalCostModel(CardinalityEstimator(storage), storage)
            before = instrumentation.snapshot()
            with spans.span("optimizer.dp", query_id):
                DPOptimizer(graph, model).optimize()
            facts["dp_subsets"] = instrumentation.delta(before).get("dp_subsets", 0)
        with spans.span("optimizer.pipeline.cold", query_id):
            cold = optimize_query(query, storage, use_cache=False)
        facts["strategy"] = cold.strategy
        plan = Planner(storage).plan(cold.chosen)
        with spans.span("engine.iterators.drain", query_id):
            list(plan.execute(Metrics()))
        with spans.span("engine.executor.local", query_id):
            execute_plan(plan)
        if cold.strategy != "dp":
            before = instrumentation.snapshot()
            with spans.span(f"engine.{cold.strategy}", query_id):
                if cold.strategy == "yannakakis":
                    fast = build_yannakakis_plan(cold.join_tree, storage, cold.leaf_filters)
                else:
                    fast = build_wcoj_plan(cold.wcoj_spec, storage, cold.leaf_filters)
                execute_plan(fast)
            if count:
                moved = instrumentation.delta(before)
                facts["wcoj_seeks"] = moved.get("wcoj_seeks", 0)
                facts["trie_builds"] = moved.get("trie_builds", 0)
        if sqlite is not None:
            with spans.span("backends.sqlite.native", query_id):
                sqlite.execute(query)
    return facts


def replay(workload: W.Workload, count: int, spans: Spans) -> Dict[str, object]:
    """Replay the first ``count`` picks on the served path with a private cache."""
    cache = PlanCache()
    storage = workload.storage
    if workload.cache == "warm":
        for shape in workload.shapes:
            optimize_query(shape.query, storage, cache=cache)
    facts: Dict[str, object] = {"retrieved": 0, "rows_out": 0, "predicate_evals": 0, "hits": set()}
    before = instrumentation.snapshot()
    cpu_start = process_time()
    for query_id in range(count):
        pick = workload.picks[query_id % len(workload.picks)]
        pipeline, execution = served_path(workload.shapes[pick].query, storage, cache, spans, query_id)
        facts["retrieved"] += execution.metrics.total_retrieved
        facts["rows_out"] += len(execution.relation)
        facts["predicate_evals"] += execution.metrics.predicate_evaluations
        if pipeline.cache_hit:
            facts["hits"].add(query_id)
    facts["cpu_s"] = process_time() - cpu_start
    moved = instrumentation.delta(before)
    facts["batch_rows"] = moved.get("batch_rows", 0)
    facts["batches"] = moved.get("batches_emitted", 0)
    return facts


def weighted(per_shape: Dict[int, float], weights: Dict[int, int]) -> float:
    """Mean over the weighted shapes; a shape without the span counts as 0."""
    total = sum(weights.values())
    return sum(weights[s] * per_shape.get(s, 0.0) for s in weights) / total if total else 0.0


@dataclass
class Measured:
    """Everything the traced run observed, before any metric is derived."""

    workload: W.Workload
    n_replay: int
    #: Shapes probed and the weight of each (its picks in the replay; 1 on
    #: the cold workload, whose shapes are each sent once).
    weights: Dict[int, int]
    #: Per probed shape: what the probes found (strategy, counts, ...).
    facts: Dict[int, Dict[str, object]]
    #: Probe span name -> shape -> median duration (s) over the repeats.
    per_shape: Dict[str, Dict[int, float]]
    #: The replay with spans on, and the same with spans off.
    traced: Dict[str, object]
    baseline: Dict[str, object]
    #: Replay span name -> [(query id, duration)], and self time per name.
    replayed: Dict[str, List[Tuple[int, float]]]
    self_time: Dict[str, float]
    #: Real service traffic: one loop per offered rate (one for a closed loop).
    loops: List[H.LoopResult]
    cache_moved: Dict[str, int]
    sqlite_sync_s: float
    verdicts: H.Verdicts
    spans: Spans

    @property
    def latency_loop(self) -> H.LoopResult:
        return self.loops[W.MIXED_LATENCY_RATE] if self.workload.open_loop else self.loops[0]

    @property
    def judged_loops(self) -> List[H.LoopResult]:
        """The loops no query of which should fail.

        The top open-loop rate is offered *in order to* overload the
        service; what it sheds is ``service.shed``, not a failed run.
        """
        return self.loops[:-1] if self.workload.open_loop else self.loops

    def statuses(self) -> Counter:
        total: Counter = Counter()
        for loop in self.loops:
            total.update(loop.side.statuses)
        return total


def measure(name: str, seed: int, seconds: float, sizing: W.Sizing) -> Measured:
    n_replay = REPLAY[name] // 5 if sizing is W.SMOKE else REPLAY[name]
    workload, service = H.set_up(name, seed, sizing)
    storage = workload.storage
    verdicts = H.Verdicts()
    oracle = H.Oracle(workload)
    try:
        oracle.gate(service, H.warm_up_indices(workload), verdicts)
        if workload.cache == "cold":
            service.plan_cache.clear()
        sync_s = oracle.sqlite_sync_s

        # Probes, once per distinct shape.
        if workload.cache == "cold":
            weights = {s: 1 for s in range(min(COLD_PROBES, n_replay, len(workload.shapes)))}
        else:
            weights = dict(Counter(workload.picks[i % len(workload.picks)] for i in range(n_replay)))
        spans = Spans()
        facts: Dict[int, Dict[str, object]] = {}
        for repeat in range(PROBE_REPEATS):
            for shape_index in sorted(weights):
                found = probe(
                    workload.shapes[shape_index].query, storage, spans, shape_index,
                    oracle.sqlite, count=repeat == 0,
                )
                facts.setdefault(shape_index, found)
        per_shape: Dict[str, Dict[int, float]] = {}
        for span_name, pairs in spans.durations().items():
            by_shape: Dict[int, List[float]] = defaultdict(list)
            for shape_index, duration in pairs:
                by_shape[shape_index].append(duration)
            per_shape[span_name] = {s: statistics.median(v) for s, v in by_shape.items()}
        probe_rows = len(spans.rows)

        # Staged replay, spans off then on.
        baseline = replay(workload, n_replay, Spans(on=False))
        traced = replay(workload, n_replay, spans)

        # Real service traffic.
        cache_before = service.plan_cache.snapshot()
        if workload.open_loop:
            window = seconds * SERVICE_SHARE_OPEN / len(W.MIXED_RATES)
            loops: List[H.LoopResult] = []
            for rate in W.MIXED_RATES:
                offset = sum(loop.attempted for loop in loops)
                loops.append(H.open_loop(service, workload, seed, rate, window, pick_offset=offset))
            # Quiesced and past the last write: every shape again.
            oracle.close()
            oracle = H.Oracle(workload)
            oracle.gate(service, range(len(workload.shapes)), verdicts)
        else:
            loops = [H.closed_loop(service, workload, seconds * SERVICE_SHARE_CLOSED, 1)]
            oracle.check_retained(loops[0].retained, verdicts)
        cache_moved = {
            key: value - cache_before[key] for key, value in service.plan_cache.snapshot().items()
        }
    finally:
        oracle.close()
        service.close()
    return Measured(
        workload=workload, n_replay=n_replay, weights=weights, facts=facts, per_shape=per_shape,
        traced=traced, baseline=baseline, replayed=spans.durations(since=probe_rows),
        self_time=spans.self_times(since=probe_rows), loops=loops, cache_moved=cache_moved,
        sqlite_sync_s=sync_s, verdicts=verdicts, spans=spans,
    )


def derive(m: Measured) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer metrics, and those that do not apply to this workload."""
    weights, facts, traced = m.weights, m.facts, m.traced
    out: Dict[str, float] = {}
    absent: List[str] = []

    def ms(span_name: str) -> float:
        return weighted(m.per_shape.get(span_name, {}), weights) * 1e3

    def total(key: str) -> int:
        return sum(weights[s] * int(facts[s][key]) for s in weights)

    def replay_ms(span_name: str) -> float:
        return statistics.fmean(d for _q, d in m.replayed[span_name]) * 1e3

    # core.* and optimizer.*: the probes
    out["core.simplify.ms"] = ms("core.simplify")
    out["core.simplify.conversions"] = total("conversions")
    out["core.pushdown.ms"] = ms("core.pushdown")
    out["core.pushdown.blocked"] = total("blocked")
    out["core.graph.ms"] = ms("core.graph")
    out["core.reorderability.ms"] = ms("core.reorderability")
    out["core.reorderability.free_share"] = total("free") / sum(weights.values())
    out["optimizer.dp.ms"] = ms("optimizer.dp")
    out["optimizer.dp.subsets"] = total("dp_subsets")
    out["optimizer.pipeline.cold_ms"] = ms("optimizer.pipeline.cold")
    out["optimizer.pipeline.residual_ms"] = out["optimizer.pipeline.cold_ms"] - sum(
        out[k] for k in ("core.simplify.ms", "core.pushdown.ms", "core.graph.ms",
                         "core.reorderability.ms", "optimizer.dp.ms")
    )
    for strategy in ("dp", "yannakakis", "wcoj"):
        out[f"optimizer.pipeline.strategy_{strategy}"] = sum(
            weights[s] for s in weights if facts[s]["strategy"] == strategy
        )

    # plan cache: the replay times a hit, the real service counts them
    hit_s = [d for query_id, d in m.replayed["optimizer.pipeline"] if query_id in traced["hits"]]
    if hit_s:
        out["optimizer.plancache.hit_ms"] = statistics.fmean(hit_s) * 1e3
    else:
        absent.append("optimizer.plancache.hit_ms")
    lookups = m.cache_moved["hits"] + m.cache_moved["misses"]
    out["optimizer.plancache.hit_share"] = m.cache_moved["hits"] / lookups if lookups else 0.0
    out["optimizer.plancache.invalidations"] = m.cache_moved["invalidations"]

    # engine.* and algebra.*: the replay for the served path, the probes for the split
    out["engine.planner.ms"] = replay_ms("engine.planner")
    out["engine.executor.ms"] = replay_ms("engine.executor")
    out["engine.executor.rows_retrieved"] = traced["retrieved"]
    out["engine.executor.rows_out"] = traced["rows_out"]
    out["engine.executor.retrieved_per_row_out"] = traced["retrieved"] / max(traced["rows_out"], 1)
    out["engine.executor.predicate_evals"] = traced["predicate_evals"]
    out["engine.iterators.drain_ms"] = ms("engine.iterators.drain")
    out["algebra.relation.materialize_ms"] = ms("engine.executor.local") - ms("engine.iterators.drain")
    out["engine.batch.rows"] = traced["batch_rows"]
    out["engine.batch.batches"] = traced["batches"]
    for strategy in ("yannakakis", "wcoj"):
        eligible = {s: weights[s] for s in weights if facts[s]["strategy"] == strategy}
        if eligible:
            out[f"engine.{strategy}.ms"] = weighted(m.per_shape[f"engine.{strategy}"], eligible) * 1e3
        else:
            absent.append(f"engine.{strategy}.ms")
    out["engine.wcoj.seeks"] = total("wcoj_seeks")
    out["engine.wcoj.trie_builds"] = total("trie_builds")

    # backends.sqlite: the yardstick
    if m.per_shape.get("backends.sqlite.native"):
        out["backends.sqlite.sync_s"] = m.sqlite_sync_s
        out["backends.sqlite.native_ms"] = ms("backends.sqlite.native")
        out["backends.sqlite.local_over_native"] = ms("engine.executor.local") / ms("backends.sqlite.native")
    else:
        absent += ["backends.sqlite.sync_s", "backends.sqlite.native_ms", "backends.sqlite.local_over_native"]

    # service.* and the load generator: the real traffic
    main = m.latency_loop
    out.update(main.side.per_query_ms())
    statuses = m.statuses()
    out["service.shed"] = statuses.get("rejected", 0)
    out["service.timeout"] = statuses.get("timeout", 0)
    out["service.error"] = statuses.get("error", 0)
    out["service.fail_share"] = (main.failed + len(m.verdicts.mismatches)) / max(
        main.attempted + m.verdicts.checked, 1
    )
    if m.workload.open_loop:
        passed = [row["rate_qps"] for row in rate_table(m) if row["passed"]]
        out["service.sustained_qps"] = max(passed, default=0.0)
        ordered = sorted(main.sojourns())
        out["service.open_p50_ms"] = H.percentile(ordered, 0.50) * 1e3
        out["service.open_p95_ms"] = H.percentile(ordered, 0.95) * 1e3
        out["service.late_share"] = H.late_share(main, W.LATENCY_LIMIT_MS)
        out["service.queue_wait_top_ms"] = m.loops[-1].side.per_query_ms()["service.queue_wait_ms"]
        out["loadgen.lag_p95_ms"] = H.percentile(sorted(main.lag_s), 0.95) * 1e3
        inserts = [us for loop in m.loops for us in loop.insert_us]
        out["engine.storage.generation_bumps"] = len(inserts) * W.WRITE_BATCH
        if inserts:
            out["engine.storage.insert_us"] = statistics.median(inserts)
        else:  # a run too short to reach the first write
            absent.append("engine.storage.insert_us")
    else:
        absent += [
            "service.sustained_qps", "service.open_p50_ms", "service.open_p95_ms",
            "service.late_share", "service.queue_wait_top_ms",
            "loadgen.lag_p95_ms", "engine.storage.insert_us", "engine.storage.generation_bumps",
        ]

    # the trace's own cost, and where the replayed query's time went
    out["trace.overhead_share"] = (traced["cpu_s"] - m.baseline["cpu_s"]) / m.baseline["cpu_s"]
    query_time = sum(d for _q, d in m.replayed["query"])
    out["trace.share_core_optimizer"] = m.self_time["optimizer.pipeline"] / query_time
    out["trace.share_engine_algebra"] = (
        m.self_time["engine.planner"] + m.self_time["engine.executor"]
    ) / query_time
    return out, absent


def rate_table(m: Measured) -> List[Dict[str, object]]:
    """Per offered rate: p95, failures, backlog, and whether it met the limit."""
    rows = []
    for rate, loop in zip(W.MIXED_RATES, m.loops if m.workload.open_loop else []):
        p95 = H.p95_ms(loop)
        rows.append(
            {
                "rate_qps": rate,
                "p95_ms": p95,
                "failed": loop.failed,
                "backlog_at_end": loop.backlog_at_end,
                "late_share": H.late_share(loop, W.LATENCY_LIMIT_MS),
                "queue_wait_ms": loop.side.per_query_ms()["service.queue_wait_ms"],
                "passed": p95 <= W.LATENCY_LIMIT_MS and loop.failed == 0
                and loop.backlog_at_end <= W.QUEUE_SIZE // 2,
            }
        )
    return rows


def shape_table(m: Measured) -> List[Dict[str, object]]:
    """Per shape: served p50 beside the local, fast-path and SQLite-native times."""
    served: Dict[int, List[float]] = defaultdict(list)
    for this in m.latency_loop.rounds:
        for pick, sojourn in zip(this.picks, this.sojourns):
            served[pick].append(sojourn)

    def of(span_name: str, shape_index: int) -> Optional[float]:
        seconds = m.per_shape.get(span_name, {}).get(shape_index)
        return None if seconds is None else seconds * 1e3

    rows = []
    for shape_index in sorted(m.weights)[:12]:
        rows.append(
            {
                "shape": m.workload.shapes[shape_index].name,
                "picks": m.weights[shape_index],
                "strategy": m.facts[shape_index]["strategy"],
                "served_p50_ms": statistics.median(served[shape_index]) * 1e3 if served[shape_index] else None,
                "local_exec_ms": of("engine.executor.local", shape_index),
                "fast_path_ms": of("engine.yannakakis", shape_index) or of("engine.wcoj", shape_index),
                "sqlite_native_ms": of("backends.sqlite.native", shape_index),
            }
        )
    return rows


def run(name: str, seed: int, seconds: float, sizing: W.Sizing, out_dir: Path) -> Outcome:
    m = measure(name, seed, seconds, sizing)
    metrics, absent = derive(m)
    shapes, rates = shape_table(m), rate_table(m)
    outcome = Outcome(
        workload=name,
        seed=seed,
        kind="per_layer",
        attempted=sum(loop.attempted for loop in m.loops) + m.verdicts.checked,
        failed=sum(loop.failed for loop in m.judged_loops) + len(m.verdicts.mismatches),
        mismatches=m.verdicts.mismatches,
        metrics={k: (v, v, v) for k, v in metrics.items()},
        not_applicable=absent,
        notes=[
            f"staged replay of {m.n_replay} queries ({len(m.traced['hits'])} plan-cache hits), "
            f"{len(m.weights)} shapes probed x{PROBE_REPEATS}; times are ms per replayed query, counts are totals",
            f"service traffic: {dict(m.statuses())}; oracle comparisons {m.verdicts.checked}",
        ],
        detail={"shapes": shapes, "rates": rates, "plan_cache_moved": m.cache_moved},
    )
    outcome.print_table()
    show = lambda v: "-" if v is None else f"{v:.2f}"  # noqa: E731
    print(f"{'shape':22s} {'picks':>5s} {'strategy':>10s} {'served p50':>11s} {'local exec':>11s} "
          f"{'fast path':>10s} {'sqlite':>9s}  (ms)")
    for row in shapes:
        print(
            f"{row['shape']:22s} {row['picks']:5d} {row['strategy']:>10s} {show(row['served_p50_ms']):>11s} "
            f"{show(row['local_exec_ms']):>11s} {show(row['fast_path_ms']):>10s} {show(row['sqlite_native_ms']):>9s}"
        )
    for row in rates:
        print(
            f"rate {row['rate_qps']:6.1f} q/s: p95 {row['p95_ms']:9.2f} ms, failed {row['failed']}, "
            f"backlog {row['backlog_at_end']}, late {row['late_share']:.4f}, "
            f"queue wait {row['queue_wait_ms']:.2f} ms -> {'pass' if row['passed'] else 'FAIL'}"
        )
    path = outcome.write(out_dir)
    m.spans.dump(path.with_name(f"{name}-seed{seed}-spans.jsonl"))
    return outcome
