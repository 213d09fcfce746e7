"""Untraced drivers of the ladder: set-up, oracle gate, closed and open loops.

The harness talks to the program through ``repro.service.QueryService``
only (plus ``Table.insert`` for the writes and the algebra evaluator and
SQLite backend as oracles).  The ambient in-program tracer is left exactly
as shipped; nothing here reads or sets a ``REPRO_*`` switch (``run.py``
scrubs them from the environment before the interpreter starts).
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from time import monotonic, perf_counter, process_time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algebra.comparison import bag_equal
from repro.algebra.relation import Relation
from repro.backends.base import available_backends, create_backend
from repro.optimizer.plancache import PlanCache
from repro.service import QueryService

import workloads as W

#: Latency charged to a query that errored, timed out or was shed, so a
#: system that answers fewer queries can never show a better percentile.
PENALTY_S = W.DEADLINE_S

#: Set-ups per run; ``setup_s`` is their median (the first pays imports).
SETUPS = 3


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of an ascending sequence."""
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def spread(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def warm_up_indices(workload: W.Workload) -> List[int]:
    """Shapes the untimed warm-up pass sends (each once, in shape order)."""
    if workload.cache == "cold":
        return list(range(min(W.ADHOC_WARMUP, len(workload.shapes))))
    return list(range(len(workload.shapes)))


def set_up(name: str, seed: int, sizing: W.Sizing) -> Tuple[W.Workload, QueryService]:
    """Build storage, generate queries, start the service, warm up."""
    workload = W.BUILDERS[name](seed, sizing)
    service = QueryService(
        workload.storage,
        workers=W.SERVICE_WORKERS,
        queue_size=W.QUEUE_SIZE,
        plan_cache=PlanCache(),
    )
    for index in warm_up_indices(workload):
        outcome = service.execute(workload.shapes[index].query)
        if not outcome.ok:
            service.close()
            raise RuntimeError(
                f"warm-up of {workload.shapes[index].name} ended {outcome.status}: {outcome.error!r}"
            )
    if workload.cache == "cold":
        service.plan_cache.clear()
    return workload, service


def timed_set_up(name: str, seed: int, sizing: W.Sizing) -> Tuple[W.Workload, QueryService, List[float]]:
    """Set up ``SETUPS`` times; keep the last, return every duration."""
    durations: List[float] = []
    kept: Optional[Tuple[W.Workload, QueryService]] = None
    for _ in range(SETUPS):
        if kept is not None:
            kept[1].close()
        start = perf_counter()
        kept = set_up(name, seed, sizing)
        durations.append(perf_counter() - start)
    assert kept is not None
    return kept[0], kept[1], durations


# ---------------------------------------------------------------------------
# Oracle gate
# ---------------------------------------------------------------------------


@dataclass
class Verdicts:
    """Running tally of oracle comparisons."""

    checked: int = 0
    mismatches: List[str] = field(default_factory=list)

    def record(self, label: str, same: bool) -> None:
        self.checked += 1
        if not same:
            self.mismatches.append(label)


class Oracle:
    """The algebra evaluator on the *written* tree, plus SQLite-native.

    References are kept per shape so results retained from the timed
    region can be compared afterwards without evaluating twice.  After a
    write the references are stale; build a new Oracle.
    """

    def __init__(self, workload: W.Workload):
        self.workload = workload
        self.database = workload.storage.to_database()
        self.references: Dict[int, Relation] = {}
        self.sqlite = None
        self.sqlite_sync_s = 0.0
        if "sqlite" in available_backends():
            start = perf_counter()
            self.sqlite = create_backend("sqlite")
            self.sqlite.sync(workload.storage)
            self.sqlite_sync_s = perf_counter() - start

    def reference(self, index: int) -> Relation:
        if index not in self.references:
            self.references[index] = self.workload.shapes[index].query.eval(self.database)
        return self.references[index]

    def gate(self, service: QueryService, indices: Iterable[int], verdicts: Verdicts) -> None:
        """Send each shape through the service and compare with both oracles."""
        for index in indices:
            shape = self.workload.shapes[index]
            outcome = service.execute(shape.query)
            same = outcome.ok and bag_equal(outcome.relation, self.reference(index))
            verdicts.record(f"{shape.name}: service vs algebra ({outcome.status})", same)
            if self.sqlite is not None:
                native = self.sqlite.execute(shape.query)
                verdicts.record(
                    f"{shape.name}: sqlite-native vs algebra", bag_equal(native, self.reference(index))
                )

    def check_retained(self, retained: Dict[int, Relation], verdicts: Verdicts) -> None:
        """Compare the last timed result of every shape with its reference."""
        for index in sorted(retained):
            same = bag_equal(retained[index], self.reference(index))
            verdicts.record(f"{self.workload.shapes[index].name}: timed result vs algebra", same)

    def close(self) -> None:
        if self.sqlite is not None:
            self.sqlite.close()
            self.sqlite = None


# ---------------------------------------------------------------------------
# Loops
# ---------------------------------------------------------------------------


@dataclass
class Round:
    """What one round of timed traffic produced."""

    #: Sojourn per attempted query (s); a failure carries PENALTY_S.
    sojourns: List[float] = field(default_factory=list)
    #: Shape index per attempted query, aligned with ``sojourns``.
    picks: List[int] = field(default_factory=list)
    ok: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    def book(self, pick: int, ok: bool, sojourn: float) -> None:
        self.picks.append(pick)
        self.sojourns.append(sojourn if ok else PENALTY_S)
        self.ok += ok


@dataclass
class ServiceSide:
    """Service-reported timings summed over the ok queries of a run."""

    queue_wait_s: float = 0.0
    exec_s: float = 0.0
    sojourn_s: float = 0.0
    ok: int = 0
    statuses: Dict[str, int] = field(default_factory=dict)

    def add(self, outcome, sojourn_s: float) -> None:
        self.statuses[outcome.status] = self.statuses.get(outcome.status, 0) + 1
        if outcome.status == "ok":
            self.ok += 1
            self.queue_wait_s += outcome.queue_wait_s
            self.exec_s += outcome.elapsed_s
            self.sojourn_s += sojourn_s

    def per_query_ms(self) -> Dict[str, float]:
        n = max(self.ok, 1)
        wait, run, total = self.queue_wait_s / n, self.exec_s / n, self.sojourn_s / n
        return {
            "service.queue_wait_ms": wait * 1e3,
            "service.exec_ms": run * 1e3,
            "service.overhead_ms": (total - wait - run) * 1e3,
        }


@dataclass
class LoopResult:
    rounds: List[Round]
    side: ServiceSide = field(default_factory=ServiceSide)
    #: Last ok relation per shape index (closed loops; storage is fixed).
    retained: Dict[int, Relation] = field(default_factory=dict)
    #: Open loop only.
    lag_s: List[float] = field(default_factory=list)
    insert_us: List[float] = field(default_factory=list)
    writes: int = 0
    backlog_at_end: int = 0

    @property
    def attempted(self) -> int:
        return sum(len(this.sojourns) for this in self.rounds)

    @property
    def failed(self) -> int:
        return self.attempted - sum(this.ok for this in self.rounds)

    def sojourns(self) -> List[float]:
        return [s for this in self.rounds for s in this.sojourns]


def apply_write(workload: W.Workload, batch: W.Write, result: LoopResult) -> None:
    """Insert one batch through ``Table.insert`` and time it."""
    table = workload.storage[batch.table]
    began = perf_counter()
    for row in batch.rows:
        table.insert(row)
    result.insert_us.append((perf_counter() - began) * 1e6 / len(batch.rows))
    result.writes += 1


def closed_loop(service: QueryService, workload: W.Workload, seconds: float, rounds: int) -> LoopResult:
    """One client: submit, wait for the ticket, submit the next.

    A workload with writes has them applied by this same thread, between
    two queries, at their scheduled instants.
    """
    shapes, picks = workload.shapes, workload.picks
    cold = workload.cache == "cold"
    writes = workload.writes(seconds)
    result = LoopResult(rounds=[])
    cursor = next_write = 0
    begun = perf_counter()
    for _ in range(rounds):
        this = Round()
        cpu_start, start = process_time(), perf_counter()
        end = start + seconds / rounds
        while True:
            sent = perf_counter()
            if sent >= end:
                break
            while next_write < len(writes) and writes[next_write].at_s <= sent - begun:
                apply_write(workload, writes[next_write], result)
                next_write += 1
                sent = perf_counter()
            position = cursor % len(picks)
            if cold and position == 0:
                # Every query of a pass plans from scratch, whatever the
                # cache's capacity becomes.
                service.plan_cache.clear()
            pick = picks[position]
            cursor += 1
            outcome = service.submit(shapes[pick].query).result()
            sojourn = perf_counter() - sent
            result.side.add(outcome, sojourn)
            this.book(pick, outcome.status == "ok", sojourn)
            if outcome.status == "ok":
                result.retained[pick] = outcome.relation
        this.wall_s = perf_counter() - start
        this.cpu_s = process_time() - cpu_start
        result.rounds.append(this)
    return result


def open_loop(
    service: QueryService,
    workload: W.Workload,
    seed: int,
    rate_qps: float,
    seconds: float,
    pick_offset: int = 0,
) -> LoopResult:
    """Send on the seeded Poisson schedule whatever the service does.

    This thread is the generator: it sleeps to each scheduled instant,
    submits, and on the same schedule applies the write batches.  A
    query's sojourn runs from its *scheduled* instant, so a generator or
    service stall is charged to every query it delays.  The whole window
    is one round.
    """
    arrivals = W.arrival_schedule(seed, rate_qps, seconds)
    writes = workload.writes(seconds)
    shapes, picks = workload.shapes, workload.picks
    this = Round(wall_s=seconds)
    result = LoopResult(rounds=[this])
    pending: deque = deque()  # (pick, lag, ticket), oldest first

    def settle(ticket_timeout: Optional[float]) -> None:
        """Book resolved tickets from the head and let their relations go.

        Holding every outcome until the end would keep each result
        relation alive and hand the garbage collector a heap that grows
        with the run (160 MB and rejected queries at the seed commit);
        tickets resolve roughly in order, so the head of the queue is
        where the finished ones are.
        """
        while pending and (ticket_timeout is not None or pending[0][2].done):
            pick, lag, ticket = pending.popleft()
            outcome = ticket.result(timeout=ticket_timeout)
            sojourn = lag + outcome.queue_wait_s + outcome.elapsed_s
            result.side.add(outcome, sojourn)
            this.book(pick, outcome.status == "ok", sojourn)

    cpu_start = process_time()
    next_write = 0
    start = monotonic() + 0.02
    for k, at in enumerate(arrivals):
        while next_write < len(writes) and writes[next_write].at_s <= at:
            batch = writes[next_write]
            next_write += 1
            delay = start + batch.at_s - monotonic()
            if delay > 0:
                time.sleep(delay)
            apply_write(workload, batch, result)
        delay = start + at - monotonic()
        if delay > 0:
            time.sleep(delay)
        pick = picks[(pick_offset + k) % len(picks)]
        ticket = service.submit(shapes[pick].query, timeout_s=W.DEADLINE_S)
        lag = max(0.0, ticket.submitted_at - (start + at))
        result.lag_s.append(lag)
        pending.append((pick, lag, ticket))
        settle(None)
    result.backlog_at_end = sum(1 for entry in pending if not entry[2].done)
    settle(W.DEADLINE_S + 60.0)
    this.cpu_s = process_time() - cpu_start
    return result


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def end_to_end(result: LoopResult) -> Dict[str, Tuple[float, float, float]]:
    """Per-round p50/p95/qps/cpu -> (q1, median, q3) over rounds."""
    per_round: Dict[str, List[float]] = {"p50_ms": [], "p95_ms": [], "qps": [], "cpu_ms_per_query": []}
    for this in result.rounds:
        if not this.sojourns:
            continue
        ordered = sorted(this.sojourns)
        per_round["p50_ms"].append(percentile(ordered, 0.50) * 1e3)
        per_round["p95_ms"].append(percentile(ordered, 0.95) * 1e3)
        per_round["qps"].append(this.ok / this.wall_s)
        per_round["cpu_ms_per_query"].append(this.cpu_s * 1e3 / max(this.ok, 1))
    return {name: spread(values) for name, values in per_round.items()}


def late_share(result: LoopResult, limit_ms: float) -> float:
    """Share of attempted queries over the limit; failures count as late."""
    late = sum(1 for s in result.sojourns() if s * 1e3 > limit_ms)
    return late / max(result.attempted, 1)


def p95_ms(result: LoopResult) -> float:
    ordered = sorted(result.sojourns())
    return percentile(ordered, 0.95) * 1e3 if ordered else 0.0
