"""A concurrent query service over one storage: threads, deadlines, shedding.

:class:`QueryService` turns the single-shot query path
(:func:`repro.optimizer.optimize_and_run`, which plans and runs the tree
the optimizer chose, Leapfrog node included) into a serving layer:

* **Worker pool** — a fixed set of daemon threads drains a *bounded*
  admission queue.  Everything per-query (plan tree, metrics sink,
  pipeline result) is private to the worker running it; the plan cache
  and instrumentation are lock-guarded.  Storage may take inserts
  meanwhile: each plan reads the row counts it fixed when it was built
  (:mod:`repro.engine.storage`), so an ``ok`` result is the query over
  the :attr:`QueryOutcome.snapshot` it names.
* **Plan caching** — every worker consults the same
  :class:`~repro.optimizer.plancache.PlanCache`, so the first query of a
  shape pays the DP and the rest replay the cached implementing tree
  (safe by Theorem 1; see :mod:`repro.optimizer.plancache`).  Data
  modifications invalidate via the storage generation stamp.
* **Deadlines & cancellation** — each query carries a
  :class:`~repro.util.cancel.CancelToken` armed *at submission*, so the
  deadline budget covers queue wait plus execution.  The engine polls it
  cooperatively (root drain loop and the per-query metrics sink), and
  callers can :meth:`QueryTicket.cancel` at any time.
* **Load shedding** — when the admission queue is full, ``submit``
  resolves the ticket immediately with a ``rejected`` outcome instead of
  blocking the caller; a saturated service degrades by answering fewer
  queries, not by stalling every client.

Everything is stdlib ``threading`` + ``queue``.  Counters
(``service_queries`` / ``service_rejected`` / ``service_timeouts`` /
``service_cancelled``) flow into :mod:`repro.tools.instrumentation`, and
each query runs under a ``service.query`` span when tracing is active.
"""

from __future__ import annotations

import queue
import threading
import traceback
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.algebra.relation import Relation
from repro.core.expressions import Expression
from repro.engine.executor import ExecutionResult
from repro.engine.storage import Storage
from repro.observability.spans import maybe_span
from repro.optimizer.pipeline import PipelineResult, optimize_and_run
from repro.optimizer.plancache import PlanCache, default_plan_cache
from repro.tools import instrumentation
from repro.util.cancel import CancelToken
from repro.util.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
)

#: Outcome statuses, in the order ``snapshot()`` reports them.
STATUSES = ("ok", "error", "timeout", "cancelled", "rejected")


@dataclass
class QueryOutcome:
    """Everything one submitted query produced (or why it did not).

    ``status`` is one of :data:`STATUSES`.  ``relation`` is populated only
    on ``ok``; ``error`` carries the exception for every non-ok status
    (the shed/timeout/cancel errors included, so callers can re-raise).
    """

    status: str
    relation: Optional[Relation] = None
    pipeline: Optional[PipelineResult] = field(default=None, repr=False)
    execution: Optional[ExecutionResult] = field(default=None, repr=False)
    error: Optional[BaseException] = None
    #: The ``(table, n)`` reads ``relation`` answers (``ok`` only; see ExecutionResult).
    snapshot: Tuple[Tuple[str, int], ...] = ()
    #: Wall time inside the worker (0 for queries that never ran).
    elapsed_s: float = 0.0
    #: Time spent waiting in the admission queue before a worker picked
    #: the query up (0 for rejected queries).
    queue_wait_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def cache_hit(self) -> bool:
        """Did the optimizer replay a cached plan for this query?"""
        return self.pipeline is not None and self.pipeline.cache_hit

    @property
    def strategy(self) -> Optional[str]:
        """The strategy that served it: "wcoj" with a Leapfrog node in the tree, else "dp"."""
        return self.pipeline.strategy if self.pipeline is not None else None

    def require(self) -> Relation:
        """The result relation, or the recorded failure re-raised."""
        if self.ok and self.relation is not None:
            return self.relation
        if self.error is not None:
            raise self.error
        raise ServiceClosedError(f"query finished with status {self.status!r} and no result")


class QueryTicket:
    """A caller's handle on one submitted query.

    Resolution is one-shot: a worker (or the submitting thread, for shed
    queries) fills in the outcome and sets the event.  ``cancel()`` only
    flips the query's cooperative token — the outcome still arrives
    through :meth:`result`, as ``cancelled`` if the signal landed in time.
    """

    def __init__(self, query: Expression, token: CancelToken):
        self.query = query
        self.token = token
        self.submitted_at = monotonic()
        self._done = threading.Event()
        self._outcome: Optional[QueryOutcome] = None

    def cancel(self) -> None:
        """Request cooperative cancellation of this query."""
        self.token.cancel()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> QueryOutcome:
        """Block until the query resolves; raise ``TimeoutError`` if not in time.

        The wait timeout is about the *caller's* patience, independent of
        the query's own deadline — a ticket whose query timed out still
        resolves (with status ``timeout``) and this call returns it.
        """
        if not self._done.wait(timeout):
            raise TimeoutError("query has not resolved within the result() timeout")
        assert self._outcome is not None
        return self._outcome

    def _resolve(self, outcome: QueryOutcome) -> None:
        self._outcome = outcome
        self._done.set()


_SENTINEL = object()


def _raised_at(exc: BaseException) -> str:
    """``file:line`` of the innermost traceback frame: where ``exc`` was raised."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{frame.filename}:{frame.lineno}"


class QueryService:
    """A pool of worker threads serving queries against one storage.

    ``plan_cache`` defaults to the process-wide cache; pass an explicit :class:`PlanCache` to isolate the service, or
    ``plan_cache=None`` with ``use_cache=False`` to serve cold always.

    ``default_timeout_s`` arms every query's deadline unless ``submit``
    overrides it.  The deadline clock starts at submission, so time spent
    queued counts against it — an overloaded service times queries out
    rather than serving arbitrarily stale answers.
    """

    def __init__(
        self,
        storage: Storage,
        workers: int = 4,
        queue_size: int = 64,
        plan_cache: Optional[PlanCache] = None,
        use_cache: bool = True,
        default_timeout_s: Optional[float] = None,
        cost_model: str = "retrieval",
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if queue_size < 1:
            raise ValueError(f"admission queue must hold at least one query, got {queue_size}")
        self.storage = storage
        self.cost_model = cost_model
        self.default_timeout_s = default_timeout_s
        if use_cache:
            self.plan_cache = plan_cache if plan_cache is not None else default_plan_cache()
        else:
            self.plan_cache = None
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_size)
        self._lock = threading.Lock()
        self._closed = False
        self._submitted = 0
        self._outcomes: Dict[str, int] = {status: 0 for status in STATUSES}
        self._workers = [
            threading.Thread(target=self._worker, name=f"repro-service-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- submission ----------------------------------------------------------

    def submit(self, query: Expression, timeout_s: Optional[float] = None) -> QueryTicket:
        """Enqueue a query; never blocks.

        Returns a ticket that is either queued for a worker or — when the
        admission queue is full or the service is closed mid-call —
        already resolved as ``rejected`` (load shedding: the caller finds
        out immediately instead of waiting behind a saturated queue).
        """
        token = CancelToken(
            timeout_s if timeout_s is not None else self.default_timeout_s
        )
        ticket = QueryTicket(query, token)
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            self._submitted += 1
            # Enqueue under the lock ``close()`` flips ``_closed`` under:
            # a ticket then lands ahead of every shutdown sentinel or is
            # never admitted.  ``put_nowait`` never blocks.
            try:
                self._queue.put_nowait(ticket)
                full = False
            except queue.Full:
                full = True
        instrumentation.bump("service_queries")
        if full:
            self._shed(ticket, ServiceOverloadedError("admission queue full; query shed"))
        return ticket

    def submit_batch(
        self, queries: Sequence[Expression], timeout_s: Optional[float] = None
    ) -> List[QueryTicket]:
        """Submit many queries at once; tickets come back in input order.

        Shedding applies per query: in an overloaded service a batch can
        come back partially rejected rather than all-or-nothing.
        """
        return [self.submit(query, timeout_s=timeout_s) for query in queries]

    def execute(self, query: Expression, timeout_s: Optional[float] = None) -> QueryOutcome:
        """Synchronous convenience: submit and wait for the outcome."""
        return self.submit(query, timeout_s=timeout_s).result()

    def _shed(self, ticket: QueryTicket, error: Exception) -> None:
        instrumentation.bump("service_rejected")
        self._count("rejected")
        ticket._resolve(QueryOutcome(status="rejected", error=error))

    # -- the worker loop -----------------------------------------------------

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _SENTINEL:
                    return
                self._run(item)
            finally:
                self._queue.task_done()

    def _run(self, ticket: QueryTicket) -> None:
        started = monotonic()
        queue_wait = started - ticket.submitted_at
        with maybe_span("service.query", category="service") as span:
            try:
                # The deadline covers queue wait too: a query that aged out
                # while queued stops here, before any work is spent on it.
                ticket.token.check()
                pipeline, execution = optimize_and_run(
                    ticket.query,
                    self.storage,
                    cost_model=self.cost_model,
                    cache=self.plan_cache,
                    use_cache=self.plan_cache is not None,
                    cancel=ticket.token,
                )
                outcome = QueryOutcome(
                    status="ok",
                    relation=execution.relation,
                    pipeline=pipeline,
                    execution=execution,
                    snapshot=execution.snapshot,
                )
            except QueryCancelledError as exc:
                instrumentation.bump("service_cancelled")
                outcome = QueryOutcome(status="cancelled", error=exc)
            except QueryTimeoutError as exc:
                instrumentation.bump("service_timeouts")
                outcome = QueryOutcome(status="timeout", error=exc)
            except Exception as exc:  # noqa: BLE001 - outcome carries it
                outcome = QueryOutcome(status="error", error=exc)
                if span is not None:
                    span.set(error_type=type(exc).__name__, error_at=_raised_at(exc))
            outcome.elapsed_s = monotonic() - started
            outcome.queue_wait_s = queue_wait
            if span is not None:
                span.set(
                    status=outcome.status,
                    cache_hit=outcome.cache_hit,
                    strategy=outcome.strategy,
                )
                span.counters["queue_wait_us"] += int(queue_wait * 1e6)
        self._count(outcome.status)
        ticket._resolve(outcome)

    def _count(self, status: str) -> None:
        with self._lock:
            self._outcomes[status] += 1

    # -- lifecycle & reporting -----------------------------------------------

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self, wait: bool = True) -> None:
        """Stop accepting queries; drain the queue, then stop the workers.

        Already-queued queries still run (graceful drain) because the
        shutdown sentinels are enqueued *behind* them.  ``wait=False``
        skips joining the worker threads (they are daemons).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        if wait:
            for thread in self._workers:
                thread.join()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def snapshot(self) -> Dict[str, Any]:
        """Counters for reports: submissions, per-status outcomes, cache."""
        with self._lock:
            out: Dict[str, Any] = {
                "workers": len(self._workers),
                "queue_capacity": self._queue.maxsize,
                "queue_depth": self._queue.qsize(),
                "submitted": self._submitted,
                "outcomes": dict(self._outcomes),
                "closed": self._closed,
            }
        if self.plan_cache is not None:
            out["plan_cache"] = self.plan_cache.snapshot()
        return out

    def summary(self) -> str:
        snap = self.snapshot()
        outcomes = ", ".join(
            f"{status}={snap['outcomes'][status]}"
            for status in STATUSES
            if snap["outcomes"][status]
        )
        lines = [
            f"service: {snap['workers']} worker(s), "
            f"queue {snap['queue_depth']}/{snap['queue_capacity']}, "
            f"{snap['submitted']} submitted ({outcomes or 'no outcomes yet'})"
        ]
        if self.plan_cache is not None:
            lines.append(self.plan_cache.summary())
        return "\n".join(lines)
