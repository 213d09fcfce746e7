"""QueryService: concurrency, deadlines, cancellation, shedding, lifecycle.

The service's contract is small but strict: every submitted ticket
resolves exactly once with one of the five statuses; results are
bag-equal to single-threaded execution; deadlines start at submission;
a full queue sheds instead of blocking; close() drains gracefully.
"""

from __future__ import annotations

import threading

import pytest

from repro.algebra import Comparison, Const, bag_equal, eq
from repro.algebra.operators import ORACLE_OPS
from repro.core import Restrict, jn, oj
from repro.core.enumeration import sample_implementing_tree
from repro.datagen import example1_storage
from repro.datagen.random_db import random_database
from repro.datagen.topologies import chain
from repro.engine import execute
from repro.engine.storage import Storage
from repro.optimizer import PlanCache
from repro.service import STATUSES, QueryService
from repro.tools import instrumentation
from repro.util.rng import make_rng
from repro.util.errors import (
    QueryTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
)

P12 = eq("R1.k", "R2.k")
P23 = eq("R2.j", "R3.j")


def query(constant: int = 5):
    return Restrict(
        jn("R1", oj("R2", "R3", P23), P12), Comparison("R3.j", "=", Const(constant))
    )


@pytest.fixture
def storage():
    return example1_storage(400)


def test_results_match_single_threaded_execution(storage):
    queries = [query(c) for c in range(6)]
    expected = [execute(q, storage).relation for q in queries]
    with QueryService(storage, workers=4, plan_cache=PlanCache(16)) as service:
        tickets = service.submit_batch(queries)
        outcomes = [t.result(timeout=60) for t in tickets]
    assert [o.status for o in outcomes] == ["ok"] * len(queries)
    for outcome, reference in zip(outcomes, expected):
        assert bag_equal(outcome.require(), reference)


def test_repeated_shapes_hit_the_shared_cache(storage):
    with QueryService(storage, workers=4, plan_cache=PlanCache(16)) as service:
        outcomes = [t.result(timeout=60) for t in service.submit_batch([query()] * 12)]
    assert all(o.ok for o in outcomes)
    hits = sum(o.cache_hit for o in outcomes)
    # At least the strictly-sequential tail must hit; racing first-comers
    # may each miss, but never more of them than there are workers.
    assert hits >= 12 - 4
    assert instrumentation.snapshot()["service_queries"] == 12


def test_zero_deadline_times_out_and_require_raises(storage):
    with QueryService(storage, workers=2) as service:
        outcome = service.execute(query(), timeout_s=0.0)
    assert outcome.status == "timeout"
    assert not outcome.ok and outcome.relation is None
    with pytest.raises(QueryTimeoutError):
        outcome.require()
    assert instrumentation.snapshot()["service_timeouts"] == 1


def test_default_timeout_applies_to_every_query(storage):
    with QueryService(storage, workers=1, default_timeout_s=0.0) as service:
        statuses = {t.result(timeout=60).status for t in service.submit_batch([query()] * 3)}
    assert statuses == {"timeout"}


def test_cancel_before_run_resolves_cancelled(storage):
    with QueryService(storage, workers=1) as service:
        # The single worker is pinned behind several queued queries, so
        # the victim cannot have started when its cancel lands.
        blockers = service.submit_batch([query()] * 3)
        victim = service.submit(query(1))
        victim.cancel()
        assert all(b.result(timeout=60).ok for b in blockers)
        outcome = victim.result(timeout=60)
    assert outcome.status == "cancelled"
    assert instrumentation.snapshot()["service_cancelled"] == 1


def test_full_queue_sheds_immediately(storage):
    service = QueryService(storage, workers=1, queue_size=1)
    try:
        tickets = service.submit_batch([query(c) for c in range(25)])
        outcomes = [t.result(timeout=120) for t in tickets]
    finally:
        service.close()
    statuses = [o.status for o in outcomes]
    assert statuses.count("rejected") >= 1
    assert statuses.count("ok") >= 1
    assert set(statuses) <= set(STATUSES)
    rejected = next(o for o in outcomes if o.status == "rejected")
    with pytest.raises(ServiceOverloadedError):
        rejected.require()
    assert instrumentation.snapshot()["service_rejected"] == statuses.count("rejected")


def test_close_drains_queued_queries_then_rejects_new_ones(storage):
    service = QueryService(storage, workers=2, queue_size=32)
    tickets = service.submit_batch([query(c) for c in range(8)])
    service.close()
    assert all(t.result(timeout=60).ok for t in tickets)
    assert service.closed
    with pytest.raises(ServiceClosedError):
        service.submit(query())
    service.close()  # idempotent


def test_ticket_submitted_while_close_runs_resolves(storage, monkeypatch):
    """close() running inside submit() (here: at its ``service_queries``
    bump) must not strand the ticket behind the shutdown sentinels."""
    service = QueryService(storage, workers=2, queue_size=32)
    bump = instrumentation.bump

    def close_mid_submit(key, count=1):
        bump(key, count)
        if key == "service_queries":
            service.close()

    monkeypatch.setattr(instrumentation, "bump", close_mid_submit)
    ticket = service.submit(query())
    monkeypatch.setattr(instrumentation, "bump", bump)
    assert ticket.result(timeout=30).ok
    assert service.snapshot()["queue_depth"] == 0


def test_result_wait_timeout_is_independent_of_query_deadline(storage):
    with QueryService(storage, workers=1) as service:
        ticket = service.submit(query())
        with pytest.raises(TimeoutError):
            # 0-second *wait* can fire before the (deadline-less) query ends.
            ticket.result(timeout=0)
        outcome = ticket.result(timeout=60)
    assert outcome.ok


def test_snapshot_and_summary_report_outcomes_and_cache(storage):
    cache = PlanCache(8)
    with QueryService(storage, workers=2, plan_cache=cache) as service:
        [t.result(timeout=60) for t in service.submit_batch([query()] * 4)]
        service.execute(query(), timeout_s=0.0)
        snap = service.snapshot()
        text = service.summary()
    assert snap["submitted"] == 5
    assert snap["outcomes"]["ok"] == 4 and snap["outcomes"]["timeout"] == 1
    assert snap["plan_cache"]["hits"] >= 1
    assert "plan cache:" in text and "5 submitted" in text


def test_many_threads_submitting_concurrently(storage):
    """Reentrancy drill: submitters race workers; every ticket resolves ok."""
    with QueryService(storage, workers=4, queue_size=256, plan_cache=PlanCache(16)) as service:
        results = []
        lock = threading.Lock()

        def client(constant):
            outcome = service.submit(query(constant % 3)).result(timeout=120)
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert len(results) == 32
    assert all(o.ok for o in results)
    reference = {c: execute(query(c), storage).relation for c in range(3)}
    for outcome in results:
        assert any(bag_equal(outcome.relation, rel) for rel in reference.values())


def test_overload_resolves_every_ticket():
    """Overload drill: a tiny queue, mixed deadlines and cancellations.

    Every ticket resolves (served, shed, timed out or cancelled), the
    status counts match the service's own, every served result is
    bag-equal to the nested-loop oracle, and no worker outlives close().
    """
    scenario = chain(5, ["join" if i % 3 else "out" for i in range(4)], name="overload-chain5")
    # Seeds whose four shapes all have non-empty answers, so the oracle
    # comparison below compares rows, not empty bags.
    db = random_database(scenario.schemas, seed=2, max_rows=30, domain=7, null_probability=0.1)
    storage = Storage.from_database(db)
    rng = make_rng(3)
    workload = []
    for i in range(4):
        tree = sample_implementing_tree(scenario.graph, rng)
        attr = f"{rng.choice(sorted(scenario.schemas))}.b"
        workload.append(Restrict(tree, Comparison(attr, "<=", i)))
    expected = [q.eval(db, ops=ORACLE_OPS) for q in workload]
    assert all(len(relation) for relation in expected)

    rng = make_rng(4)
    before = set(threading.enumerate())
    service = QueryService(
        storage, workers=4, queue_size=8, plan_cache=PlanCache(64), default_timeout_s=2.0
    )
    workers = [
        t for t in threading.enumerate()
        if t not in before and t.name.startswith("repro-service-")
    ]
    with service:
        tickets = []
        for i in range(120):
            ticket = service.submit(
                workload[i % 4], timeout_s=rng.choice((0.001, 0.05, 2.0, None))
            )
            if rng.random() < 0.1:
                ticket.cancel()
            tickets.append((i % 4, ticket))
        outcomes = [(shape, ticket.result(timeout=60)) for shape, ticket in tickets]
        snap = service.snapshot()

    counts = {status: 0 for status in STATUSES}
    for _shape, outcome in outcomes:
        counts[outcome.status] += 1
    assert sum(counts.values()) == 120 and snap["submitted"] == 120
    assert counts == snap["outcomes"]
    for shape, outcome in outcomes:
        if outcome.ok:
            assert bag_equal(outcome.relation, expected[shape])
    assert counts["ok"] >= 1 and counts["rejected"] >= 1
    assert len(workers) == 4
    assert not any(t.is_alive() for t in workers)


def test_constructor_validation(storage):
    with pytest.raises(ValueError):
        QueryService(storage, workers=0)
    with pytest.raises(ValueError):
        QueryService(storage, queue_size=0)


def test_full_outerjoin_padded_union_and_non_equi_goj_are_served():
    from repro.algebra import NULL, gt
    from repro.algebra.operators import ORACLE_OPS
    from repro.core import foj, goj
    from repro.core.expressions import Rel, Union
    from repro.engine import Storage

    storage = Storage()
    storage.create_table(
        "X", ["X.k", "X.a"], [{"X.k": k, "X.a": i} for i, k in enumerate([1, 2, 2, NULL])]
    )
    storage.create_table(
        "Y", ["Y.k", "Y.b"], [{"Y.k": k, "Y.b": i} for i, k in enumerate([2, 3, NULL])]
    )
    db = storage.to_database()
    queries = [
        foj("X", "Y", eq("X.k", "Y.k")),
        Restrict(Union(Rel("X"), Rel("Y")), gt("X.k", 1)),
        goj("X", "Y", gt("X.k", "Y.k"), ["X.k"]),
    ]
    with QueryService(storage, workers=1, plan_cache=PlanCache(16)) as service:
        for q in queries:
            outcome = service.execute(q)
            assert outcome.status == "ok", (q, outcome.error)
            assert bag_equal(outcome.require(), q.eval(db, ops=ORACLE_OPS)), q


def test_error_records_its_type_and_where_it_was_raised(storage, monkeypatch):
    import repro.service.service as module
    from repro.observability.spans import default_tracer

    def broken(*args, **kwargs):
        raise KeyError("no such thing")

    monkeypatch.delenv("REPRO_TRACE", raising=False)  # ambient phase spans on
    monkeypatch.setattr(module, "optimize_and_run", broken)
    with QueryService(storage, workers=1) as service:
        outcome = service.execute(query())
    assert outcome.status == "error"
    assert isinstance(outcome.error, KeyError)
    spans = [root for root in default_tracer().roots if root.name == "service.query"]
    assert len(spans) == 1
    assert spans[0].attrs["status"] == "error"
    assert spans[0].attrs["error_type"] == "KeyError"
    raised_at = f"{broken.__code__.co_filename}:{broken.__code__.co_firstlineno + 1}"
    assert spans[0].attrs["error_at"] == raised_at


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
