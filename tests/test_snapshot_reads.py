"""Snapshot reads: a plan reads the row counts it fixed when it was built.

Tables are append-only column stores, and every operator that reads a
table fixes the table's row count ``n`` when the plan is built.  So
rows inserted between building a plan and draining it are invisible to
it, on every access path: a sequential scan under a hash join, an index
nested-loop probe, and a Leapfrog plan over a trie cached before the
insert.  Under concurrent inserts through ``QueryService``, every ``ok``
result is the query over the first ``n`` rows of each table, with ``n``
as ``outcome.snapshot`` names it.
"""

from __future__ import annotations

import sys
import threading
import time
from itertools import count

from repro.algebra import Row, bag_equal, eq
from repro.algebra.nulls import NULL
from repro.algebra.operators import ORACLE_OPS
from repro.algebra.relation import Database, Relation
from repro.core.expressions import jn, oj, rel
from repro.core.wcoj_order import wcoj_spec_of
from repro.datagen.topologies import triangle
from repro.engine.executor import execute_plan
from repro.engine.iterators import HashJoin, IndexNestedLoopJoin
from repro.engine.planner import Planner
from repro.engine.storage import Storage
from repro.engine.wcoj import build_wcoj_plan
from repro.optimizer import PlanCache
from repro.service import QueryService
from repro.tools import instrumentation


def pair_storage(rows: int, index: bool = False) -> Storage:
    """``A`` and ``B`` with one matching row pair per key ``0 .. rows-1``."""
    storage = Storage()
    storage.create_table("A", ["A.k", "A.v"], ({"A.k": i, "A.v": i % 7} for i in range(rows)))
    storage.create_table("B", ["B.k", "B.w"], ({"B.k": i, "B.w": i % 5} for i in range(rows)))
    if index:
        storage["B"].create_index("B.k")
    return storage


def insert_pair(storage: Storage, key: int) -> None:
    storage["A"].insert(Row({"A.k": key, "A.v": key % 7}))
    storage["B"].insert(Row({"B.k": key, "B.w": key % 5}))


def database_at(storage: Storage, snapshot) -> Database:
    """The database of the first ``n`` rows of each table in ``snapshot``."""
    return Database(
        {name: Relation(storage[name].schema, storage[name].rows[:n]) for name, n in snapshot}
    )


A_TO_B = oj(rel("A"), rel("B"), eq("A.k", "B.k"))


def test_hash_join_over_scans_reads_the_rows_of_plan_time():
    storage = pair_storage(30)
    before = storage.to_database()
    plan = Planner(storage).plan(A_TO_B)
    assert isinstance(plan, HashJoin)
    for key in (3, 30, 31):  # a duplicate match and two new pairs
        insert_pair(storage, key)
    result = execute_plan(plan)
    assert bag_equal(result.relation, A_TO_B.eval(before, ops=ORACLE_OPS))
    assert result.snapshot == (("A", 30), ("B", 30))


def test_index_nested_loop_reads_the_rows_of_plan_time():
    storage = pair_storage(30, index=True)
    # A row of A with no partner yet: the plan must pad it, not match the
    # partner inserted after the plan was built.
    storage["A"].insert(Row({"A.k": 30, "A.v": 2}))
    before = storage.to_database()
    plan = Planner(storage).plan(A_TO_B)
    assert isinstance(plan, IndexNestedLoopJoin)
    storage["B"].insert(Row({"B.k": 30, "B.w": 0}))
    for key in (3, 31):
        insert_pair(storage, key)
    result = execute_plan(plan)
    expected = A_TO_B.eval(before, ops=ORACLE_OPS)
    assert bag_equal(result.relation, expected)
    assert result.snapshot == (("A", 31), ("B", 30))
    assert result.metrics.total_retrieved == 31 + 30  # the scan of A, one probe hit per key


def test_leapfrog_plan_reads_its_snapshot_past_a_cached_trie():
    scenario = triangle()
    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    storage = Storage()
    for name in ("R1", "R2", "R3"):
        storage.create_table(
            name, [f"{name}.a", f"{name}.b"], [{f"{name}.a": a, f"{name}.b": b} for a, b in edges]
        )
    spec = wcoj_spec_of(scenario.graph, scenario.registry)
    query = jn(
        jn(rel("R1"), rel("R2"), eq("R1.a", "R2.a")),
        rel("R3"),
        eq("R2.b", "R3.a") & eq("R3.b", "R1.b"),
    )
    before = storage.to_database()
    plan = build_wcoj_plan(spec, storage, {})
    first = execute_plan(plan).relation  # caches every table's trie
    assert bag_equal(first, query.eval(before, ops=ORACLE_OPS))
    for name in ("R1", "R2", "R3"):  # new triangles through (3, 0)
        storage[name].insert(Row({f"{name}.a": 3, f"{name}.b": 0}))
        storage[name].insert(Row({f"{name}.a": 0, f"{name}.b": 3}))
    instrumentation.reset()
    again = execute_plan(plan)
    assert bag_equal(again.relation, query.eval(before, ops=ORACLE_OPS))
    assert instrumentation.snapshot().get("trie_builds", 0) == 0  # the cached tries served
    assert again.snapshot == (("R1", 4), ("R2", 4), ("R3", 4))
    # A plan built after the insert reads the new rows.
    fresh = execute_plan(build_wcoj_plan(spec, storage, {})).relation
    assert bag_equal(fresh, query.eval(storage.to_database(), ops=ORACLE_OPS))
    assert len(fresh) > len(first)


def padded_rows(relation: Relation) -> int:
    return sum(n for row, n in relation.counts().items() if row["B.k"] is NULL)


def test_served_results_under_inserts_are_results_of_their_snapshot():
    """``A → B`` served while pairs are inserted, ``A`` first.

    ``A`` is never more than one row ahead of ``B``, so no state of the
    data gives more than one padded row.  A plan whose scans read the
    tables at different moments pads every row of ``A`` inserted after
    ``B`` was read.
    """
    rows = 10_000
    storage = pair_storage(rows)
    stop = threading.Event()

    def writer() -> None:
        for key in count(rows):
            if stop.is_set():
                return
            insert_pair(storage, key)
            if key % 64 == 0:
                time.sleep(0)  # let the workers in between inserts

    thread = threading.Thread(target=writer)
    outcomes = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # more interleavings of the writer and the workers
    with QueryService(storage, workers=2, plan_cache=PlanCache(4)) as service:
        thread.start()
        try:
            deadline = time.monotonic() + 3.0
            while len(outcomes) < 12 and time.monotonic() < deadline:
                tickets = service.submit_batch([A_TO_B, A_TO_B])
                outcomes.extend(t.result(timeout=60) for t in tickets)
        finally:
            stop.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
    assert not thread.is_alive()
    served = [o for o in outcomes if o.ok]
    assert len(served) >= 4
    assert max(padded_rows(o.relation) for o in served) <= 1
    for outcome in served:
        expected = A_TO_B.eval(database_at(storage, outcome.snapshot))
        assert bag_equal(outcome.relation, expected), outcome.snapshot
