"""The instrumentation sink under contention: no increment may be lost.

``Counter.__iadd__`` is a read-modify-write the GIL does not make atomic,
so the sink serializes all mutation behind a lock (see
``repro.tools.instrumentation``).  The first test hammers ``bump`` from
many threads and demands an exact total; the third races two real
engine queries and reconciles the global counter against the same two
queries run one after the other — the regression that motivated the lock.
"""

from __future__ import annotations

import threading

import pytest

from repro.algebra import eq
from repro.core import jn, oj
from repro.datagen import example1_storage
from repro.engine import execute
from repro.tools import instrumentation


def test_concurrent_bumps_are_exact():
    threads_n, bumps_n = 16, 2_000
    barrier = threading.Barrier(threads_n)

    def hammer():
        barrier.wait()
        for _ in range(bumps_n):
            instrumentation.bump("race_key")
            instrumentation.bump("race_key_wide", 3)

    threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snap = instrumentation.snapshot()
    assert snap["race_key"] == threads_n * bumps_n
    assert snap["race_key_wide"] == threads_n * bumps_n * 3


def test_snapshot_never_tears_against_racing_bumps():
    """Each snapshot sees both keys of a paired update equal (one lock)."""
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            instrumentation.bump("pair_a")
            instrumentation.bump("pair_b")

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        for _ in range(500):
            snap = instrumentation.snapshot()
            # b is always bumped after a, within separate lock regions:
            # a may lead b by at most the one in-flight pair.
            assert 0 <= snap.get("pair_a", 0) - snap.get("pair_b", 0) <= 1
    finally:
        stop.set()
        thread.join()


def test_two_racing_queries_reconcile_with_global_counter():
    """Two racing queries move the shared STATS exactly as the same two
    queries run one after the other do."""
    storage = example1_storage(600)
    q1 = jn("R1", oj("R2", "R3", eq("R2.j", "R3.j")), eq("R1.k", "R2.k"))
    q2 = oj("R2", "R3", eq("R2.j", "R3.j"))
    before = instrumentation.snapshot()
    execute(q1, storage)
    execute(q2, storage)
    sequential = instrumentation.delta(before)["batch_rows"]

    before = instrumentation.snapshot()
    barrier = threading.Barrier(2)

    def run(query):
        barrier.wait()
        execute(query, storage)

    t1 = threading.Thread(target=run, args=(q1,))
    t2 = threading.Thread(target=run, args=(q2,))
    t1.start(), t2.start()
    t1.join(), t2.join()

    assert sequential > 0
    assert instrumentation.delta(before)["batch_rows"] == sequential


def test_reset_under_concurrent_bumps_does_not_crash():
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            instrumentation.bump("churn")

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    try:
        for _ in range(200):
            instrumentation.reset()
            instrumentation.snapshot()
    finally:
        stop.set()
        for t in threads:
            t.join()
    # Post-reset bumping still works.
    instrumentation.reset()
    instrumentation.bump("churn")
    assert instrumentation.snapshot()["churn"] == 1


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
