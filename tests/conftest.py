"""Shared fixtures: the paper's running three-relation setup and helpers."""

from __future__ import annotations

import pytest

from repro.algebra import Database, Relation, SchemaRegistry, eq
from repro.datagen import random_databases
from repro.observability.spans import default_tracer
from repro.optimizer.plancache import reset_default_plan_cache
from repro.tools import instrumentation


@pytest.fixture(autouse=True)
def _reset_process_counters():
    """Isolate every test from process-global observability state.

    The advisory :data:`repro.tools.instrumentation.STATS` counter, the
    default tracer's retained roots, and the process-wide plan cache are
    the only process-global sinks; a test must never see counts (or
    cached plans) left behind by an earlier test (see
    ``tests/test_metrics_isolation.py``, which asserts this contract).
    """
    instrumentation.reset()
    default_tracer().clear()
    reset_default_plan_cache()
    yield
    instrumentation.reset()
    default_tracer().clear()
    reset_default_plan_cache()


@pytest.fixture
def xyz_registry() -> SchemaRegistry:
    """Registry for the X, Y, Z relations used throughout Section 2."""
    return SchemaRegistry(
        {"X": ["X.a", "X.b"], "Y": ["Y.a", "Y.b"], "Z": ["Z.a", "Z.b"]}
    )


@pytest.fixture
def pxy():
    return eq("X.a", "Y.a")


@pytest.fixture
def pyz():
    return eq("Y.b", "Z.b")


@pytest.fixture
def xyz_db() -> Database:
    """A small hand-built database exercising matches, misses, and nulls."""
    from repro.algebra import NULL

    return Database(
        {
            "X": Relation.from_dicts(
                ["X.a", "X.b"],
                [{"X.a": 1, "X.b": 10}, {"X.a": 2, "X.b": 20}, {"X.a": NULL, "X.b": 30}],
            ),
            "Y": Relation.from_dicts(
                ["Y.a", "Y.b"],
                [{"Y.a": 1, "Y.b": 100}, {"Y.a": 1, "Y.b": 200}, {"Y.a": 9, "Y.b": NULL}],
            ),
            "Z": Relation.from_dicts(
                ["Z.a", "Z.b"], [{"Z.a": 7, "Z.b": 100}, {"Z.a": 8, "Z.b": 999}]
            ),
        }
    )


@pytest.fixture
def xyz_random_dbs():
    """A reproducible batch of randomized X/Y/Z databases."""
    schemas = {"X": ["X.a", "X.b"], "Y": ["Y.a", "Y.b"], "Z": ["Z.a", "Z.b"]}
    return random_databases(schemas, count=25, seed=7)


@pytest.fixture
def serve_interrupted(monkeypatch):
    """Serve one query and stop it right after its routed plan is built.

    ``serve(query, storage, module, builder, how)`` wraps
    ``module.builder`` (a plan builder the planner looks up at call
    time) so that once the plan exists the ticket is cancelled
    (``how="cancel"``) or its one-second deadline runs out
    (``how="timeout"``).  The plan has not drained a row yet, so only a
    token that reached the plan's ``execute_plan`` can stop it.  Returns
    the outcome and the plans the builder built.
    """
    import threading
    import time

    from repro.service import QueryService

    def serve(query, storage, module, builder, how):
        real = getattr(module, builder)
        built, tickets, submitted = [], [], threading.Event()

        def interrupting(*args, **kwargs):
            plan = real(*args, **kwargs)
            built.append(plan)
            submitted.wait(10)
            ticket = tickets[0]
            if how == "cancel":
                ticket.cancel()
            else:
                time.sleep(ticket.token.remaining_s())
            return plan

        monkeypatch.setattr(module, builder, interrupting)
        with QueryService(storage, workers=1, use_cache=False) as service:
            tickets.append(service.submit(query, timeout_s=1.0 if how == "timeout" else None))
            submitted.set()
            return tickets[0].result(timeout=60), built

    return serve
