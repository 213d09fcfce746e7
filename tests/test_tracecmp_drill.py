"""Injected-regression drill: tracecmp must localize a planted slowdown.

The drill monkeypatches a sleep into one kernel path (the hash join),
traces the same query before and after, and asserts the comparator flags
exactly that operator — not its scans, not the query as a whole.  This is
the end-to-end proof that per-operator *self* times localize regressions.
"""

from __future__ import annotations

import time

from repro.algebra import eq
from repro.core import jn
from repro.engine.executor import execute
from repro.engine.iterators import HashJoin
from repro.engine.storage import Storage
from repro.observability import tracing, write_trace
from repro.tools.tracecmp import aggregate_file, compare, main, regressions


def _storage() -> Storage:
    storage = Storage()
    n = 50
    storage.create_table("A", ["A.k"], [{"A.k": i} for i in range(n)])
    storage.create_table(
        "B", ["B.k", "B.j"], [{"B.k": i, "B.j": i % 7} for i in range(n)]
    )
    return storage


def _trace_to(path) -> None:
    storage = _storage()
    query = jn("A", "B", eq("A.k", "B.k"))
    with tracing(enabled=True):
        result = execute(query, storage)
    assert result.trace is not None
    write_trace(path, [result.trace])


def test_injected_regression_flagged_on_exactly_one_operator(tmp_path, monkeypatch):
    baseline = tmp_path / "baseline.json"
    candidate = tmp_path / "candidate.json"
    _trace_to(baseline)

    # No indexes on A/B, so the planner picks a HashJoin; plant ~40ms there.
    real_execute = HashJoin.execute_batches

    def slow_execute(self, metrics):
        time.sleep(0.04)
        yield from real_execute(self, metrics)

    monkeypatch.setattr(HashJoin, "execute_batches", slow_execute)
    _trace_to(candidate)

    # 5ms absolute floor: scan spans jitter by ~1ms under load, and the
    # planted sleep is 8x larger, so the floor filters noise only.
    findings = compare(
        aggregate_file(baseline), aggregate_file(candidate), min_delta_ms=5.0
    )
    assert len(findings) >= 2, "expected the join and at least one scan"
    flagged = regressions(findings)
    assert len(flagged) == 1, f"expected exactly one regression, got {flagged}"
    assert flagged[0].key.startswith("HashJoin"), flagged[0].key
    assert flagged[0].candidate_ms - flagged[0].baseline_ms >= 30.0


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    baseline = tmp_path / "baseline.json"
    candidate = tmp_path / "candidate.json"
    _trace_to(baseline)

    real_execute = HashJoin.execute_batches

    def slow_execute(self, metrics):
        time.sleep(0.04)
        yield from real_execute(self, metrics)

    monkeypatch.setattr(HashJoin, "execute_batches", slow_execute)
    _trace_to(candidate)

    # Identical inputs: clean diff, exit 0.
    assert main([str(baseline), str(baseline)]) == 0
    # Planted regression: flagged, exit 1, named in the output.
    assert main([str(baseline), str(candidate)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "HashJoin" in out

    # An absurd threshold silences it again.
    assert main([str(baseline), str(candidate), "--threshold", "1e9"]) == 0


def test_self_time_shields_ancestors(tmp_path, monkeypatch):
    """A slowdown planted in a leaf-adjacent operator must not flag the
    operator above it (inclusive time would; self time does not)."""
    storage = _storage()
    storage.create_table("C", ["C.j"], [{"C.j": i % 7} for i in range(20)])
    query = jn(jn("A", "B", eq("A.k", "B.k")), "C", eq("B.j", "C.j"))

    def run(path):
        with tracing(enabled=True):
            result = execute(query, storage)
        write_trace(path, [result.trace])

    baseline = tmp_path / "baseline.json"
    candidate = tmp_path / "candidate.json"
    run(baseline)

    from repro.engine.iterators import SeqScan

    # A scan is batch-native: every consumer, row or batch, pulls
    # `execute_batches`, so that is the one place to plant the slowdown.
    real_batches = SeqScan.execute_batches

    def slow_batches(self, metrics):
        if self.table.name == "C":
            time.sleep(0.03)
        yield from real_batches(self, metrics)

    monkeypatch.setattr(SeqScan, "execute_batches", slow_batches)
    run(candidate)

    flagged = regressions(
        compare(aggregate_file(baseline), aggregate_file(candidate), min_delta_ms=5.0)
    )
    assert [f.key for f in flagged] == ["SeqScan(C)"]
