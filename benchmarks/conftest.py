"""Shared helpers for the benchmark/experiment suite.

Every benchmark regenerates one of the paper's examples, figures, or
identity families; the asserts inside each benchmark ARE the reproduction
check (who wins, by what factor, where it breaks), while pytest-benchmark
provides the timing table.  ``report()`` collects the paper-vs-measured
rows; run with ``-s`` to see them inline, or read EXPERIMENTS.md for the
recorded values.

Run them all with
``PYTHONPATH=src python -m pytest -q --benchmark-disable benchmarks
--ignore=benchmarks/ladder``.  ``--bench-seed N`` offsets the
random-database seeds of the scenarios that opt in (via the
``bench_seed`` fixture), so the same workload can be replayed on fresh
data.  The default 0 reproduces the recorded numbers exactly.
"""

from __future__ import annotations

import pytest

from repro.optimizer.plancache import reset_default_plan_cache


@pytest.fixture(autouse=True)
def _reset_plan_cache():
    """Keep the process-wide plan cache from leaking across scenarios.

    Timed closures that want to measure the *uncached* pipeline pass
    ``use_cache=False`` explicitly; this fixture only guarantees one
    scenario's cached plans never warm another's measurements.
    """
    reset_default_plan_cache()
    yield
    reset_default_plan_cache()


def pytest_addoption(parser):
    parser.addoption(
        "--bench-seed",
        action="store",
        type=int,
        default=0,
        help="offset added to the data-generation seeds of seed-aware benchmarks",
    )


@pytest.fixture
def bench_seed(request) -> int:
    return request.config.getoption("--bench-seed")


class ExperimentReport:
    """Accumulates 'paper says / we measured' rows for one experiment."""

    def __init__(self):
        self.rows: list[tuple[str, str, str]] = []

    def add(self, metric: str, paper: str, measured: str) -> None:
        self.rows.append((metric, paper, measured))

    def dump(self, title: str) -> None:
        width = max((len(m) for m, _p, _me in self.rows), default=10)
        print(f"\n=== {title} ===")
        for metric, paper, measured in self.rows:
            print(f"  {metric.ljust(width)}  paper: {paper:<22} measured: {measured}")


@pytest.fixture
def report():
    return ExperimentReport()
