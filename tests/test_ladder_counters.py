"""Golden engine counters: what every engine-bound ladder shape costs.

``benchmarks/ladder/workloads.py`` fixes the ladder's query shapes (seed 0,
full sizing).  For every shape of ``report_oj_warm`` (8),
``cyclic_skew_warm`` (6) and ``mixed_open_writes`` (10), under both cost
models (48 cases), this test optimizes and runs the query once, cold
(``optimize_and_run(..., use_cache=False)``), and records the engine's
exact counters:

* ``rows``: the result's bag cardinality;
* ``retrieved``: ``Metrics.tuples_retrieved`` per table;
* ``evaluations``: ``Metrics.predicate_evaluations``;
* ``probes``: ``Metrics.index_probes`` per index;
* ``emitted``: ``Metrics.rows_emitted`` per operator label.

The records must equal ``tests/golden/ladder_counters.jsonl``, one case
per line.  ``tests/golden/ladder_picks.jsonl`` pins what the optimizer
picked; this file pins what running the pick cost, so a change to an
operator's loop that moves Example 1's accounting shows up as a diff.
``adhoc_plan_cold`` is left out: its 600 tiny shapes exercise the
optimizer, not the engine, and none of them plans an index join.  After
a deliberate accounting change, regenerate the file and commit the diff:

    PYTHONPATH=src python tests/test_ladder_counters.py --write
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.optimizer.pipeline import optimize_and_run

HERE = Path(__file__).resolve().parent
WORKLOADS_PY = HERE.parent / "benchmarks" / "ladder" / "workloads.py"
GOLDEN = HERE / "golden" / "ladder_counters.jsonl"
WORKLOADS = ("report_oj_warm", "cyclic_skew_warm", "mixed_open_writes")
COST_MODELS = ("retrieval", "cout")
SEED = 0


def _ladder_workloads():
    """Import the ladder's workload definitions by path (read-only)."""
    spec = importlib.util.spec_from_file_location("ladder_workloads", WORKLOADS_PY)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def collect_counters() -> List[Dict[str, object]]:
    """Every case's record, in workload, shape and cost-model order."""
    W = _ladder_workloads()
    records: List[Dict[str, object]] = []
    for workload in WORKLOADS:
        built = W.BUILDERS[workload](SEED, W.FULL)
        for index, shape in enumerate(built.shapes):
            for cost_model in COST_MODELS:
                _result, run = optimize_and_run(
                    shape.query, built.storage, cost_model=cost_model, use_cache=False
                )
                metrics = run.metrics
                records.append(
                    {
                        "workload": workload,
                        "shape": index,
                        "name": shape.name,
                        "cost_model": cost_model,
                        "rows": len(run.relation),
                        "retrieved": dict(sorted(metrics.tuples_retrieved.items())),
                        "evaluations": metrics.predicate_evaluations,
                        "probes": dict(sorted(metrics.index_probes.items())),
                        "emitted": dict(sorted(metrics.rows_emitted.items())),
                    }
                )
    return records


def _line(record: Dict[str, object]) -> str:
    return json.dumps(record, ensure_ascii=False)


def test_ladder_counters_match_the_golden_file():
    records = collect_counters()
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert len(records) == len(golden) == 48
    differing = [i for i, record in enumerate(records) if _line(record) != golden[i]]
    report = [
        f"case {i}:\n  golden: {golden[i]}\n  now:    {_line(records[i])}"
        for i in differing[:5]
    ]
    assert not differing, f"{len(differing)} case(s) moved:\n" + "\n".join(report)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_ladder_counters.py --write")
    counters = collect_counters()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(_line(record) + "\n" for record in counters), encoding="utf-8")
    print(f"wrote {len(counters)} cases to {GOLDEN}")
