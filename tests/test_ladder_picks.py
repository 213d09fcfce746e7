"""Golden ladder picks: the optimizer's decision on every ladder case.

``benchmarks/ladder/workloads.py`` fixes the ladder's 624 query shapes
(seed 0, full sizing).  For each shape under both cost models (1,248
cases) this test records what the optimizer picked:

* the strategy ("dp" or "wcoj");
* ``chosen.to_infix()``, the implementing tree the pipeline returns;
* the Leapfrog variable order (``null`` when no Leapfrog node runs);
* a digest of the served physical plan's ``describe()``;
* ``repr`` of the DP's exact float cost on the pushed graph under the
  leaf filters (``null`` for cases that never reach the DP), so a change
  that keeps every pick but moves a cost shows up too.

The records must equal ``tests/golden/ladder_picks.jsonl``, one case per
line, so a change that moves a pick shows up in review as a diff of that
file.  A failure prints each differing case with its full plan.  After a
deliberate plan change, regenerate the file and commit the diff:

    PYTHONPATH=src python tests/test_ladder_picks.py --write
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from repro.engine.executor import plan_expression
from repro.optimizer import CardinalityEstimator, CoutCostModel, DPOptimizer, RetrievalCostModel
from repro.optimizer.pipeline import optimize_query

HERE = Path(__file__).resolve().parent
WORKLOADS_PY = HERE.parent / "benchmarks" / "ladder" / "workloads.py"
GOLDEN = HERE / "golden" / "ladder_picks.jsonl"
COST_MODELS = ("retrieval", "cout")
SEED = 0


def _dp_cost(result, storage, cost_model: str):
    """``repr`` of the DP's cost on the pipeline's graph, or None when the
    pipeline did not reorder (so never ran the DP)."""
    if not result.reordered:
        return None
    estimator = CardinalityEstimator(storage, result.leaf_filters)
    if cost_model == "retrieval":
        model = RetrievalCostModel(estimator, storage)
    else:
        model = CoutCostModel(estimator)
    return repr(DPOptimizer(result.graph, model).optimize().cost)


def _ladder_workloads():
    """Import the ladder's workload definitions by path (read-only)."""
    spec = importlib.util.spec_from_file_location("ladder_workloads", WORKLOADS_PY)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def collect_picks() -> Tuple[List[Dict[str, object]], Dict[int, str]]:
    """Every case's record, plus each case's full served plan by index."""
    W = _ladder_workloads()
    records: List[Dict[str, object]] = []
    plans: Dict[int, str] = {}
    for workload in W.WORKLOADS:
        built = W.BUILDERS[workload](SEED, W.FULL)
        for index, shape in enumerate(built.shapes):
            for cost_model in COST_MODELS:
                result = optimize_query(
                    shape.query, built.storage, cost_model=cost_model, use_cache=False
                )
                plan = plan_expression(result.chosen, built.storage).describe()
                spec = result.wcoj_spec
                plans[len(records)] = plan
                records.append(
                    {
                        "workload": workload,
                        "shape": index,
                        "name": shape.name,
                        "cost_model": cost_model,
                        "strategy": result.strategy,
                        "variables": list(spec.variables) if spec is not None else None,
                        "chosen": result.chosen.to_infix(),
                        "plan": hashlib.sha256(plan.encode()).hexdigest()[:16],
                        "cost": _dp_cost(result, built.storage, cost_model),
                    }
                )
    return records, plans


def _line(record: Dict[str, object]) -> str:
    return json.dumps(record, ensure_ascii=False)


def test_ladder_picks_match_the_golden_file():
    records, plans = collect_picks()
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert len(records) == len(golden) == 1248
    differing = [i for i, record in enumerate(records) if _line(record) != golden[i]]
    report = [
        f"case {i}:\n  golden: {golden[i]}\n  now:    {_line(records[i])}\n{plans[i]}"
        for i in differing[:5]
    ]
    assert not differing, f"{len(differing)} pick(s) moved:\n" + "\n".join(report)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_ladder_picks.py --write")
    picks, _plans = collect_picks()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(_line(record) + "\n" for record in picks), encoding="utf-8")
    print(f"wrote {len(picks)} cases to {GOLDEN}")
