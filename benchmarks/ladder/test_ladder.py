"""Determinism and smoke checks of the ladder (not part of tier-1).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/ladder -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as W  # noqa: E402

from repro.optimizer.pipeline import optimize_query  # noqa: E402

EXACT = (
    "engine.executor.rows_retrieved",
    "optimizer.dp.subsets",
    "optimizer.pipeline.strategy_dp",
    "optimizer.pipeline.strategy_yannakakis",
    "optimizer.pipeline.strategy_wcoj",
    "core.reorderability.free_share",
)


def fingerprints(workload: W.Workload) -> list:
    return [
        optimize_query(shape.query, workload.storage, use_cache=False).fingerprint
        for shape in workload.shapes
    ]


def generation(seed: int) -> dict:
    """Everything the generators hand the program or the loops, as plain data."""
    out: dict = {}
    for name, build in W.BUILDERS.items():
        workload = build(seed, W.SMOKE)
        out[name] = {
            "fingerprints": fingerprints(workload),
            "queries": [shape.query.to_infix(show_predicates=True) for shape in workload.shapes],
            "picks": workload.picks[:512],
            "tables": {t: [repr(r) for r in workload.storage[t].rows] for t in workload.storage},
        }
    mixed = W.BUILDERS["mixed_open_writes"](seed, W.SMOKE)
    out["arrivals"] = {rate: W.arrival_schedule(seed, rate, 5.0) for rate in W.MIXED_RATES}
    out["writes"] = [(w.at_s, w.table, [repr(r) for r in w.rows]) for w in mixed.writes(9.0)]
    return out


def test_same_seed_same_inputs_other_seed_other_inputs():
    first, again, other = generation(3), generation(3), generation(4)
    assert first == again
    for key in first:
        assert first[key] != other[key], key


def test_cold_pool_fingerprints_are_distinct_and_shares_exact():
    workload = W.adhoc_plan_cold(0, W.SMOKE)
    prints = [p for p in fingerprints(workload) if p is not None]
    assert len(prints) == len(set(prints))
    planted = [shape.kind for shape in workload.shapes]
    assert planted.count("decline") * 10 == len(planted)
    assert planted.count("convert") * 10 == len(planted)


def run_ladder(*flags: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *flags], stdout=subprocess.PIPE, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced(workload: str, seed: int, tmp_path: Path) -> dict:
    line = run_ladder(
        "--workload", workload, "--seed", str(seed), "--trace", "1", "--smoke", "--seconds", "1",
        "--out", str(tmp_path),
    )
    assert line["correct"] and line["failed"] == 0
    return {name: line["metrics"][name]["value"] for name in EXACT}


def test_exact_counters_repeat_and_follow_the_seed(tmp_path):
    first = traced("adhoc_plan_cold", 5, tmp_path)
    assert first == traced("adhoc_plan_cold", 5, tmp_path)
    assert first != traced("adhoc_plan_cold", 6, tmp_path)
    assert first["core.reorderability.free_share"] == W.ADHOC_FREE_SHARE
    cyclic = traced("cyclic_skew_warm", 5, tmp_path)
    assert cyclic == traced("cyclic_skew_warm", 5, tmp_path)


def test_smoke_finishes_within_a_minute(tmp_path):
    start = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(tmp_path)],
        stdout=subprocess.DEVNULL, check=True,
    )
    assert time.monotonic() - start < 60
    written = {path.name for path in tmp_path.iterdir()}
    for name in W.WORKLOADS:
        assert f"{name}-seed0-end_to_end.json" in written
        assert f"{name}-seed0-per_layer.json" in written
        assert f"{name}-seed0-spans.jsonl" in written


def test_benchmark_json_names_every_workload_and_one_setup_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert spec["paths"] == ["benchmarks/ladder"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
