"""Persistent benchmark harness: run the bench suite, record a JSON report.

``benchmarks/run_all.py`` (a thin CLI over :func:`main`) executes every
``bench_*.py`` scenario in its own pytest subprocess and writes one report
(default ``BENCH_PR1.json`` at the repo root) containing, per scenario:

* wall-clock of the whole scenario run,
* per-test timings (pytest-benchmark means) when timing is enabled,
* the work counters from :mod:`repro.tools.instrumentation` — tuples
  retrieved from base tables, optimizer plans built, DP subsets filled,
  implementing trees enumerated.

Modes:

* default        — all scenarios timed;
* ``--smoke``    — headline scenarios only, single pass, timing disabled:
                   the CI health check;
* ``--seed N``   — forwarded as ``--bench-seed`` to the suite (offsets
                   random-database generation in seed-aware scenarios);
* ``--only S``   — filter scenarios by substring.

The per-strategy races that used to live here (batch vs row iterators,
the retired semijoin reducer, Leapfrog Triejoin and the SQL backends vs
the DP plan, tracing overhead) are superseded by the served-traffic ladder under
``benchmarks/ladder/``, which times SQLite-native as its yardstick; their
last reports stay checked in as ``BENCH_PR*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[3]
BENCH_DIR = REPO_ROOT / "benchmarks"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PR1.json"

#: The scenarios ``--smoke`` runs.
HEADLINE = (
    "bench_planning_scalability.py",
    "bench_theorem1_free_reorder.py",
    "bench_optimizer_comparison.py",
)

#: Instrumentation keys copied into each scenario record.
STAT_KEYS = ("tuples_retrieved", "plans_optimized", "dp_subsets", "trees_enumerated")


def discover_scenarios(bench_dir: Path = BENCH_DIR, only: Optional[str] = None) -> List[Path]:
    """All bench_*.py files, sorted; optionally filtered by substring."""
    scenarios = sorted(bench_dir.glob("bench_*.py"))
    if only:
        scenarios = [p for p in scenarios if only in p.name]
    return scenarios


def run_scenario(
    path: Path,
    *,
    seed: int = 0,
    timings: bool = True,
) -> Dict[str, object]:
    """Run one scenario in a pytest subprocess; return its record."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src

    cmd = [sys.executable, "-m", "pytest", str(path), "-q", "-p", "no:cacheprovider"]
    cmd += ["--bench-seed", str(seed)]

    with tempfile.TemporaryDirectory() as tmp:
        stats_file = Path(tmp) / "stats.json"
        env["REPRO_BENCH_STATS_FILE"] = str(stats_file)
        bench_json = Path(tmp) / "bench.json"
        if timings:
            cmd += [f"--benchmark-json={bench_json}"]
        else:
            cmd += ["--benchmark-disable"]

        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=REPO_ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - start

        record: Dict[str, object] = {
            "scenario": path.name,
            "mode": "fast",
            "ok": proc.returncode == 0,
            "returncode": proc.returncode,
            "wall_clock_s": round(wall, 4),
        }
        if proc.returncode != 0:
            record["tail"] = proc.stdout.splitlines()[-15:]
        if stats_file.exists():
            stats = json.loads(stats_file.read_text())
            for key in STAT_KEYS:
                record[key] = stats.get(key, 0)
        if timings and bench_json.exists():
            data = json.loads(bench_json.read_text())
            record["timings"] = {
                b["name"]: round(b["stats"]["mean"], 6) for b in data.get("benchmarks", [])
            }
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run_all.py", description="Run the benchmark suite and write a JSON report."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="headline scenarios only, timing disabled (CI health check)",
    )
    parser.add_argument("--seed", type=int, default=0, help="forwarded as --bench-seed")
    parser.add_argument("--only", help="substring filter on scenario file names")
    parser.add_argument(
        "--output", type=Path, default=None, help="report path (default BENCH_PR1.json)"
    )
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = DEFAULT_OUTPUT

    if args.smoke:
        scenarios = [BENCH_DIR / name for name in HEADLINE]
        if args.only:
            scenarios = [p for p in scenarios if args.only in p.name]
    else:
        scenarios = discover_scenarios(only=args.only)
    if not scenarios:
        print("no scenarios matched", file=sys.stderr)
        return 2

    timings = not args.smoke
    records: List[Dict[str, object]] = []
    failures = 0
    for path in scenarios:
        record = run_scenario(path, seed=args.seed, timings=timings)
        records.append(record)
        status = "ok" if record["ok"] else "FAIL"
        print(f"{path.name:40s} {status}  {record['wall_clock_s']:.2f}s")
        if not record["ok"]:
            failures += 1
            for line in record.get("tail", []):
                print(f"    {line}")

    report = {
        "meta": {
            "generated_by": "benchmarks/run_all.py",
            "seed": args.seed,
            "smoke": args.smoke,
            "mode": "fast",
            "python": sys.version.split()[0],
        },
        "scenarios": records,
        # Required by the report schema; the committed BENCH_PR1.json fills it.
        "comparisons": {},
    }
    from repro.tools.benchschema import validate_report

    validate_report(report)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.output}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
