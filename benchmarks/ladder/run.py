#!/usr/bin/env python3
"""The ladder: one fixed served-traffic benchmark with per-layer attribution.

    python3 benchmarks/ladder/run.py --workload report_oj_warm --seed 0 --seconds 30 --trace 0
    python3 benchmarks/ladder/run.py --workload adhoc_plan_cold --trace 1
    python3 benchmarks/ladder/run.py --smoke            # every workload, both runs, < 60 s
    python3 benchmarks/ladder/run.py --check-repeat     # full set twice, spread table

``--trace 0`` measures the end-to-end metrics through ``QueryService``;
``--trace 1`` is the separate traced run that attributes time to layers
from bench-side spans.  Either prints a table of every metric with its
unit and quartiles, and as the last line of standard output one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Exit status is
non-zero when any result disagrees with an oracle.

Fixed conditions: every ``REPRO_*`` variable is scrubbed and
``PYTHONHASHSEED=0`` is set (by re-executing the interpreter once), so
what runs is the program with its shipped switch defaults; each workload
runs in a process of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Default measuring time per run (s); the same figure is ``run_seconds``
#: in BENCHMARK.json.  The smoke sizing measures for SMOKE_SECONDS.
RUN_SECONDS = 30
SMOKE_SECONDS = 3


def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0, help="feeds only the generators of this directory")
    parser.add_argument("--seconds", type=float, default=None, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: the traced per-layer run")
    parser.add_argument("--smoke", action="store_true", help="small tables and a short run")
    parser.add_argument("--check-repeat", action="store_true", help="run the untraced set twice and compare")
    parser.add_argument("--out", default=str(HERE / "out"), help="directory for reports and span dumps")
    return parser.parse_args(argv)


def clean_environment(argv: Sequence[str]) -> None:
    """Re-execute once under the fixed environment if this one differs.

    ``PYTHONHASHSEED`` only takes effect at interpreter start, hence the
    exec; it replaces this process, so there is no child to wait for.
    """
    dirty = [key for key in os.environ if key.startswith("REPRO_")]
    if not dirty and os.environ.get("PYTHONHASHSEED") == "0":
        return
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def bounds() -> Dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def run_child(args: argparse.Namespace, workload: str, trace: int, seconds: float) -> Dict[str, object]:
    """One workload in a fresh process; returns its result line."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(trace), "--out", args.out,
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        raise SystemExit(done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_repeat(args: argparse.Namespace, names: Sequence[str], seconds: float) -> int:
    """Two untraced sets on the same code; fail on a difference over the bound."""
    limit = bounds()
    sets: List[Dict[str, Dict[str, float]]] = []
    for _ in range(2):
        sets.append(
            {
                name: {k: v["value"] for k, v in run_child(args, name, 0, seconds)["metrics"].items()}
                for name in names
            }
        )
    print("\ncheck-repeat: relative difference of the second set from the first")
    print(f"{'workload':20s} {'metric':18s} {'first':>12s} {'second':>12s} {'diff':>8s} {'bound':>6s}")
    worst = 0
    for name in names:
        for metric, first in sets[0][name].items():
            second = sets[1][name][metric]
            diff = abs(second - first) / abs(first) if first else float("inf")
            over = diff > limit[metric]
            worst += over
            print(
                f"{name:20s} {metric:18s} {first:12.4f} {second:12.4f} {diff:8.3f} "
                f"{limit[metric]:6.2f}{'  OVER' if over else ''}"
            )
    print("check-repeat:", "FAILED" if worst else "ok")
    return 1 if worst else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse(argv)
    seconds = args.seconds if args.seconds is not None else (SMOKE_SECONDS if args.smoke else RUN_SECONDS)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ladder: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    clean_environment(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as W

    names = [args.workload] if args.workload else list(W.WORKLOADS)
    unknown = [name for name in names if name not in W.BUILDERS]
    if unknown:
        print(f"ladder: unknown workload {unknown[0]!r}; choose from {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.check_repeat:
        return check_repeat(args, names, seconds)
    if args.workload is None:
        for name in names:
            for trace in (0, 1) if args.smoke else (args.trace,):
                run_child(args, name, trace, seconds)
        return 0

    import report

    sizing = W.SMOKE if args.smoke else W.FULL
    out_dir = Path(args.out)
    if args.trace:
        import staged

        outcome = staged.run(args.workload, args.seed, seconds, sizing, out_dir)
    else:
        outcome = report.run_end_to_end(args.workload, args.seed, seconds, sizing, out_dir)
    print(json.dumps(outcome.result_line()))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
