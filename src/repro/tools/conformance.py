"""Command-line front end for the differential conformance harness.

Four subcommands::

    python -m repro.tools.conformance fuzz --cases 1000 --seed 0
    python -m repro.tools.conformance replay artifacts/repros/repro-123.json
    python -m repro.tools.conformance planspace --scenario figure2 --seed 3
    python -m repro.tools.conformance plancache --cases 200 --seed 0

``fuzz`` runs a fixed-seed differential campaign across the executor
tiers, shrinking any disagreement to a minimal reproducer JSON under
``--artifacts`` (default ``artifacts/repros``).  ``replay`` re-runs one
such artifact and prints the per-tier verdict.  ``planspace`` checks
Theorem 1 executably: every implementing tree of the chosen scenario and
every optimizer's output must agree on a random database.  ``plancache``
checks the plan cache the same way: replayed (cached) plans must be
bag-equal to the naive oracle on randomized queries.

Exit status is 0 iff every check agreed — CI wires the fuzz smoke
directly to this.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence

from repro.conformance import (
    EXECUTOR_TIERS,
    check_plan_cache,
    check_plan_space,
    replay_artifact,
    run_campaign,
)
from repro.conformance.check import require_known_tiers
from repro.datagen import (
    TOPOLOGY_KINDS,
    GraphScenario,
    chain,
    example2_graph,
    figure1_graph,
    figure2_graph,
    join_cycle,
    random_nice_graph,
    snowflake,
    star,
)
from repro.tools import instrumentation
from repro.util.errors import ReproError

SCENARIOS: Dict[str, Callable[[], GraphScenario]] = {
    "example1": lambda: chain(3, ["join", "out"], name="example1"),
    "example2": example2_graph,
    "figure1": figure1_graph,
    "figure2": figure2_graph,
    "oj-chain": lambda: chain(4, ["out", "out", "out"], name="oj-chain"),
    "star": lambda: star(4, oj_leaves=2),
    "snowflake": lambda: snowflake(3, arm_length=2, oj_arms=1),
    "cycle": lambda: join_cycle(4),
    "random-nice": lambda: random_nice_graph(3, 2, seed=1),
}


def _parse_executors(spec: Optional[str]) -> tuple:
    if not spec:
        return EXECUTOR_TIERS
    names = tuple(s.strip() for s in spec.split(",") if s.strip())
    try:
        require_known_tiers(names)
    except ValueError as exc:
        raise SystemExit(str(exc))
    return names


def _parse_topologies(spec: Optional[str]) -> Optional[tuple]:
    if spec is None:
        return None
    names = tuple(s.strip() for s in spec.split(",") if s.strip())
    unknown = [n for n in names if n not in TOPOLOGY_KINDS]
    if unknown or not names:
        # A spec that parses to nothing (e.g. "--topologies ,") would
        # silently widen to every family; treat it as the typo it is.
        raise SystemExit(
            f"unknown or empty topology kind(s) {unknown}; "
            f"known: {', '.join(TOPOLOGY_KINDS)}"
        )
    return names


def cmd_fuzz(args: argparse.Namespace, out) -> int:
    report = run_campaign(
        cases=args.cases,
        seed=args.seed,
        executors=_parse_executors(args.executors),
        artifacts_dir=args.artifacts,
        shrink=not args.no_shrink,
        topologies=_parse_topologies(args.topologies),
    )
    print(report.summary(), file=out)
    if args.stats:
        for key, value in sorted(instrumentation.snapshot().items()):
            print(f"  stat {key}: {value}", file=out)
    return 0 if report.ok else 1


def cmd_replay(args: argparse.Namespace, out) -> int:
    worst = 0
    for path in args.artifacts:
        try:
            case, result = replay_artifact(path)
        except (OSError, ValueError, KeyError, ReproError) as exc:
            raise SystemExit(f"cannot replay {path}: {exc}")
        print(f"{path}: {case.description}", file=out)
        print(f"  query: {case.expression!r}", file=out)
        print(f"  {result.summary()}", file=out)
        if not result.ok:
            worst = 1
    return worst


def cmd_planspace(args: argparse.Namespace, out) -> int:
    names = args.scenario or sorted(SCENARIOS)
    status = 0
    for name in names:
        factory = SCENARIOS.get(name)
        if factory is None:
            raise SystemExit(f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}")
        report = check_plan_space(factory(), seed=args.seed, max_trees=args.max_trees)
        print(report.summary(), file=out)
        if not report.ok:
            status = 1
    return status


def cmd_plancache(args: argparse.Namespace, out) -> int:
    report = check_plan_cache(cases=args.cases, seed=args.seed)
    print(report.summary(), file=out)
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.conformance",
        description="differential conformance checks across executor tiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="run a fixed-seed differential fuzz campaign")
    fuzz.add_argument("--cases", type=int, default=200, help="number of cases (default 200)")
    fuzz.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    fuzz.add_argument(
        "--executors",
        default=None,
        help=f"comma-separated tier list (default all: {','.join(EXECUTOR_TIERS)})",
    )
    fuzz.add_argument(
        "--artifacts",
        default="artifacts/repros",
        help="directory for shrunk reproducer JSONs (default artifacts/repros)",
    )
    fuzz.add_argument(
        "--topologies",
        default=None,
        help=(
            "comma-separated topology families to draw from "
            f"(default all: {','.join(TOPOLOGY_KINDS)})"
        ),
    )
    fuzz.add_argument("--no-shrink", action="store_true", help="keep raw counterexamples")
    fuzz.add_argument("--stats", action="store_true", help="print instrumentation counters")
    fuzz.set_defaults(func=cmd_fuzz)

    replay = sub.add_parser("replay", help="re-run reproducer artifact(s)")
    replay.add_argument("artifacts", nargs="+", help="reproducer JSON path(s)")
    replay.set_defaults(func=cmd_replay)

    planspace = sub.add_parser(
        "planspace", help="check all implementing trees + optimizer outputs agree"
    )
    planspace.add_argument(
        "--scenario",
        action="append",
        help=f"scenario name (repeatable; default all: {', '.join(sorted(SCENARIOS))})",
    )
    planspace.add_argument("--seed", type=int, default=0, help="database seed (default 0)")
    planspace.add_argument(
        "--max-trees", type=int, default=2000, help="enumeration cap per graph (default 2000)"
    )
    planspace.set_defaults(func=cmd_planspace)

    plancache = sub.add_parser(
        "plancache", help="check cached-plan replay is bag-equal to the naive oracle"
    )
    plancache.add_argument("--cases", type=int, default=200, help="number of cases (default 200)")
    plancache.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    plancache.set_defaults(func=cmd_plancache)

    args = parser.parse_args(argv)
    return args.func(args, out)


if __name__ == "__main__":
    raise SystemExit(main())
