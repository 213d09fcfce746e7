"""The untraced run of one workload, and how any run is reported.

A run's metrics are named and given units by ``BENCHMARK.json`` alone: the
result line carries exactly the metrics that file lists for the run's kind
(``end_to_end`` untraced, ``per_layer`` traced), so the two cannot drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import harness as H
import workloads as W

ROOT = Path(__file__).resolve().parents[2]


def declared(kind: str) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@dataclass
class Outcome:
    """Everything one run reports."""

    workload: str
    seed: int
    kind: str  # "end_to_end" or "per_layer"
    attempted: int
    failed: int
    mismatches: List[str]
    #: name -> (q1, value, q3); q1/q3 equal the value where there is no spread.
    metrics: Dict[str, Tuple[float, float, float]]
    #: Metrics that do not apply to this workload (printed n/a; the result
    #: line, which must carry every declared metric, reads 0 for them).
    not_applicable: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def result_line(self) -> Dict[str, object]:
        units = declared(self.kind)
        missing = [name for name in units if name not in self.metrics and name not in self.not_applicable]
        if missing:
            raise KeyError(f"run did not measure declared metrics {missing}")
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics.get(name, (0.0, 0.0, 0.0))[1], "unit": unit}
                for name, unit in units.items()
            },
        }

    def print_table(self) -> None:
        units = declared(self.kind)
        print(f"# {self.workload}  seed={self.seed}  {self.kind}")
        for note in self.notes:
            print(f"#   {note}")
        print(f"{'metric':44s} {'value':>14s} {'unit':8s} {'q1':>12s} {'q3':>12s}")
        for name, unit in units.items():
            if name in self.not_applicable:
                print(f"{name:44s} {'n/a':>14s} {unit:8s}")
                continue
            q1, value, q3 = self.metrics[name]
            print(f"{name:44s} {value:14.4f} {unit:8s} {q1:12.4f} {q3:12.4f}")
        print(
            f"# attempted={self.attempted} failed={self.failed} "
            f"oracle mismatches={len(self.mismatches)}"
        )
        for label in self.mismatches:
            print(f"#   MISMATCH {label}")

    def write(self, out_dir: Path) -> Path:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{self.workload}-seed{self.seed}-{self.kind}.json"
        body = {
            "workload": self.workload,
            "seed": self.seed,
            "kind": self.kind,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "mismatches": self.mismatches,
            "metrics": {
                name: {"q1": q1, "value": value, "q3": q3}
                for name, (q1, value, q3) in self.metrics.items()
            },
            "not_applicable": self.not_applicable,
            "notes": self.notes,
            **self.detail,
        }
        path.write_text(json.dumps(body, indent=1, default=repr) + "\n")
        return path


def run_end_to_end(name: str, seed: int, seconds: float, sizing: W.Sizing, out_dir: Path) -> Outcome:
    """Set up, gate, send ``seconds`` of timed traffic, verify, report."""
    workload, service, setups = H.timed_set_up(name, seed, sizing)
    verdicts = H.Verdicts()
    oracle = H.Oracle(workload)
    try:
        oracle.gate(service, H.warm_up_indices(workload), verdicts)
        if workload.cache == "cold":
            service.plan_cache.clear()
        result = H.closed_loop(service, workload, seconds, W.ROUNDS)
        if result.writes:
            # The references are stale.  The service is quiesced (one
            # client, its last ticket resolved) and past the last write:
            # every shape again, against oracles rebuilt on the new rows.
            oracle.close()
            oracle = H.Oracle(workload)
            oracle.gate(service, range(len(workload.shapes)), verdicts)
        else:
            oracle.check_retained(result.retained, verdicts)
    finally:
        oracle.close()
        service.close()

    metrics = H.end_to_end(result)
    metrics["setup_s"] = H.spread(setups)
    rss = H.peak_rss_mb()
    metrics["peak_rss_mb"] = (rss, rss, rss)
    samples = [len(this.sojourns) for this in result.rounds]
    notes = [
        f"{len(result.rounds)} rounds of {seconds / len(result.rounds):.1f} s; value = median over rounds, "
        f"q1/q3 beside it; samples per round {samples}, {min(samples) // 20} or more beyond p95",
        f"outcomes {dict(sorted(result.side.statuses.items()))}; "
        f"oracle comparisons {verdicts.checked}",
    ]
    if result.writes:
        notes.append(f"{result.writes} write batches applied between queries by the client thread")
    outcome = Outcome(
        workload=name,
        seed=seed,
        kind="end_to_end",
        attempted=result.attempted + verdicts.checked,
        failed=result.failed + len(verdicts.mismatches),
        mismatches=verdicts.mismatches,
        metrics=metrics,
        notes=notes,
        detail={
            "setup_s_all": setups,
            "plan_cache": service.plan_cache.snapshot(),
            "service_side_ms": result.side.per_query_ms(),
        },
    )
    outcome.print_table()
    outcome.write(out_dir)
    return outcome
