"""Diff two trace documents and flag per-operator regressions.

``python -m repro.tools.tracecmp BASELINE CANDIDATE`` compares two trace
documents (``docs/trace.schema.json``, written by
:func:`repro.observability.export.write_trace`).  Engine operator spans
(category ``engine.op``) are aggregated by operator label into *self*
wall time: inclusive duration minus the durations of nested operator
spans.  Self time is the quantity that localizes a slowdown — a sleep
injected into one operator inflates the inclusive time of every
ancestor, but the self time of only that operator.

A key *regresses* when the candidate is slower than the baseline by more
than ``--threshold`` (a ratio, default 1.25×) **and** by more than
``--min-delta-ms`` (an absolute floor, default 1 ms, so timer noise on
microsecond-scale operators never trips the ratio test).  The CLI prints
one line per shared key and exits ``1`` iff any key regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.util.errors import ReproError

#: Span category aggregated from trace documents.
OPERATOR_CATEGORY = "engine.op"


@dataclass
class KeyStats:
    """Aggregated self time for one operator label."""

    key: str
    total_ms: float
    count: int = 1
    rows: Optional[int] = None


@dataclass
class Finding:
    """One key's baseline-vs-candidate comparison."""

    key: str
    baseline_ms: float
    candidate_ms: float
    ratio: Optional[float]
    regressed: bool

    def render(self) -> str:
        flag = "REGRESSION" if self.regressed else "ok"
        ratio = f"{self.ratio:.2f}x" if self.ratio is not None else "n/a"
        return (
            f"{flag:10s} {self.key:55s} "
            f"{self.baseline_ms:10.3f}ms -> {self.candidate_ms:10.3f}ms  ({ratio})"
        )


def _span_durations_ms(doc: Dict[str, Any]) -> Dict[int, float]:
    """Inclusive duration per span id, for finished spans."""
    out: Dict[int, float] = {}
    for rec in doc.get("spans", ()):
        start, end = rec.get("start_ns"), rec.get("end_ns")
        if start is not None and end is not None:
            out[rec["id"]] = (end - start) / 1e6
    return out


def aggregate_trace(doc: Dict[str, Any]) -> Dict[str, KeyStats]:
    """Self-time per operator label across every ``engine.op`` span.

    Self time = the span's inclusive duration minus the inclusive
    durations of its direct ``engine.op`` children (clamped at zero
    against timer granularity).
    """
    spans = list(doc.get("spans", ()))
    durations = _span_durations_ms(doc)
    is_op = {rec["id"]: rec.get("category") == OPERATOR_CATEGORY for rec in spans}
    child_ms: Dict[int, float] = {}
    for rec in spans:
        parent = rec.get("parent")
        if parent is not None and is_op.get(rec["id"]) and is_op.get(parent):
            child_ms[parent] = child_ms.get(parent, 0.0) + durations.get(rec["id"], 0.0)
    stats: Dict[str, KeyStats] = {}
    for rec in spans:
        if not is_op.get(rec["id"]) or rec["id"] not in durations:
            continue
        self_ms = max(durations[rec["id"]] - child_ms.get(rec["id"], 0.0), 0.0)
        rows = rec.get("counters", {}).get("rows_out")
        entry = stats.get(rec["name"])
        if entry is None:
            stats[rec["name"]] = KeyStats(rec["name"], self_ms, 1, rows)
        else:
            entry.total_ms += self_ms
            entry.count += 1
            if rows is not None:
                entry.rows = (entry.rows or 0) + rows
    return stats


def aggregate_file(path: str | Path) -> Dict[str, KeyStats]:
    """Load a trace document and aggregate its operator self times."""
    path = Path(path)
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict) or "spans" not in doc:
        raise ReproError(f"{path}: not a trace document (no 'spans')")
    return aggregate_trace(doc)


def compare(
    baseline: Dict[str, KeyStats],
    candidate: Dict[str, KeyStats],
    threshold: float = 1.25,
    min_delta_ms: float = 1.0,
) -> List[Finding]:
    """Findings for every key present in both aggregates, worst first."""
    findings: List[Finding] = []
    for key in sorted(set(baseline) & set(candidate)):
        base_ms = baseline[key].total_ms
        cand_ms = candidate[key].total_ms
        ratio = cand_ms / base_ms if base_ms > 0 else None
        regressed = (
            cand_ms - base_ms >= min_delta_ms
            and (ratio is None or ratio >= threshold)
        )
        findings.append(Finding(key, base_ms, cand_ms, ratio, regressed))
    findings.sort(key=lambda f: (not f.regressed, -(f.candidate_ms - f.baseline_ms)))
    return findings


def regressions(findings: Sequence[Finding]) -> List[Finding]:
    """Just the regressed findings."""
    return [f for f in findings if f.regressed]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.tracecmp",
        description="Diff two trace documents; exit 1 on per-operator regression.",
    )
    parser.add_argument("baseline", type=Path, help="baseline trace document")
    parser.add_argument("candidate", type=Path, help="candidate trace document")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="slowdown ratio that counts as a regression (default 1.25x)",
    )
    parser.add_argument(
        "--min-delta-ms",
        type=float,
        default=1.0,
        help="absolute slowdown floor in ms (default 1.0; filters timer noise)",
    )
    args = parser.parse_args(argv)

    base = aggregate_file(args.baseline)
    cand = aggregate_file(args.candidate)
    shared = compare(base, cand, threshold=args.threshold, min_delta_ms=args.min_delta_ms)
    if not shared:
        print("no shared operators between the two traces", file=sys.stderr)
        return 2
    for finding in shared:
        print(finding.render())
    bad = regressions(shared)
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    if only_base:
        print(f"only in baseline: {', '.join(only_base[:5])}")
    if only_cand:
        print(f"only in candidate: {', '.join(only_cand[:5])}")
    print(
        f"\n{len(shared)} compared, {len(bad)} regression(s) "
        f"(threshold {args.threshold}x, min delta {args.min_delta_ms}ms)"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
