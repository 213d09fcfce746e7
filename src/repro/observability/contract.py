"""The metrics contract: invariants every trace must satisfy.

The tracer is only trustworthy if its numbers are internally consistent,
so the contract pins down what "consistent" means and the property tests
(:mod:`tests.test_observability_contract`) enforce it over hundreds of
randomized traced queries:

* **Timing sanity** — every finished span has ``end >= start``; a span
  with an end has a start.
* **Nesting** — a child interval lies within its parent's interval
  (children are finalized before their parents close, so this holds even
  for operators abandoned early by semi/anti short-circuits).
* **Row conservation** — for engine operator spans, a parent's ``rows_in``
  equals the sum of its children's ``rows_out``: no row crossing an
  operator boundary goes unaccounted.
* **Root accuracy** — the plan root's ``rows_out`` equals the number of
  rows the query actually returned.

Violations come back as strings (not exceptions) so tests and tools can
report all of them at once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.observability.export import records_to_spans
from repro.observability.spans import Span

#: Category used by the engine's per-operator spans.
ENGINE_OP_CATEGORY = "engine.op"


def validate_span_tree(root: Span, result_rows: Optional[int] = None) -> List[str]:
    """All contract violations in one span tree (empty list means clean)."""
    errors: List[str] = []
    for parent, span in root.walk():
        where = f"{span.category}:{span.name}"
        if span.end_ns is not None and span.start_ns is None:
            errors.append(f"{where}: finished but never started")
        if span.finished and span.end_ns < span.start_ns:
            errors.append(f"{where}: negative duration ({span.start_ns} -> {span.end_ns})")
        if parent is not None and span.started and parent.started:
            if span.start_ns < parent.start_ns:
                errors.append(f"{where}: starts before parent {parent.name}")
            if span.finished and parent.finished and span.end_ns > parent.end_ns:
                errors.append(f"{where}: ends after parent {parent.name}")
        if span.category == ENGINE_OP_CATEGORY:
            op_children = [c for c in span.children if c.category == ENGINE_OP_CATEGORY]
            if op_children:
                fed = sum(c.counters.get("rows_out", 0) for c in op_children)
                if span.counters.get("rows_in", 0) != fed:
                    errors.append(
                        f"{where}: rows_in={span.counters.get('rows_in', 0)} but "
                        f"children emitted {fed}"
                    )
        for key, value in span.counters.items():
            if value < 0:
                errors.append(f"{where}: counter {key} is negative ({value})")
    if result_rows is not None:
        plan_root = _plan_root(root)
        if plan_root is None:
            errors.append("no engine operator span found to check the root row count")
        elif plan_root.counters.get("rows_out", 0) != result_rows:
            errors.append(
                f"plan root {plan_root.name} reported rows_out="
                f"{plan_root.counters.get('rows_out', 0)} but the query returned {result_rows}"
            )
    return errors


def _plan_root(root: Span) -> Optional[Span]:
    """The topmost engine-operator span under (or at) ``root``."""
    if root.category == ENGINE_OP_CATEGORY:
        return root
    for _parent, span in root.walk():
        if span.category == ENGINE_OP_CATEGORY:
            return span
    return None


def validate_trace_document(doc: dict, result_rows: Optional[int] = None) -> List[str]:
    """Contract check for a loaded flat trace document (all roots)."""
    try:
        roots = records_to_spans(doc.get("spans", []))
    except Exception as exc:  # malformed parent links etc.
        return [f"unreadable trace document: {exc}"]
    errors: List[str] = []
    for root in roots:
        errors.extend(validate_span_tree(root, result_rows=result_rows))
    return errors


def memory_high_water(root: Span) -> int:
    """Largest number of rows any single operator held materialized.

    An estimate in *rows*, not bytes: hash builds, NLJ inner
    materializations and the n-ary joins' buffered inputs each report their
    ``mem_rows``; the high-water mark is the maximum across operators
    (buffers coexist, but per-operator peaks are what the paper's
    accounting needs to compare access paths).
    """
    return max(
        (s.counters.get("mem_rows", 0) for _p, s in root.walk()),
        default=0,
    )


def operator_spans(roots: Sequence[Span]) -> List[Span]:
    """Every engine-operator span across the given trees, pre-order."""
    out: List[Span] = []
    for root in roots:
        out.extend(root.find_all(ENGINE_OP_CATEGORY))
    return out
