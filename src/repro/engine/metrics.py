"""Execution metrics — the paper's own cost currency.

Example 1 argues for outerjoin reordering in terms of *tuples retrieved*
from base relations (``2·10^7 + 1`` versus ``3``).  The engine therefore
instruments every base-table access method with a retrieval counter, per
table and in total, plus auxiliary counters (predicate evaluations, index
probes, rows emitted per operator) that the optimizer's cost model and the
benchmark harness report alongside.

Scoping: every counter lives on the :class:`Metrics` instance of one
execution; when the query runs traced, the executor flushes the totals
into the execution's root span *once* at the end
(:meth:`Metrics.flush_to_span`), so per-query numbers travel with the
trace without any per-row tracing branch in the hot counters.  These
counters touch no process-global state: the advisory
:data:`repro.tools.instrumentation.STATS` sink keeps only counts no
``Metrics`` holds (batches emitted, trie builds, leapfrog seeks).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.observability.spans import Span
from repro.util.cancel import CancelToken

#: Poll the cancel token once per this many predicate evaluations — the
#: densest per-row code path, so deadlines fire inside long nested-loop
#: sweeps, not just between rows at the plan root.  (Retrievals poll on
#: every call instead: scans and index joins report them once per batch,
#: so a hash build or a probe that emits nothing still passes a poll.)
#: A power of two keeps the check a cheap mask.
CANCEL_EVAL_MASK = 0x3FF  # every 1024 evaluations


@dataclass
class Metrics:
    """Mutable counters shared by the physical operators of one execution.

    A Metrics instance belongs to exactly one query; it is the one object
    every physical operator touches, which makes it the natural channel
    for *cooperative cancellation*: when ``cancel`` is set, the hot
    counters poll it periodically and raise the token's
    :class:`~repro.util.errors.CancellationError` out of whatever loop
    the query is in.  Queries without a token pay one attribute test.
    """

    tuples_retrieved: Counter = field(default_factory=Counter)
    index_probes: Counter = field(default_factory=Counter)
    predicate_evaluations: int = 0
    rows_emitted: Counter = field(default_factory=Counter)
    #: Optional cooperative-cancellation token for this query.
    cancel: Optional[CancelToken] = None

    def retrieved(self, table: str, count: int = 1) -> None:
        """Record base-table tuples handed to the query (Example 1's metric).

        Callers report once per batch, so this also polls the cancel token
        on every call.
        """
        self.tuples_retrieved[table] += count
        if self.cancel is not None:
            self.cancel.check()

    def probed(self, index: str, count: int = 1) -> None:
        self.index_probes[index] += count

    def evaluated(self, count: int = 1) -> None:
        self.predicate_evaluations += count
        if self.cancel is not None and (self.predicate_evaluations & CANCEL_EVAL_MASK) < count:
            self.cancel.check()

    def emitted(self, operator: str, count: int = 1) -> None:
        self.rows_emitted[operator] += count

    def flush_to_span(self, span: Span) -> None:
        """Copy the totals into a span's counters (once, at query end)."""
        counters = span.counters
        counters["tuples_retrieved"] += self.total_retrieved
        counters["predicate_evaluations"] += self.predicate_evaluations
        if self.index_probes:
            counters["index_probes"] += sum(self.index_probes.values())
        if self.rows_emitted:
            counters["rows_emitted"] += sum(self.rows_emitted.values())

    @property
    def total_retrieved(self) -> int:
        """Total base tuples retrieved — the headline number of Example 1."""
        return sum(self.tuples_retrieved.values())

    def summary(self) -> str:
        lines = [f"tuples retrieved: {self.total_retrieved}"]
        for table in sorted(self.tuples_retrieved):
            lines.append(f"  {table}: {self.tuples_retrieved[table]}")
        if self.index_probes:
            lines.append(f"index probes: {sum(self.index_probes.values())}")
        lines.append(f"predicate evaluations: {self.predicate_evaluations}")
        if self.rows_emitted:
            lines.append(f"rows emitted: {sum(self.rows_emitted.values())}")
            for operator in sorted(self.rows_emitted):
                lines.append(f"  {operator}: {self.rows_emitted[operator]}")
        return "\n".join(lines)
