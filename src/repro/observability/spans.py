"""Hierarchical span tracing: the engine's own flight recorder.

A :class:`Span` is one timed interval of work (an operator's lifetime, an
optimizer phase, a conformance tier) carrying integer ``counters`` (rows
in/out, index hits, build nanoseconds) and string-ish ``attrs`` (plan
labels, dispatch decisions).  Spans form a tree: the query-lifecycle
trace of optimize → plan → execute is one root span whose descendants are
the phases and physical operators beneath it.

A :class:`Tracer` collects root spans and hands out children two ways:

* **stack-scoped** via the :meth:`Tracer.span` context manager — each
  thread keeps its own stack, so concurrent queries trace independently;
* **structural** via :meth:`Tracer.child` — the engine executor mirrors
  the physical plan tree explicitly, which keeps per-row accounting free
  of any thread-local lookups.

Everything here is standard library only.  The module-level switchboard
(:func:`current_tracer`, :func:`tracing`, :func:`maybe_span`) implements
the ``REPRO_TRACE`` contract:

* unset — the process-wide default tracer is live at ``"phases"``
  detail: query/optimizer-phase/conformance-tier spans (a handful per
  query) are recorded, but physical operators are *not* individually
  wrapped, so ambient tracing adds no per-row work;
* truthy (``1``/``true``/...) — the default tracer runs at ``"full"``
  detail: the engine additionally meters every operator (rows in/out,
  per-operator wall time, build/probe timings) at per-row cost;
* ``0``/``false``/``no``/``off`` — tracing is off and every
  instrumented code path degrades to a no-op.

An explicitly installed tracer (:func:`tracing`, e.g. under EXPLAIN
ANALYZE or the contract tests) always runs at full detail and overrides
the environment.
"""

from __future__ import annotations

import os
import threading
from collections import Counter, deque
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterator, List, Optional, Tuple

#: Environment variable controlling the default tracer.
TRACE_ENV = "REPRO_TRACE"

#: Falsy spellings of the env switch.
_OFF = ("0", "false", "no", "off")


def env_detail() -> str:
    """The tracing detail requested by the environment.

    ``"off"`` (REPRO_TRACE=0), ``"phases"`` (unset — the cheap ambient
    default), or ``"full"`` (explicitly truthy — per-operator metering).
    """
    raw = os.environ.get(TRACE_ENV)
    if raw is None:
        return "phases"
    return "off" if raw.lower() in _OFF else "full"


def env_enabled() -> bool:
    """Is tracing enabled by the environment?  Unset means *on*."""
    return env_detail() != "off"


class Span:
    """One timed node of a trace tree."""

    __slots__ = ("name", "category", "start_ns", "end_ns", "counters", "attrs", "children", "tid")

    def __init__(self, name: str, category: str = "span", **attrs):
        self.name = name
        self.category = category
        self.start_ns: Optional[int] = None
        self.end_ns: Optional[int] = None
        self.counters: Counter = Counter()
        self.attrs: Dict[str, object] = dict(attrs)
        self.children: List["Span"] = []
        self.tid = threading.get_ident()

    # -- lifecycle ---------------------------------------------------------

    def begin(self, ts: Optional[int] = None) -> "Span":
        """Record the start time; idempotent (first call wins)."""
        if self.start_ns is None:
            self.start_ns = perf_counter_ns() if ts is None else ts
        return self

    def finish(self, ts: Optional[int] = None) -> "Span":
        """Record the end time (last call wins; a span is re-opened when
        its operator is iterated again)."""
        self.end_ns = perf_counter_ns() if ts is None else ts
        return self

    @property
    def started(self) -> bool:
        return self.start_ns is not None

    @property
    def finished(self) -> bool:
        return self.start_ns is not None and self.end_ns is not None

    @property
    def duration_ns(self) -> Optional[int]:
        if not self.finished:
            return None
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> Optional[float]:
        d = self.duration_ns
        return None if d is None else d / 1e6

    # -- accounting --------------------------------------------------------

    def add(self, key: str, count: int = 1) -> None:
        """Bump an integer counter."""
        self.counters[key] += count

    def set(self, **attrs) -> None:
        """Attach descriptive attributes (labels, decisions, sizes)."""
        self.attrs.update(attrs)

    def child(self, name: str, category: str = "span", **attrs) -> "Span":
        """Create and attach a structural child span (not yet begun)."""
        span = Span(name, category, **attrs)
        self.children.append(span)
        return span

    # -- queries -----------------------------------------------------------

    def walk(self) -> Iterator[Tuple[Optional["Span"], "Span"]]:
        """Yield ``(parent, span)`` pairs over the subtree, pre-order."""
        stack: List[Tuple[Optional[Span], Span]] = [(None, self)]
        while stack:
            parent, span = stack.pop()
            yield parent, span
            for c in reversed(span.children):
                stack.append((span, c))

    def find(self, name_fragment: str, category: Optional[str] = None) -> Optional["Span"]:
        """First span (pre-order) whose name contains ``name_fragment``."""
        for _parent, span in self.walk():
            if name_fragment in span.name and (category is None or span.category == category):
                return span
        return None

    def find_all(self, category: str) -> List["Span"]:
        """Every span of one category in the subtree, pre-order."""
        return [s for _p, s in self.walk() if s.category == category]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dur = f" {self.duration_ms:.3f}ms" if self.finished else ""
        return f"Span({self.name!r}, {self.category}{dur}, {dict(self.counters)})"


class Tracer:
    """A thread-safe collector of span trees.

    ``enabled=False`` makes every entry point a cheap no-op that still
    yields ``None``-safe objects, so call sites need no branching beyond
    the :func:`maybe_span` helper.  ``max_roots`` bounds memory for
    long-lived default tracers.  ``detail`` is ``"full"`` (engine wraps
    every operator for per-row metering) or ``"phases"`` (phase-level
    spans only; the ambient default, see :func:`env_detail`).
    """

    def __init__(
        self,
        enabled: bool = True,
        max_roots: Optional[int] = None,
        detail: str = "full",
    ):
        self.enabled = enabled
        self.detail = detail
        self._roots: deque = deque(maxlen=max_roots)
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def trace_operators(self) -> bool:
        """Should the engine pay for per-operator (per-row) metering?"""
        return self.enabled and self.detail == "full"

    # -- root bookkeeping --------------------------------------------------

    @property
    def roots(self) -> List[Span]:
        with self._lock:
            return list(self._roots)

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open stack-scoped span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _attach(self, span: Span) -> None:
        parent = self.current()
        if parent is not None:
            parent.children.append(span)
        else:
            with self._lock:
                self._roots.append(span)

    # -- span creation -----------------------------------------------------

    @contextmanager
    def span(self, name: str, category: str = "span", **attrs):
        """Stack-scoped span: nested calls on the same thread become
        children; the span begins on entry and finishes on exit."""
        if not self.enabled:
            yield None
            return
        span = Span(name, category, **attrs)
        self._attach(span)
        stack = self._stack()
        stack.append(span)
        span.begin()
        try:
            yield span
        finally:
            span.finish()
            stack.pop()

    def child(self, parent: Optional[Span], name: str, category: str = "span", **attrs) -> Optional[Span]:
        """Structural child creation (or a new root when ``parent`` is
        None); returns None when disabled."""
        if not self.enabled:
            return None
        if parent is None:
            span = Span(name, category, **attrs)
            self._attach(span)
            return span
        return parent.child(name, category, **attrs)


# ---------------------------------------------------------------------------
# The active-tracer switchboard
# ---------------------------------------------------------------------------

#: Per-thread explicitly-installed tracer stack (``tracing()``).
_installed = threading.local()

#: Lazily-created process-wide default tracer (REPRO_TRACE on/unset).
_default: Optional[Tracer] = None
_default_lock = threading.Lock()

#: Root-span retention of the default tracer — bounded so that leaving
#: tracing on in a long-lived process cannot grow memory without limit.
DEFAULT_MAX_ROOTS = 64


def default_tracer() -> Tracer:
    """The process-wide default tracer (created on first use).

    Its detail level follows ``REPRO_TRACE`` dynamically, so flipping the
    environment between queries (as tests do) takes effect immediately.
    """
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = Tracer(enabled=True, max_roots=DEFAULT_MAX_ROOTS)
    detail = env_detail()
    if detail != "off" and _default.detail != detail:
        _default.detail = detail
    return _default


def current_tracer() -> Optional[Tracer]:
    """The tracer instrumented code should report to, or None.

    Resolution order: the innermost :func:`tracing` installation on this
    thread (which may be an explicitly *disabled* tracer, masking the
    default), else the process default when ``REPRO_TRACE`` permits,
    else None.
    """
    stack = getattr(_installed, "stack", None)
    if stack:
        tracer = stack[-1]
        return tracer if tracer.enabled else None
    if env_enabled():
        return default_tracer()
    return None


@contextmanager
def tracing(tracer: Optional[Tracer] = None, enabled: Optional[bool] = None):
    """Install a tracer for the duration of the block and yield it.

    With no arguments a fresh tracer is created honouring ``REPRO_TRACE``;
    ``enabled=True`` forces full-detail tracing on regardless of the
    environment (EXPLAIN ANALYZE does this), ``enabled=False`` forces it
    off.  Explicit installations always use full detail: asking for a
    tracer by hand is asking for per-operator actuals.
    """
    if tracer is None:
        tracer = Tracer(enabled=env_enabled() if enabled is None else enabled)
    stack = getattr(_installed, "stack", None)
    if stack is None:
        stack = []
        _installed.stack = stack
    stack.append(tracer)
    try:
        yield tracer
    finally:
        stack.pop()


@contextmanager
def maybe_span(name: str, category: str = "span", **attrs):
    """A span on the active tracer, or a no-op yielding None."""
    tracer = current_tracer()
    if tracer is None:
        yield None
        return
    with tracer.span(name, category, **attrs) as span:
        yield span


def active_span() -> Optional[Span]:
    """The innermost open stack-scoped span of the active tracer."""
    tracer = current_tracer()
    return None if tracer is None else tracer.current()
