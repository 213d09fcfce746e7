"""The execution tuning knobs: one mechanism, instantiated once per knob.

A :class:`Switch` holds a process default plus scoped overrides that are
private to the thread that opened them, so a test or a conformance tier
can pin a value for its own query without another thread seeing it or
restoring over it.  None chooses a strategy: the optimizer's cost gate
decides which plan runs.

The module lives under ``util`` so the algebra can consult it without
importing the engine.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class Switch:
    """A process-wide default plus per-thread scoped overrides."""

    def __init__(self, default):
        self.default = default
        self._tls = threading.local()

    def value(self):
        """The innermost :meth:`scoped` override on this thread, else the default."""
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else self.default

    @contextmanager
    def scoped(self, value):
        """Override the value on this thread for the duration of the block."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        stack.append(type(self.default)(value))
        try:
            yield
        finally:
            stack.pop()


#: Rows per :class:`~repro.engine.batch.ColumnBatch` pulled from a scan or
#: chunked from an n-ary join's row output (joins may emit larger batches).
_BATCH_SIZE = Switch(1024)
#: Distinct-row product below which an algebra hash kernel declines and
#: the nested loop runs (:mod:`repro.algebra.kernels`); the ``kernels``
#: conformance tier and the kernel tests pin it to 0.
_SMALL_INPUT = Switch(32)

batch_size = _BATCH_SIZE.value
small_input_cutoff, small_input_limit = _SMALL_INPUT.value, _SMALL_INPUT.scoped


def batch_sized(size: int):
    """Pin the batch size on this thread (tests and the conformance tier)."""
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    return _BATCH_SIZE.scoped(size)
