"""The execution tuning knob: the batch size, with per-thread overrides.

:func:`batch_size` reads a process default unless a scoped override,
private to the thread that opened it, is in force, so a test or a
conformance tier can pin the size for its own query without another
thread seeing it or restoring over it.  Nothing here chooses a strategy:
the optimizer's cost gate decides which plan runs.

The module lives under ``util`` so any layer can consult it without
importing the engine.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

#: Rows per :class:`~repro.engine.batch.ColumnBatch` pulled from a scan or
#: chunked from an n-ary join's row output (joins may emit larger batches).
_DEFAULT_BATCH_SIZE = 1024

_tls = threading.local()


def batch_size() -> int:
    """The innermost :func:`batch_sized` override on this thread, else the default."""
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else _DEFAULT_BATCH_SIZE


def batch_sized(size: int):
    """Pin the batch size on this thread (tests and the conformance tier)."""
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    return _pinned(int(size))


@contextmanager
def _pinned(size: int):
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    stack.append(size)
    try:
        yield
    finally:
        stack.pop()
