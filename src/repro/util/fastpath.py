"""The execution switches: one mechanism, instantiated once per choice.

Some strategies exist beside a reference path (the binary DP plan) that
they must be bag-equal to, and some paths carry a tuning knob.  A
:class:`Switch` holds one such choice: a process default, read once from
the environment at import when the switch names a variable, plus
scoped overrides that are private to the thread that opened them, so a
test or a service worker can pin a mode for its own query without
another thread seeing it or restoring over it.  README's switch table
lists the variables; the instances below say what each one selects.

The module lives under ``util`` so the algebra can consult it without
importing the engine.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class Switch:
    """A process-wide default plus per-thread scoped overrides.

    ``env`` names the variable whose boolean spelling replaces
    ``default``; without ``env`` the switch just carries ``default``.
    """

    def __init__(self, default, env: str | None = None):
        flag = _FLAGS.get(os.environ.get(env, "").strip().lower()) if env else None
        self.default = default if flag is None else flag
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


#: GYO + Yannakakis semijoin reduction, taken only when the cost gate and
#: the Theorem 1 safety certificate allow; off is byte-identical DP.
_YANNAKAKIS = Switch(True, "REPRO_YANNAKAKIS")
#: Leapfrog Triejoin on cyclic pure-join cores behind the AGM gate; off is
#: byte-identical DP.
_WCOJ = Switch(True, "REPRO_WCOJ")
#: Rows per :class:`~repro.engine.batch.ColumnBatch` pulled from a scan or
#: produced by the row->batch shim (operators may emit larger batches).
_BATCH_SIZE = Switch(1024)
#: Distinct-row product below which an algebra hash kernel declines and
#: the nested loop runs (:mod:`repro.algebra.kernels`); the ``kernels``
#: conformance tier and the kernel tests pin it to 0.
_SMALL_INPUT = Switch(32)

yannakakis_enabled, yannakakis_mode = _YANNAKAKIS.value, _YANNAKAKIS.scoped
wcoj_enabled, wcoj_mode = _WCOJ.value, _WCOJ.scoped
batch_size = _BATCH_SIZE.value
small_input_cutoff, small_input_limit = _SMALL_INPUT.value, _SMALL_INPUT.scoped


def batch_sized(size: int):
    """Pin the batch size on this thread (tests and the conformance tier)."""
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    return _BATCH_SIZE.scoped(size)
