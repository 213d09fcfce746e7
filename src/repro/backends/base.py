"""The :class:`ExecutionBackend` interface and registry.

A backend owns a *copy* of the data (pushed by :meth:`ExecutionBackend.sync`,
keyed on the storage generation so unchanged data is never re-shipped) and
evaluates expression trees against it.  ``execute`` takes an optional
*hint*: a physical tree whose join order the backend must reproduce
exactly — rendered by :mod:`repro.backends.hints` as explicitly nested
JOIN SQL.

Backends are constructed through a name registry so that the service,
the conformance tiers, and the benchmark harness all route through one
factory; an unknown name fails with :class:`BackendUnavailableError`,
which the conformance cross-checker records as a skip rather than a
failure.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Tuple

from repro.algebra.relation import Relation
from repro.core.expressions import Expression
from repro.engine.storage import Storage
from repro.util.errors import PlanningError

#: Environment variable selecting the service's default backend route.
BACKEND_ENV = "REPRO_BACKEND"


class BackendUnavailableError(PlanningError):
    """The backend cannot be constructed here (unknown name).

    Derives from :class:`~repro.util.errors.PlanningError` so the
    conformance cross-checker records the tier as *skipped*, mirroring
    how unplannable operators are handled.
    """


class ExecutionBackend(ABC):
    """Abstract base: hold data, answer expression trees."""

    @abstractmethod
    def sync(self, storage: Storage) -> bool:
        """Mirror ``storage`` into the backend; True iff data was pushed.

        Implementations key on :attr:`Storage.generation
        <repro.engine.storage.Storage.generation>`: a matching token
        means the backend's copy is current and nothing is transferred.
        """

    @abstractmethod
    def execute(self, expr: Expression, hint: Optional[Expression] = None) -> Relation:
        """Evaluate ``expr`` against the synced data.

        ``hint`` is a physical tree (same semantics as ``expr``) whose
        join order the backend must follow; None lets the backend's own
        optimizer choose.
        """

    @abstractmethod
    def close(self) -> None:
        """Release connections; the backend must not be used afterwards."""

    @abstractmethod
    def snapshot(self) -> Dict[str, object]:
        """Introspection counters for service books."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., ExecutionBackend]] = {}
_REGISTRY_LOCK = threading.Lock()


def register_backend(name: str, factory: Callable[..., ExecutionBackend]) -> None:
    """Register a backend factory under ``name`` (last registration wins)."""
    with _REGISTRY_LOCK:
        _REGISTRY[name] = factory


def available_backends() -> Tuple[str, ...]:
    """All registered backend names, in sorted order."""
    _ensure_builtin()
    with _REGISTRY_LOCK:
        return tuple(sorted(_REGISTRY))


def create_backend(name: str, **kwargs) -> ExecutionBackend:
    """Instantiate a registered backend.

    Raises :class:`BackendUnavailableError` for unknown names, which
    callers treat as a skip.
    """
    _ensure_builtin()
    with _REGISTRY_LOCK:
        factory = _REGISTRY.get(name)
    if factory is None:
        raise BackendUnavailableError(
            f"unknown backend {name!r}; registered: {', '.join(available_backends())}"
        )
    return factory(**kwargs)


def default_backend_name() -> str:
    """The service's default route: ``$REPRO_BACKEND``, or ``local``."""
    return os.environ.get(BACKEND_ENV, "").strip() or "local"


_BUILTIN_DONE = False


def _ensure_builtin() -> None:
    """Import the built-in implementations exactly once (they self-register).

    Deferred so that ``repro.backends.base`` never drags the sqlite3
    import into module load of unrelated code paths.
    """
    global _BUILTIN_DONE
    if _BUILTIN_DONE:
        return
    with _REGISTRY_LOCK:
        if _BUILTIN_DONE:
            return
        _BUILTIN_DONE = True
    import repro.backends.sqlite_backend  # noqa: F401  (self-registers)
