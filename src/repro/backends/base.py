"""Backend names and the factory.

One backend exists, the stdlib SQLite engine
(:class:`~repro.backends.sqlite_backend.SQLiteBackend`).  It holds a
*copy* of the data (pushed by ``sync``, keyed on the storage generation
so unchanged data is never re-shipped) and answers expression trees with
SQLite's own planner.  It is an oracle and a yardstick, not a route:
served queries always run in process through
:func:`repro.optimizer.optimize_and_run`.

:func:`create_backend` is the one constructor; an unknown name fails
with :class:`BackendUnavailableError`, which the conformance
cross-checker records as a skip rather than a failure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.util.errors import PlanningError

if TYPE_CHECKING:
    from repro.backends.sqlite_backend import SQLiteBackend


class BackendUnavailableError(PlanningError):
    """The backend cannot be constructed here (unknown name).

    Derives from :class:`~repro.util.errors.PlanningError` so the
    conformance cross-checker records the tier as *skipped*, mirroring
    how unplannable operators are handled.
    """


def available_backends() -> Tuple[str, ...]:
    """Every backend name :func:`create_backend` accepts."""
    return ("sqlite",)


def create_backend(name: str) -> "SQLiteBackend":
    """Instantiate the backend called ``name``.

    The import is deferred so that ``repro.backends.base`` never drags
    the sqlite3 import into module load of unrelated code paths.
    """
    if name not in available_backends():
        raise BackendUnavailableError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    from repro.backends.sqlite_backend import SQLiteBackend

    return SQLiteBackend()
