"""Pluggable execution backends (ROADMAP item 4, PostBOUND-style).

The conformance layer proved that transpiled SQL on a real engine agrees
with the local evaluator; this package promotes that machinery from test
harness to *execution backend*.  A backend is anything that can hold a
copy of the data and answer expression trees; the one built in is the
stdlib SQLite engine (:class:`~repro.backends.sqlite_backend.SQLiteBackend`).
The service's ``local`` route is the in-process engine and does not go
through this package.

Two properties make the package an optimizer laboratory rather than a
mere federation shim:

* **generation-keyed sync** — :meth:`ExecutionBackend.sync` pushes
  storage data only when the storage :attr:`generation
  <repro.engine.storage.Storage.generation>` changed, so repeated
  queries over unchanged data pay zero transfer cost;
* **join-order hinting** — :func:`repro.backends.hints.hinted_sql`
  renders a physical tree as explicitly nested/parenthesized JOIN SQL
  that the backend's own optimizer must respect, so our DP/Yannakakis
  dispatch decisions can be A/B-measured against the backend's native
  planner on identical data.
"""

from repro.backends.base import (
    BACKEND_ENV,
    BackendUnavailableError,
    ExecutionBackend,
    available_backends,
    create_backend,
    default_backend_name,
    register_backend,
)
from repro.backends.hints import HintError, hinted_sql, join_shape, parse_join_shape

__all__ = [
    "BACKEND_ENV",
    "BackendUnavailableError",
    "ExecutionBackend",
    "HintError",
    "available_backends",
    "create_backend",
    "default_backend_name",
    "hinted_sql",
    "join_shape",
    "parse_join_shape",
    "register_backend",
]
