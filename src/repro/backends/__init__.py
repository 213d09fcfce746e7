"""SQLite as the native oracle and the ladder's yardstick.

The conformance layer proved that transpiled SQL on a real engine agrees
with the local evaluator; this package keeps that engine warm.  The one
backend, :class:`~repro.backends.sqlite_backend.SQLiteBackend`, holds a
copy of the data and lets SQLite's own planner answer expression trees:

* **generation-keyed sync** — ``sync`` pushes storage data only when the
  storage :attr:`generation <repro.engine.storage.Storage.generation>`
  changed, so repeated queries over unchanged data pay zero transfer cost;
* **tree-keyed statements** — transpiled SQL is cached per expression
  tree, so repeats reuse sqlite3's prepared statement;
* **pooled connections** — the conformance ``sqlite`` tier borrows warm
  backends through :class:`~repro.conformance.sqlite_oracle.SQLiteOracle`.

Served queries never run here: ``QueryService`` runs every query in
process through :func:`repro.optimizer.optimize_and_run`, whose gates
pick the strategy.  The ladder times this backend on the same data as
the native yardstick.
"""

from repro.backends.base import BackendUnavailableError, available_backends, create_backend

__all__ = ["BackendUnavailableError", "available_backends", "create_backend"]
