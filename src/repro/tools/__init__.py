"""Command-line tools built on the library: ``analyze``, ``conformance``,
``traceexport`` and ``tracecmp``, plus the trace-schema checker
``benchschema`` and the process-wide ``instrumentation`` counters."""
