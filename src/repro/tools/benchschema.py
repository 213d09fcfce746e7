"""Dependency-free validation of benchmark reports against the JSON Schema.

The benchmark runner (:mod:`repro.tools.benchrunner`) writes ``BENCH_*.json``
reports whose shape is pinned by ``docs/bench_report.schema.json``.  The
container has no ``jsonschema`` package, so this module implements the small
draft-07 subset that schema actually uses:

``type`` (string or list; with Python's bool/int split handled correctly),
``enum``, ``properties``, ``required``, ``additionalProperties`` (boolean or
schema), and ``items`` (single-schema form).

Anything else appearing in a schema is rejected loudly rather than silently
ignored, so the checked-in schema cannot drift ahead of the validator.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from repro.util.errors import ReproError

#: Path of the checked-in benchmark-report schema, relative to the repo root.
SCHEMA_RELPATH = Path("docs") / "bench_report.schema.json"

#: Path of the checked-in trace-document schema (see repro.observability).
TRACE_SCHEMA_RELPATH = Path("docs") / "trace.schema.json"

#: Path of the checked-in service-benchmark schema (BENCH_PR4 artifacts,
#: written by :mod:`repro.tools.servicebench`).
SERVICEBENCH_SCHEMA_RELPATH = Path("docs") / "servicebench.schema.json"

#: Schema keywords the validator understands.  Annotation-only keywords are
#: accepted and skipped; anything unknown is an error.
_ANNOTATIONS = {"$schema", "title", "description"}
_KEYWORDS = {"type", "enum", "properties", "required", "additionalProperties", "items"}


class SchemaValidationError(ReproError):
    """A document does not conform to the benchmark-report schema."""

    def __init__(self, errors: List[str]):
        self.errors = list(errors)
        preview = "; ".join(self.errors[:5])
        more = f" (+{len(self.errors) - 5} more)" if len(self.errors) > 5 else ""
        super().__init__(f"bench report schema violation: {preview}{more}")


def _type_ok(value: Any, name: str) -> bool:
    """draft-07 ``type`` check.  bool is not an integer/number in JSON Schema."""
    if name == "object":
        return isinstance(value, dict)
    if name == "array":
        return isinstance(value, list)
    if name == "string":
        return isinstance(value, str)
    if name == "boolean":
        return isinstance(value, bool)
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if name == "null":
        return value is None
    raise ReproError(f"unsupported schema type {name!r}")


def _check(value: Any, schema: Dict[str, Any], path: str, errors: List[str]) -> None:
    unknown = set(schema) - _KEYWORDS - _ANNOTATIONS
    if unknown:
        raise ReproError(
            f"schema at {path or '$'} uses unsupported keyword(s): {sorted(unknown)}"
        )
    where = path or "$"

    if "type" in schema:
        names = schema["type"]
        if isinstance(names, str):
            names = [names]
        if not any(_type_ok(value, n) for n in names):
            errors.append(f"{where}: expected {' or '.join(names)}, got {type(value).__name__}")
            return

    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{where}: {value!r} not in {schema['enum']!r}")
        return

    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{where}: missing required key {key!r}")
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                _check(item, props[key], f"{where}.{key}", errors)
            elif extra is False:
                errors.append(f"{where}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                _check(item, extra, f"{where}.{key}", errors)

    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{where}[{i}]", errors)


def validate(document: Any, schema: Dict[str, Any]) -> List[str]:
    """All schema violations in ``document`` (empty list means valid)."""
    errors: List[str] = []
    _check(document, schema, "$", errors)
    return errors


def load_schema(root: Path | None = None, relpath: Path | str = SCHEMA_RELPATH) -> Dict[str, Any]:
    """Load a checked-in schema (the benchmark report's by default).

    ``root`` is the repository root; by default it is located relative to
    this file (``src/repro/tools`` → three parents up).  ``relpath``
    selects which schema — e.g. :data:`TRACE_SCHEMA_RELPATH` for trace
    documents.
    """
    if root is None:
        root = Path(__file__).resolve().parents[3]
    return json.loads((root / Path(relpath)).read_text())


def validate_report(document: Any, root: Path | None = None) -> None:
    """Raise :class:`SchemaValidationError` unless ``document`` is a valid
    benchmark report."""
    errors = validate(document, load_schema(root))
    if errors:
        raise SchemaValidationError(errors)


def validate_trace(document: Any, root: Path | None = None) -> None:
    """Raise :class:`SchemaValidationError` unless ``document`` is a valid
    trace document (``docs/trace.schema.json``)."""
    errors = validate(document, load_schema(root, TRACE_SCHEMA_RELPATH))
    if errors:
        raise SchemaValidationError(errors)


def validate_servicebench_report(document: Any, root: Path | None = None) -> None:
    """Raise :class:`SchemaValidationError` unless ``document`` is a valid
    service-benchmark artifact (``docs/servicebench.schema.json``)."""
    errors = validate(document, load_schema(root, SERVICEBENCH_SCHEMA_RELPATH))
    if errors:
        raise SchemaValidationError(errors)


def is_servicebench_report(document: Any) -> bool:
    """Dispatch helper: does this look like a BENCH_PR4 service artifact?"""
    return (
        isinstance(document, dict)
        and isinstance(document.get("meta"), dict)
        and document["meta"].get("artifact") == "BENCH_PR4"
    )

