"""The dependency-free draft-07 subset checker behind trace validation.

``docs/trace.schema.json`` is checked by :mod:`repro.tools.benchschema`
(``traceexport --validate``, ``tests/test_trace_schema.py``); these tests
pin two of the checker's own rules.
"""

import pytest

from repro.tools.benchschema import validate
from repro.util.errors import ReproError


def test_bool_is_not_an_integer():
    # JSON Schema draft-07: booleans never satisfy "integer"/"number".
    assert validate(True, {"type": "integer"})
    assert validate(True, {"type": "number"})
    assert not validate(True, {"type": "boolean"})


def test_unknown_schema_keyword_is_loud():
    with pytest.raises(ReproError, match="unsupported keyword"):
        validate({}, {"type": "object", "minProperties": 1})
