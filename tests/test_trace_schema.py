"""Trace exporters and the trace-document schema contract.

The canonical flat trace form (``docs/trace.schema.json``) is validated
by the dependency-free draft-07 subset in :mod:`repro.tools.benchschema`;
these tests pin the exporters to that schema from both sides —
every exported trace validates, and representative tampering is caught.
"""

from __future__ import annotations

import json

import pytest

from repro.algebra import eq
from repro.core import jn, oj
from repro.datagen import example1_storage
from repro.engine.executor import execute
from repro.observability import (
    load_trace,
    records_to_spans,
    spans_to_records,
    to_chrome_trace,
    trace_document,
    tracing,
    write_trace,
)
from repro.tools import traceexport
from repro.tools.benchschema import SchemaValidationError, validate_trace


@pytest.fixture
def traced_roots():
    storage = example1_storage(30)
    query = oj(jn("R1", "R2", eq("R1.k", "R2.k")), "R3", eq("R2.j", "R3.j"))
    with tracing(enabled=True):
        result = execute(query, storage)
    return [result.trace]


class TestCanonicalForm:
    def test_exported_trace_validates(self, traced_roots, tmp_path):
        path = write_trace(tmp_path / "t.json", traced_roots, meta={"case": "example1"})
        doc = load_trace(path)
        validate_trace(doc)  # must not raise
        assert doc["meta"]["format"] == "repro-trace"
        assert doc["meta"]["case"] == "example1"
        assert len(doc["spans"]) >= 4  # query root + >= 3 operators

    def test_records_roundtrip(self, traced_roots):
        records = spans_to_records(traced_roots)
        rebuilt = records_to_spans(records)
        assert len(rebuilt) == 1
        original = [
            (s.name, s.category, dict(s.counters)) for _p, s in traced_roots[0].walk()
        ]
        recovered = [
            (s.name, s.category, dict(s.counters)) for _p, s in rebuilt[0].walk()
        ]
        assert original == recovered

    @pytest.mark.parametrize(
        "tamper, fragment",
        [
            (lambda d: d["spans"][0].pop("name"), "missing required key 'name'"),
            (lambda d: d["spans"][0].update(surprise=1), "unexpected key"),
            (lambda d: d["spans"][0].update(start_ns="late"), "expected integer"),
            (lambda d: d["meta"].update(format="not-a-trace"), "not in"),
            (lambda d: d.update(extra=[]), "unexpected key"),
            (
                lambda d: d["spans"][0]["counters"].update(rows_out=1.5),
                "expected integer",
            ),
        ],
    )
    def test_tampered_documents_rejected(self, traced_roots, tamper, fragment):
        doc = trace_document(traced_roots)
        doc = json.loads(json.dumps(doc))  # plain JSON types, fresh copy
        tamper(doc)
        with pytest.raises(SchemaValidationError) as err:
            validate_trace(doc)
        assert any(fragment in e for e in err.value.errors), err.value.errors


class TestChromeForm:
    def test_chrome_events_shape(self, traced_roots):
        doc = to_chrome_trace(traced_roots)
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete, "no complete events exported"
        for event in complete:
            assert event["dur"] >= 0
            assert event["ts"] >= 0
            assert "name" in event and "cat" in event
        # Counters travel in args so Perfetto shows them per-slice.
        roots_rows = [
            e for e in complete if e["args"].get("rows_out") is not None
        ]
        assert roots_rows


class TestTraceexportCli:
    def test_writes_and_validates(self, tmp_path, capsys):
        out = tmp_path / "example1.trace.json"
        assert traceexport.main(["--output", str(out), "--n", "40", "--validate"]) == 0
        doc = load_trace(out)
        validate_trace(doc)
        assert doc["meta"]["example"] == "example1"
        assert doc["meta"]["rows"] == 1
        assert "validated" in capsys.readouterr().out

    def test_chrome_form(self, tmp_path):
        out = tmp_path / "example1.chrome.json"
        assert traceexport.main(
            ["--output", str(out), "--n", "40", "--form", "chrome", "--validate"]
        ) == 0
        doc = json.loads(out.read_text())
        assert "traceEvents" in doc
