"""The benchmark report schema: valid reports pass, tampered ones fail."""

import copy
import json
from pathlib import Path

import pytest

from repro.tools.benchschema import (
    SchemaValidationError,
    is_servicebench_report,
    load_schema,
    validate,
    validate_report,
    validate_servicebench_report,
)
from repro.util.errors import ReproError

ROOT = Path(__file__).resolve().parents[1]


def minimal_report():
    return {
        "meta": {
            "generated_by": "benchmarks/run_all.py",
            "seed": 0,
            "smoke": True,
            "mode": "fast",
            "python": "3.11.7",
        },
        "scenarios": [
            {
                "scenario": "bench_example1.py",
                "mode": "fast",
                "ok": True,
                "returncode": 0,
                "wall_clock_s": 1.25,
                "tuples_retrieved": 42,
                "timings": {"test_example1": 0.5},
            }
        ],
        "comparisons": {
            "bench_example1.py": {
                "tests": {"test_example1": {"fast_s": 0.5, "naive_s": 1.0, "speedup": 2.0}},
                "wall_clock": {"fast_s": 1.25, "naive_s": 2.5},
                "tuples_retrieved": {"fast": 42, "naive": 42},
            }
        },
    }


def test_schema_file_is_checked_in_and_loadable():
    schema = load_schema(ROOT)
    assert schema["type"] == "object"
    assert set(schema["required"]) == {"meta", "scenarios", "comparisons"}


def test_minimal_report_validates():
    validate_report(minimal_report(), root=ROOT)


def test_null_speedup_is_allowed():
    report = minimal_report()
    report["comparisons"]["bench_example1.py"]["tests"]["test_example1"]["speedup"] = None
    validate_report(report, root=ROOT)


def test_checked_in_bench_report_validates():
    """Every checked-in artifact validates against its own schema.

    ``meta.artifact == "BENCH_PR4"`` marks a service-benchmark artifact
    (``docs/servicebench.schema.json``); everything else is a
    benchrunner report (``docs/bench_report.schema.json``).
    ``BENCH_PR9.json`` is history only: the tool that wrote it and its
    schema were removed with the process-shard mode it measured.
    """
    candidates = sorted(ROOT.glob("BENCH_*.json"))
    assert candidates, "expected a checked-in BENCH_*.json report"
    kinds = set()
    for path in candidates:
        if path.name == "BENCH_PR9.json":
            continue
        document = json.loads(path.read_text())
        if is_servicebench_report(document):
            validate_servicebench_report(document, root=ROOT)
            kinds.add("service")
        else:
            validate_report(document, root=ROOT)
            kinds.add("benchrunner")
    assert kinds == {"service", "benchrunner"}


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda r: r.pop("comparisons"), "missing required key 'comparisons'"),
        (lambda r: r["meta"].pop("seed"), "missing required key 'seed'"),
        (lambda r: r["meta"].__setitem__("seed", "zero"), "$.meta.seed"),
        (lambda r: r["meta"].__setitem__("mode", "turbo"), "not in"),
        (lambda r: r["meta"].__setitem__("extra", 1), "unexpected key 'extra'"),
        (lambda r: r["scenarios"][0].__setitem__("ok", "yes"), "$.scenarios[0].ok"),
        (lambda r: r["scenarios"][0].__setitem__("wall_clock_s", None), "wall_clock_s"),
        (
            lambda r: r["scenarios"][0]["timings"].__setitem__("test_x", "fast"),
            "$.scenarios[0].timings.test_x",
        ),
        (
            lambda r: r["comparisons"]["bench_example1.py"].pop("wall_clock"),
            "missing required key 'wall_clock'",
        ),
        (
            lambda r: r["comparisons"]["bench_example1.py"]["tuples_retrieved"].__setitem__(
                "fast", 1.5
            ),
            "tuples_retrieved.fast",
        ),
    ],
)
def test_tampered_reports_are_rejected(mutate, fragment):
    report = copy.deepcopy(minimal_report())
    mutate(report)
    with pytest.raises(SchemaValidationError) as excinfo:
        validate_report(report, root=ROOT)
    assert fragment in str(excinfo.value)


def test_bool_is_not_an_integer():
    # JSON Schema draft-07: booleans never satisfy "integer"/"number".
    assert validate(True, {"type": "integer"})
    assert validate(True, {"type": "number"})
    assert not validate(True, {"type": "boolean"})


def test_unknown_schema_keyword_is_loud():
    with pytest.raises(ReproError, match="unsupported keyword"):
        validate({}, {"type": "object", "minProperties": 1})


def test_benchrunner_output_shape_matches_schema():
    # The runner's report literal and the schema must not drift apart:
    # build the same top-level shape main() builds and validate it.
    report = {
        "meta": {
            "generated_by": "benchmarks/run_all.py",
            "seed": 7,
            "smoke": False,
            "mode": "fast",
            "python": "3.11.7",
        },
        "scenarios": [],
        "comparisons": {},
    }
    validate_report(report, root=ROOT)
