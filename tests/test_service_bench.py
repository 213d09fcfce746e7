"""Smoke tests for the servicebench artifact and the plancache CLI mode."""

from __future__ import annotations

import io
import json

import pytest

from repro.conformance import check_plan_cache
from repro.tools import servicebench
from repro.tools.conformance import main as conformance_main


@pytest.fixture(scope="module")
def smoke_report():
    # Tiny sizes: this is a wiring test, not a measurement.
    return servicebench.run(
        None, smoke=True, stress=True, seed=11, out=io.StringIO()
    )


def test_report_has_all_sections(smoke_report):
    assert smoke_report["meta"]["artifact"] == "BENCH_PR4"
    assert smoke_report["meta"]["smoke"] is True
    assert {"cold_ms_per_query", "warm_ms_per_query", "speedup"} <= set(
        smoke_report["plan_cache"]
    )
    rows = smoke_report["concurrency"]
    assert {(r["workers"], r["mode"]) for r in rows} == {
        (w, m) for w in servicebench.WORKER_COUNTS for m in ("cold", "cached")
    }
    assert smoke_report["conformance"]["ok"]
    assert smoke_report["stress"]["all_resolved"]


def test_report_is_json_serializable(smoke_report):
    parsed = json.loads(json.dumps(smoke_report))
    assert parsed["conformance"]["cases"] == smoke_report["conformance"]["cases"]


def test_verify_flags_gaps_and_passes_good_reports(smoke_report):
    # The structural checks must pass; the speedup gate is timing-dependent
    # so it is exercised with a threshold of 0 here (CI runs the real one).
    assert servicebench.verify(smoke_report, min_speedup=0.0) == []
    broken = {
        "plan_cache": {"speedup": 1.0},
        "concurrency": [],
        "conformance": {"ok": False, "mismatches": ["x"]},
    }
    problems = servicebench.verify(broken, min_speedup=3.0)
    assert any("speedup" in p for p in problems)
    assert any("missing concurrency" in p for p in problems)
    assert any("conformance" in p for p in problems)


def test_check_plan_cache_direct():
    report = check_plan_cache(cases=15, seed=21)
    assert report.ok and report.cases == 15
    assert report.hits == report.cases
    assert "15 cases" in report.summary()


def test_check_plan_cache_replays_the_chosen_strategy(monkeypatch):
    """A replayed lookup whose strategy is "wcoj" runs the Leapfrog plan
    the service would serve, not the DP tree."""
    import repro.engine.wcoj as wcoj

    calls = []
    build = wcoj.build_wcoj_plan

    def counting_build(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(wcoj, "build_wcoj_plan", counting_build)
    report = check_plan_cache(cases=200, seed=0)
    assert report.ok
    assert calls


def test_conformance_cli_plancache_subcommand():
    out = io.StringIO()
    status = conformance_main(["plancache", "--cases", "10", "--seed", "4"], out=out)
    assert status == 0
    assert "plan-cache conformance: 10 cases" in out.getvalue()
