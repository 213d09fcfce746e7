"""Plan-cache conformance: the checker, its strategy replay, its CLI mode.

:func:`repro.conformance.check_plan_cache` replays every cached plan and
compares it bag-for-bag with the oracle; CI runs it as
``conformance plancache --cases 200``.
"""

from __future__ import annotations

import io

from repro.conformance import check_plan_cache
from repro.tools.conformance import main as conformance_main


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
