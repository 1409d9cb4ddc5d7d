"""Every deterministic property suite must pass at the default seed."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from skewpoisson import selftest
from skewpoisson.selftest import run_selftest, suite_names


@pytest.mark.parametrize("name", suite_names())
def test_suite_passes(full_selftest, name):
    """Reads the suite's result from the shared full run at the default seed;
    each suite draws from its own ``f"{seed}:{name}"`` stream, so this is
    the result a run of that suite alone gives."""
    results, _ = full_selftest
    (result,) = [r for r in results if r.name == name]
    assert result.failures == 0, f"{name}: {result.detail}"
    assert result.cases > 0


def test_case_counts_are_pinned(full_selftest):
    """The default-seed run draws the same cases as the recorded run: each
    suite's name, case count and failure count, in suite order."""
    results, _ = full_selftest
    pinned = json.loads((Path(__file__).parent / "data" / "selftest_cases.json").read_text())
    assert [[r.name, r.cases, r.failures] for r in results] == pinned


def test_seed_changes_cases_but_not_verdicts():
    (a,) = run_selftest(seed=1, only=["parser-roundtrip"])
    (b,) = run_selftest(seed=2, only=["parser-roundtrip"])
    assert a.passed and b.passed


def test_corruption_hook_is_caught():
    results = run_selftest(corrupt="mul-table", only=["group-structure"])
    assert results[0].failures > 0
    assert "associativity" in results[0].detail or "inverse" in results[0].detail


def test_a_crashing_suite_is_one_failure_with_no_cases(monkeypatch):
    def crashes(rng, env, check):
        check.record(True, lambda: "")
        check.record(False, lambda: "recorded before the crash")
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(selftest, "_SUITES", (("crashes", crashes),))
    (result,) = run_selftest()
    assert (result.name, result.cases, result.failures) == ("crashes", 0, 1)
    assert result.detail == "crashed: boom"


def test_unknown_suite_rejected():
    # an empty result would read as a pass to all(r.passed for r in results)
    with pytest.raises(ValueError, match=r"unknown suites: \['no-such-suite'\]"):
        run_selftest(only=["parser-roundtrip", "no-such-suite"])


def test_unknown_corruption_rejected():
    with pytest.raises(ValueError, match="unknown corruption"):
        run_selftest(corrupt="nope")
