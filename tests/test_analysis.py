"""Tests for the ``repro.analysis`` static-analysis subsystem.

Covers: every builtin rule against a known-bad and known-good fixture,
the rule registry's enumerating errors, inline suppressions, baselines,
the JSON report schema, the CLI exit codes, and — the invariant the
whole subsystem exists to defend — that the repository's own ``src``
tree is clean.
"""

from __future__ import annotations

import argparse
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro.analysis.rules  # noqa: F401  (registers the builtin rules)
from repro import errors
from repro.analysis import RULES, collect_files, run_check
from repro.analysis.cli import (
    JSON_SCHEMA_VERSION,
    add_check_arguments,
    render_json,
    run_check_command,
    write_baseline,
)
from repro.errors import AnalysisError, UnknownEntryError
from repro.util.invalidation import registered_worker_state

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analysis"
STANDALONE = FIXTURES / "standalone"
FAKE_REPRO = FIXTURES / "repro"

#: rule name -> (bad fixture, good fixture)
RULE_FIXTURES = {
    "unseeded-rng": (
        STANDALONE / "bad_unseeded_rng.py",
        STANDALONE / "good_unseeded_rng.py",
    ),
    "wall-clock": (
        FAKE_REPRO / "sim" / "bad_wall_clock.py",
        FAKE_REPRO / "sim" / "good_wall_clock.py",
    ),
    "unordered-iteration": (
        STANDALONE / "bad_unordered_iteration.py",
        STANDALONE / "good_unordered_iteration.py",
    ),
    "exception-reduce": (
        STANDALONE / "bad_exception_reduce.py",
        STANDALONE / "good_exception_reduce.py",
    ),
    "frozen-spec-default": (
        STANDALONE / "bad_frozen_spec_default.py",
        STANDALONE / "good_frozen_spec_default.py",
    ),
    "api-all-drift": (
        STANDALONE / "bad_api_all_drift.py",
        STANDALONE / "good_api_all_drift.py",
    ),
    "untyped-def": (
        FAKE_REPRO / "util" / "bad_untyped.py",
        FAKE_REPRO / "util" / "good_untyped.py",
    ),
    "worker-state-registry": (
        FAKE_REPRO / "bad_worker_state.py",
        FAKE_REPRO / "good_worker_state.py",
    ),
    "nested-registration": (
        FAKE_REPRO / "bad_nested_registration.py",
        FAKE_REPRO / "good_nested_registration.py",
    ),
    "blocking-call-in-async": (
        FAKE_REPRO / "serve" / "bad_blocking_async.py",
        FAKE_REPRO / "serve" / "good_blocking_async.py",
    ),
}


def parse_check_args(*argv: str) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    add_check_arguments(parser)
    return parser.parse_args(list(argv))


# -- the rule catalog -------------------------------------------------------------


def test_at_least_eight_rules_registered():
    assert len(RULES) >= 8
    assert set(RULE_FIXTURES) == set(RULES.names())


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_bad_fixture_fires(rule):
    bad, _ = RULE_FIXTURES[rule]
    findings = run_check([bad], rules=[rule])
    assert findings, f"rule {rule!r} found nothing in {bad}"
    assert all(f.rule == rule for f in findings)
    assert all(f.path == str(bad) for f in findings)
    assert all(f.line >= 1 for f in findings)


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_good_fixture_is_clean(rule):
    _, good = RULE_FIXTURES[rule]
    assert run_check([good], rules=[rule]) == []


def test_bad_fixtures_fire_exactly_their_own_rule():
    """Each bad fixture trips only the rule it was written for."""
    for rule, (bad, _) in sorted(RULE_FIXTURES.items()):
        findings = run_check([bad])
        assert {f.rule for f in findings} == {rule}


def test_unknown_rule_enumerates_the_catalog():
    with pytest.raises(UnknownEntryError) as excinfo:
        run_check([STANDALONE], rules=["unseede-rng"])
    message = str(excinfo.value)
    assert "unseeded-rng" in message  # did-you-mean suggestion
    assert isinstance(excinfo.value, KeyError) or isinstance(
        excinfo.value, errors.ReproError
    )


def test_missing_path_raises_not_silently_clean():
    with pytest.raises(AnalysisError):
        collect_files([FIXTURES / "no_such_dir"])


def test_syntax_error_surfaces_as_reserved_finding():
    findings = run_check([STANDALONE / "bad_syntax.py.txt"])
    assert [f.rule for f in findings] == ["syntax-error"]


def test_inline_suppression_covers_named_rule_only():
    path = STANDALONE / "suppressed_unordered_iteration.py"
    assert run_check([path], rules=["unordered-iteration"]) == []


# -- the repository's own invariant -----------------------------------------------


def test_src_tree_is_clean():
    """The tentpole acceptance: ``repro check src`` has zero findings."""
    assert run_check([REPO_ROOT / "src"]) == []


def test_worker_state_declarations_cover_known_globals():
    import repro.api.registries  # noqa: F401  (declarations run at import)

    table = registered_worker_state()
    for key in (
        "repro.api.registries:SCHEDULERS",
        "repro.api.registries:WORKLOADS",
        "repro.api.registries:MACHINES",
        "repro.api.registries:ARRIVALS",
        "repro.analysis.registry:RULES",
        "repro.util.invalidation:_epoch",
    ):
        assert key in table, f"missing worker-state declaration {key}"


# -- report formats and baselines -------------------------------------------------


def test_json_report_schema():
    bad, _ = RULE_FIXTURES["unordered-iteration"]
    findings = run_check([bad], rules=["unordered-iteration"])
    payload = json.loads(
        render_json([str(bad)], ["unordered-iteration"], findings)
    )
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["checked_paths"] == [str(bad)]
    assert payload["rules"] == ["unordered-iteration"]
    assert payload["count"] == len(findings) > 0
    for row in payload["findings"]:
        assert set(row) == {"rule", "path", "line", "col", "message"}
        assert row["rule"] == "unordered-iteration"


def test_baseline_round_trip_suppresses_known_findings(tmp_path):
    bad, _ = RULE_FIXTURES["frozen-spec-default"]
    findings = run_check([bad])
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, findings)
    payload = json.loads(baseline.read_text(encoding="utf-8"))
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert all("::" in key for key in payload["suppressed"])

    args = parse_check_args(str(bad), "--baseline", str(baseline))
    assert run_check_command(args) == 0  # everything baselined -> clean

    args = parse_check_args(str(bad))
    assert run_check_command(args) == 1  # without the baseline -> findings


def test_baseline_keys_survive_line_shifts():
    bad, _ = RULE_FIXTURES["frozen-spec-default"]
    (finding,) = run_check([bad], rules=["frozen-spec-default"])[:1]
    assert str(finding.line) not in finding.baseline_key.split("::")[0]
    assert finding.baseline_key == (
        f"frozen-spec-default::{finding.path}::{finding.message}"
    )


def test_cli_exit_codes_end_to_end(tmp_path):
    """``python -m repro check`` gates: 0 clean, 1 findings, 2 usage error."""
    env_src = str(REPO_ROOT / "src")

    def run(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", "check", *argv],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={
                "PYTHONPATH": env_src,
                "PATH": "/usr/bin:/bin",
                "PYTHONDONTWRITEBYTECODE": "1",
            },
        )

    good = RULE_FIXTURES["unordered-iteration"][1]
    bad = RULE_FIXTURES["unordered-iteration"][0]
    assert run(str(good)).returncode == 0
    proc = run(str(bad), "--format", "json")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["count"] > 0
    proc = run(str(bad), "--rule", "no-such-rule")
    assert proc.returncode == 2
    assert "no-such-rule" in proc.stderr


# -- regression pins for the violations the rules surfaced ------------------------


@pytest.mark.parametrize(
    "exc",
    [
        errors.DimensionMismatchError(2, 3, context="array A"),
        errors.UnknownArrayError("A"),
        errors.CyclicDependenceError(["p1", "p2", "p1"]),
        errors.DuplicateProcessError("p1"),
        errors.UnknownProcessError("p9"),
        errors.EventOrderingError(10, 5),
        errors.UnknownWorkloadError("NoSuch", ["MxM", "Radar"]),
        errors.UnknownEntryError("scheduler", "LXM", ["LS", "LSM"]),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_exceptions_survive_pickle_round_trip(exc):
    """The exception-reduce rule's motivating bug: worker -> parent transport."""
    clone = pickle.loads(pickle.dumps(exc))
    assert type(clone) is type(exc)
    assert str(clone) == str(exc)
    assert clone.__dict__ == exc.__dict__
