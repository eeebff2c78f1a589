"""The ``campaign`` CLI subcommand and the self-regenerating usage docs."""

from __future__ import annotations

import json

import pytest

import repro.cli as cli
from repro.cli import main, render_cli_usage


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """Run CLI invocations from a scratch directory (default store lands there)."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


SMALL_ARGS = [
    "campaign",
    "--workloads", "MxM",
    "--machines", "cores-4",
    "--schedulers", "RS,LS",
    "--seeds", "0",
    "--scale", "0.25",
]


class TestCampaignCommand:
    def test_inline_grid_runs_and_reports(self, in_tmp, capsys):
        assert main(SMALL_ARGS) == 0
        out = capsys.readouterr().out
        assert "2 cells" in out
        assert "Campaign rollup" in out
        assert "store:" in out
        stores = list((in_tmp / ".repro-campaign").glob("*.jsonl"))
        assert len(stores) == 1
        assert len(stores[0].read_text().splitlines()) == 2

    def test_resume_skips_cells(self, in_tmp, capsys):
        assert main(SMALL_ARGS) == 0
        capsys.readouterr()
        assert main(SMALL_ARGS + ["--resume", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "skipped 2 completed cells" in out

    def test_csv_and_jsonl_exports(self, in_tmp, capsys):
        csv_path = in_tmp / "runs.csv"
        jsonl_path = in_tmp / "runs.jsonl"
        assert main(
            SMALL_ARGS
            + ["--quiet", "--csv", str(csv_path), "--jsonl", str(jsonl_path)]
        ) == 0
        assert csv_path.read_text().startswith("workload,machine,scheduler")
        assert len(jsonl_path.read_text().splitlines()) == 2

    def test_spec_file(self, in_tmp, capsys):
        spec_path = in_tmp / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "from-file",
                    "scale": 0.25,
                    "workloads": ["MxM", "random-mix:2"],
                    "machines": [
                        "paper",
                        {"name": "tiny", "overrides": {"num_cores": 2}},
                    ],
                    "schedulers": ["RS", {"name": "LSM", "label": "T0",
                                          "params": {"conflict_threshold": 0}}],
                    "seeds": [0, 1],
                }
            )
        )
        assert main(["campaign", "--spec", str(spec_path), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "16 cells" in out
        assert "T0" in out

    def test_explicit_store_path(self, in_tmp, capsys):
        store = in_tmp / "mystore.jsonl"
        assert main(SMALL_ARGS + ["--quiet", "--store", str(store)]) == 0
        assert store.exists()

    def test_unknown_scheduler_fails_cleanly(self, in_tmp, capsys):
        assert main(["campaign", "--workloads", "MxM", "--schedulers", "WARP"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "WARP" in err

    def test_non_integer_seeds_fail_cleanly(self, in_tmp, capsys):
        assert main(["campaign", "--workloads", "MxM", "--seeds", "1,x"]) == 2
        err = capsys.readouterr().err
        assert "comma list of integers" in err

    def test_spec_file_with_typo_key_fails_cleanly(self, in_tmp, capsys):
        spec_path = in_tmp / "typo.json"
        spec_path.write_text(
            json.dumps({"workloads": ["MxM"], "schedulres": ["RS"]})
        )
        assert main(["campaign", "--spec", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert "schedulres" in err

    def test_export_to_missing_directory_creates_it(self, in_tmp, capsys):
        csv_path = in_tmp / "deep" / "dir" / "runs.csv"
        assert main(SMALL_ARGS + ["--quiet", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()

    def test_figures_accept_jobs_flag(self, capsys):
        assert main(["figure7", "--scale", "0.25", "--max-tasks", "1",
                     "--jobs", "2"]) == 0
        assert "Figure 7" in capsys.readouterr().out


class TestGracefulInterrupt:
    """SIGINT/SIGTERM mid-campaign: exit 130, store flushed, resume hint."""

    @pytest.mark.parametrize("signum", ["SIGINT", "SIGTERM"])
    def test_signal_mid_campaign_exits_130_with_hint(
        self, in_tmp, capsys, monkeypatch, signum
    ):
        import os
        import signal as signal_module
        import time

        from repro.api.engine import Engine

        def run_then_hang(*args, **kwargs):
            # Deliver the signal to ourselves mid-"campaign"; the CLI's
            # handler turns it into KeyboardInterrupt either way.
            os.kill(os.getpid(), getattr(signal_module, signum))
            time.sleep(30)  # interrupted immediately by the handler
            raise AssertionError("signal was not delivered")

        monkeypatch.setattr(Engine, "run_campaign", run_then_hang)
        assert main(SMALL_ARGS) == 130
        out = capsys.readouterr().out
        assert "interrupted: completed cells are flushed" in out
        assert "resume with: python -m repro campaign" in out
        assert "--resume" in out
        assert "spec hash" in out

    def test_interrupted_run_resumes_cleanly(self, in_tmp, capsys, monkeypatch):
        """An interrupt after some cells completed leaves a store the
        documented --resume invocation finishes from."""
        import os
        import signal as signal_module

        from repro.api.engine import Engine

        real_run_campaign = Engine.run_campaign
        calls = {"n": 0}

        def interrupt_on_progress(engine, spec):
            inner_progress = engine.progress

            def progress(result, done, total):
                if inner_progress is not None:
                    inner_progress(result, done, total)
                calls["n"] += 1
                os.kill(os.getpid(), signal_module.SIGTERM)

            engine.progress = progress
            return real_run_campaign(engine, spec)

        monkeypatch.setattr(Engine, "run_campaign", interrupt_on_progress)
        assert main(SMALL_ARGS) == 130
        assert calls["n"] >= 1
        capsys.readouterr()
        monkeypatch.setattr(Engine, "run_campaign", real_run_campaign)
        assert main(SMALL_ARGS + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "Campaign rollup" in out
        stores = list((in_tmp / ".repro-campaign").glob("*.jsonl"))
        assert len(stores) == 1


class TestGeneratedUsageBlock:
    """The docstring usage block is generated from the parser (no drift)."""

    def test_docstring_contains_generated_block(self):
        assert render_cli_usage() in cli.__doc__

    def test_every_subcommand_documented(self):
        parser = cli._build_parser()
        import argparse

        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for name, subparser in subparsers.choices.items():
            assert f"python -m repro {name}" in cli.__doc__
            for action in subparser._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                if not action.option_strings:
                    # positionals render as {choice,choice} or DEST
                    token = (
                        "{" + ",".join(map(str, action.choices)) + "}"
                        if action.choices
                        else action.dest.upper()
                    )
                    assert token in cli.__doc__
                    continue
                assert action.option_strings[-1] in cli.__doc__

    def test_campaign_flags_documented(self):
        for flag in ("--jobs", "--resume", "--seed", "--spec", "--store"):
            assert flag in cli.__doc__
