"""The public surface contract: ``repro.api.__all__``, version, CLI list.

The snapshot below is deliberate friction: any addition to (or removal
from) the facade must edit this file in the same change, so the public
surface can never drift silently.
"""

from __future__ import annotations

import pytest

import repro
import repro.api
from repro.cli import main

#: THE public surface.  Update deliberately, with docs/API.md.
EXPECTED_API_SURFACE = sorted(
    [
        "ARRIVALS",
        "ArrivalFactory",
        "ArrivalSpec",
        "CONTENTION",
        "CampaignOutcome",
        "CampaignSpec",
        "CellFailure",
        "ContentionFactory",
        "Engine",
        "EXECUTION_POLICIES",
        "MACHINES",
        "MachineVariant",
        "Registry",
        "RegistryEntry",
        "RunResult",
        "RunSpec",
        "SCHEDULERS",
        "Scenario",
        "SchedulerSpec",
        "WORKLOADS",
        "WorkloadFactory",
        "group_comparisons",
        "list_arrivals",
        "list_contentions",
        "list_machines",
        "list_schedulers",
        "list_workloads",
        "register_arrival",
        "register_contention",
        "register_machine",
        "register_scheduler",
        "register_workload",
    ]
)


class TestApiSurface:
    def test_all_matches_snapshot(self):
        assert sorted(repro.api.__all__) == EXPECTED_API_SURFACE

    def test_every_name_resolves(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None, name

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'bogus'"):
            repro.api.bogus

    def test_dir_covers_all(self):
        assert set(repro.api.__all__) <= set(dir(repro.api))

    def test_export_map_covers_exactly_all(self):
        assert sorted(repro.api._EXPORTS) == sorted(repro.api.__all__)

    def test_campaign_exports_resolve(self):
        # not the facade, but its __all__ must not outlive a deletion
        import repro.campaign

        for name in repro.campaign.__all__:
            assert hasattr(repro.campaign, name), name


class TestVersion:
    def test_version_is_pep440ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) >= 2
        assert all(part.isdigit() for part in parts[:2])

    def test_cli_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out


class TestListCommand:
    @pytest.mark.parametrize("what", ["schedulers", "workloads", "machines"])
    def test_lists_render(self, what, capsys):
        assert main(["list", what]) == 0
        out = capsys.readouterr().out
        assert f"registered {what}" in out

    def test_schedulers_include_builtins(self, capsys):
        main(["list", "schedulers"])
        out = capsys.readouterr().out
        for name in ("RS", "RRS", "LS", "LSM", "LS-static", "FCFS"):
            assert name in out

    def test_workloads_show_ref_syntax(self, capsys):
        main(["list", "workloads"])
        out = capsys.readouterr().out
        assert "mix:N" in out and "random-mix:N" in out and "MxM" in out

    def test_machines_include_presets(self, capsys):
        main(["list", "machines"])
        out = capsys.readouterr().out
        assert "paper" in out and "cache-16k" in out

    def test_plugins_are_visible(self, capsys):
        from repro.api import SCHEDULERS, register_scheduler

        register_scheduler(
            "test-visible", lambda seed, **p: None, description="plugin row"
        )
        try:
            main(["list", "schedulers"])
            out = capsys.readouterr().out
            assert "test-visible" in out
            assert "[plugin]" in out
        finally:
            SCHEDULERS.unregister("test-visible")
