"""Declarative, parallel, resumable scenario sweeps (the campaign engine).

The paper's evaluation is a grid of (workload x scheduler x machine x
seed) simulations.  This package makes that grid a first-class object:

- :mod:`repro.campaign.spec` — frozen, JSON-serializable specs and their
  cross-product expansion;
- :mod:`repro.campaign.executor` — one cell, one simulation: the
  :class:`RunResult` record every consumer reads;
- :mod:`repro.campaign.store` — an append-only JSON-lines result store
  keyed by spec hash, tolerant of crashes, powering ``--resume``;
- :mod:`repro.campaign.rollup` — speedup/miss-rate/utilization rollups
  and CSV/JSONL exports.

Every per-figure harness (`figure6`, `figure7`, `sensitivity`,
`ablation`) is a thin spec over this engine, and ``python -m repro
campaign`` exposes arbitrary grids from the shell.  The front door is
:mod:`repro.api`: its ``Scenario`` builder normalizes to these specs
and ``Engine(...).run_campaign(spec)`` runs them, with the store and
resume handling.
"""

from repro.campaign.executor import CampaignOutcome, RunResult, execute_run
from repro.campaign.rollup import (
    RollupRow,
    render_rollup,
    results_to_csv,
    rollup_results,
    write_results_csv,
    write_results_jsonl,
)
from repro.campaign.spec import (
    DEFAULT_SCHEDULERS,
    CampaignSpec,
    MachineVariant,
    RunSpec,
    SchedulerSpec,
    build_campaign_workload,
    parse_workload_ref,
    resolve_machine_preset,
    workload_seed_sensitive,
)
from repro.campaign.store import ResultStore

__all__ = [
    "CampaignOutcome",
    "CampaignSpec",
    "DEFAULT_SCHEDULERS",
    "MachineVariant",
    "ResultStore",
    "RollupRow",
    "RunResult",
    "RunSpec",
    "SchedulerSpec",
    "build_campaign_workload",
    "execute_run",
    "parse_workload_ref",
    "render_rollup",
    "resolve_machine_preset",
    "results_to_csv",
    "rollup_results",
    "workload_seed_sensitive",
    "write_results_csv",
    "write_results_jsonl",
]
