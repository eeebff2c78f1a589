"""Sensitivity sweeps — "our savings are consistent across several
simulation parameters" (Section 4).

Each sweep varies one machine parameter around the Table-2 default and
re-runs a workload mix under all four schedulers, reporting the RS/LS
speedup per point.  The paper's claim is regenerated if the locality win
persists (speedup > 1) across the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.engine import Engine
from repro.api.scenario import Scenario
from repro.campaign.spec import CampaignSpec, MachineVariant
from repro.errors import ExperimentError
from repro.experiments.runner import SchedulerComparison, group_comparisons
from repro.util.tables import AsciiTable
from repro.util.units import KIB


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep."""

    parameter: str
    value: object
    comparison: SchedulerComparison


#: The default sweeps: (parameter name, config field, values).
DEFAULT_SWEEPS: tuple[tuple[str, str, tuple], ...] = (
    ("cache size", "cache_size_bytes", (4 * KIB, 8 * KIB, 16 * KIB, 32 * KIB)),
    ("associativity", "cache_associativity", (1, 2, 4)),
    ("cores", "num_cores", (4, 8, 16)),
    ("off-chip latency", "memory_latency_cycles", (50, 75, 100, 150)),
    ("RRS quantum", "quantum_cycles", (2_000, 8_000, 32_000)),
)


def campaign_spec_sensitivity(
    num_tasks: int = 3,
    scale: float = 1.0,
    seed: int = 0,
    sweeps: tuple[tuple[str, str, tuple], ...] = DEFAULT_SWEEPS,
) -> CampaignSpec:
    """The sweeps as one campaign: a machine variant per sweep point."""
    if num_tasks < 1:
        raise ExperimentError(f"num_tasks must be >= 1, got {num_tasks}")
    scenario = (
        Scenario()
        .workload(f"mix:{num_tasks}")
        .seed(seed)
        .scale(scale)
        .name("sensitivity")
    )
    for parameter, field, values in sweeps:
        for value in values:
            scenario = scenario.machine(
                MachineVariant.from_overrides(
                    f"{parameter}={value}", **{field: value}
                )
            )
    return scenario.to_campaign()


def run_sensitivity(
    num_tasks: int = 3,
    scale: float = 1.0,
    seed: int = 0,
    sweeps: tuple[tuple[str, str, tuple], ...] = DEFAULT_SWEEPS,
    jobs: int = 1,
) -> list[SweepPoint]:
    """Run every sweep over the |T|=num_tasks mix."""
    spec = campaign_spec_sensitivity(
        num_tasks=num_tasks, scale=scale, seed=seed, sweeps=sweeps
    )
    outcome = Engine(jobs=jobs).run_campaign(spec)
    comparisons = group_comparisons(
        outcome.results, group=lambda result: result.machine
    )
    by_label = {comparison.label: comparison for comparison in comparisons}
    return [
        SweepPoint(
            parameter=parameter,
            value=value,
            comparison=by_label[f"{parameter}={value}"],
        )
        for parameter, _, values in sweeps
        for value in values
    ]


def render_sensitivity(points: list[SweepPoint]) -> str:
    """One table, grouped by parameter, with per-point RS/LS speedups."""
    table = AsciiTable(
        ["parameter", "value", "RS (ms)", "RRS (ms)", "LS (ms)", "LSM (ms)", "RS/LS"],
        title="Sensitivity: locality-aware savings across simulation parameters",
    )
    for point in points:
        comparison = point.comparison
        table.add_row(
            [
                point.parameter,
                str(point.value),
                f"{comparison.seconds('RS') * 1e3:.3f}",
                f"{comparison.seconds('RRS') * 1e3:.3f}",
                f"{comparison.seconds('LS') * 1e3:.3f}",
                f"{comparison.seconds('LSM') * 1e3:.3f}",
                f"{comparison.speedup('RS', 'LS'):.2f}x",
            ]
        )
    return table.render()
