"""Figure 7 — completion times of concurrent workload mixes.

``|T| = k`` runs the first ``k`` Table-1 applications concurrently (the
paper introduces them cumulatively: Med-Im04, +MxM, +Radar, ...).  The
paper's observations, regenerated qualitatively:

1. the locality-aware strategies still win as pressure grows;
2. unlike the isolated runs, LSM pulls ahead of LS — processes scheduled
   successively on one core now come from *different* applications, whose
   arrays conflict in the cache until the Figure-4/5 re-layout separates
   them.
"""

from __future__ import annotations

from repro.api.engine import Engine
from repro.api.scenario import Scenario
from repro.campaign.spec import CampaignSpec
from repro.experiments.runner import (
    SCHEDULER_ORDER,
    SchedulerComparison,
    group_comparisons,
)
from repro.sim.config import MachineConfig
from repro.util.tables import AsciiBarChart, AsciiTable
from repro.workloads.suite import SUITE


def campaign_spec_figure7(
    machine: MachineConfig | None = None,
    scale: float = 1.0,
    seed: int = 0,
    max_tasks: int | None = None,
) -> CampaignSpec:
    """Figure 7 as a declarative scenario over the cumulative mixes."""
    limit = max_tasks if max_tasks is not None else len(SUITE)
    scenario = (
        Scenario()
        .workload(*(f"mix:{num_tasks}" for num_tasks in range(1, limit + 1)))
        .seed(seed)
        .scale(scale)
        .name("figure7")
    )
    if machine is not None:
        scenario = scenario.machine(machine, name="figure7")
    return scenario.to_campaign()


def run_figure7(
    machine: MachineConfig | None = None,
    scale: float = 1.0,
    seed: int = 0,
    max_tasks: int | None = None,
    jobs: int = 1,
) -> list[SchedulerComparison]:
    """Run the cumulative mixes |T| = 1..6 (or up to ``max_tasks``)."""
    spec = campaign_spec_figure7(
        machine=machine, scale=scale, seed=seed, max_tasks=max_tasks
    )
    outcome = Engine(jobs=jobs).run_campaign(spec)
    return group_comparisons(
        outcome.results,
        label=lambda ref: f"|T|={ref.split(':', 1)[1]}",
    )


def render_figure7(comparisons: list[SchedulerComparison]) -> str:
    """ASCII bar chart plus the underlying table (times in ms)."""
    chart = AsciiBarChart(
        SCHEDULER_ORDER,
        title="Figure 7: completion time, concurrent workloads (ms)",
    )
    table = AsciiTable(
        ["workload", *SCHEDULER_ORDER, "RS/LS", "RS/LSM", "LS/LSM"],
        title="Figure 7 data",
    )
    for comparison in comparisons:
        millis = [comparison.seconds(name) * 1e3 for name in SCHEDULER_ORDER]
        chart.add_group(comparison.label, millis)
        table.add_row(
            [
                comparison.label,
                *[f"{m:.3f}" for m in millis],
                f"{comparison.speedup('RS', 'LS'):.2f}x",
                f"{comparison.speedup('RS', 'LSM'):.2f}x",
                f"{comparison.speedup('LS', 'LSM'):.2f}x",
            ]
        )
    return chart.render() + "\n\n" + table.render()
