"""Figure 6 — execution times of each application in isolation.

For every Table-1 application, builds a single-task EPG and measures the
completion time under RS, RRS, LS, and LSM on the Table-2 machine.  The
paper's observations, which this harness regenerates qualitatively:

1. the locality-aware strategies beat RS and RRS (the co-scheduled
   processes all come from one application and share heavily, so cache
   behaviour dominates);
2. LS and LSM are close (intra-application conflicts are small relative
   to the sharing effects).
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
from repro.workloads.suite import workload_names


def campaign_spec_figure6(
    machine: MachineConfig | None = None,
    scale: float = 1.0,
    seed: int = 0,
) -> CampaignSpec:
    """Figure 6 as a declarative scenario: each app in isolation."""
    scenario = (
        Scenario()
        .workload(*workload_names())
        .seed(seed)
        .scale(scale)
        .name("figure6")
    )
    if machine is not None:
        scenario = scenario.machine(machine, name="figure6")
    return scenario.to_campaign()


def run_figure6(
    machine: MachineConfig | None = None,
    scale: float = 1.0,
    seed: int = 0,
    jobs: int = 1,
) -> list[SchedulerComparison]:
    """Run every application in isolation; one comparison per app."""
    spec = campaign_spec_figure6(machine=machine, scale=scale, seed=seed)
    outcome = Engine(jobs=jobs).run_campaign(spec)
    return group_comparisons(outcome.results)


def render_figure6(comparisons: list[SchedulerComparison]) -> str:
    """ASCII bar chart plus the underlying table (times in ms)."""
    chart = AsciiBarChart(
        SCHEDULER_ORDER,
        title="Figure 6: execution time, applications in isolation (ms)",
    )
    table = AsciiTable(
        ["application", *SCHEDULER_ORDER, "RS/LS", "RS/LSM"],
        title="Figure 6 data",
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
            ]
        )
    return chart.render() + "\n\n" + table.render()
