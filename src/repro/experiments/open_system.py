"""The open-system experiment (beyond the paper).

The paper's evaluation is a closed batch: every process exists at t=0
and the metric is completion time.  This harness runs the regime the
paper never measured — applications *arriving* over time on a shared
MPSoC — and asks the paper's question again under load: does locality
awareness still pay once response time, not makespan, is the metric?

The grid is (one arrival-stream workload) x (rising Poisson arrival
rates) x (an online scheduler zoo), with seed replication.  Everything
runs through the standard campaign machinery: the result store is keyed
by the spec hash, ``--resume`` skips completed cells, and cells are
deterministic functions of the spec.

Reading the table: as the arrival rate climbs toward saturation, mean
and p99 response times diverge between schedulers — the locality-aware
policy keeps miss rates and therefore service times down, which
compounds into shorter queues exactly when the system is busiest.  LA
is LS under its online-zoo name, so their rows match.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.api.engine import Engine
from repro.api.scenario import Scenario
from repro.campaign.executor import CampaignOutcome, ProgressFn
from repro.campaign.rollup import rollup_results
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.errors import ExperimentError
from repro.util.csvio import rows_to_csv, write_csv_text
from repro.util.tables import AsciiTable

#: Scheduler line-up: the paper's baselines plus the online zoo.
OPEN_SCHEDULERS = ("RS", "LS", "ETF", "WS", "LA")

#: Default Poisson rates (apps/second), spanning light load to saturation
#: for the default stream:8 workload at scale 0.5.
OPEN_RATES = (1000.0, 2000.0, 4000.0)

#: Per-run CSV columns for the open-system export.
OPEN_CSV_COLUMNS = (
    "workload",
    "machine",
    "arrival",
    "scheduler",
    "seed",
    "scale",
    "apps",
    "response_mean_ms",
    "response_p50_ms",
    "response_p95_ms",
    "response_p99_ms",
    "queue_delay_mean_ms",
    "mean_slowdown",
    "max_slowdown",
    "throughput_apps_per_s",
    "miss_rate",
    "utilization",
)


def campaign_spec_open_system(
    apps: int = 8,
    rates: Sequence[float] = OPEN_RATES,
    schedulers: Sequence[str] = OPEN_SCHEDULERS,
    seeds: Sequence[int] = (0, 1),
    scale: float = 0.5,
    process: str = "poisson",
    machine: str | None = None,
) -> CampaignSpec:
    """The open-system sweep as a declarative campaign spec."""
    if not rates:
        raise ExperimentError("open-system needs at least one arrival rate")
    scenario = (
        Scenario()
        .workload(f"stream:{apps}")
        .scheduler(*schedulers)
        .seed(*seeds)
        .scale(scale)
        .name("open-system")
    )
    if machine is not None:
        scenario = scenario.machine(machine)
    for rate in rates:
        scenario = scenario.arrival(process, rate=float(rate))
    return scenario.to_campaign()


def run_open_system(
    apps: int = 8,
    rates: Sequence[float] = OPEN_RATES,
    schedulers: Sequence[str] = OPEN_SCHEDULERS,
    seeds: Sequence[int] = (0, 1),
    scale: float = 0.5,
    process: str = "poisson",
    machine: str | None = None,
    jobs: int = 1,
    store: "ResultStore | str | Path | None" = None,
    resume: bool = False,
    progress: "ProgressFn | None" = None,
    max_retries: int = 0,
    cell_timeout: float | None = None,
    keep_going: bool = False,
) -> CampaignOutcome:
    """Run the sweep; a full campaign with store/resume semantics."""
    spec = campaign_spec_open_system(
        apps=apps,
        rates=rates,
        schedulers=schedulers,
        seeds=seeds,
        scale=scale,
        process=process,
        machine=machine,
    )
    if store is None:
        store = ResultStore(ResultStore.default_path(spec.spec_hash()))
    engine = Engine(
        jobs=jobs,
        store=store,
        resume=resume,
        progress=progress,
        max_retries=max_retries,
        cell_timeout=cell_timeout,
        keep_going=keep_going,
    )
    return engine.run_campaign(spec)


def render_open_system(outcome: CampaignOutcome) -> str:
    """ASCII artefact: response time / slowdown / tail per rate x scheduler."""
    results = [r for r in outcome.results if r.open is not None]
    if not results:
        raise ExperimentError("no open-system results to render")
    rows = rollup_results(results)
    table = AsciiTable(
        [
            "arrival",
            "scheduler",
            "runs",
            "resp mean (ms)",
            "resp p95 (ms)",
            "resp p99 (ms)",
            "slowdown",
            "thru (apps/s)",
            "miss rate",
            "vs RS",
        ],
        title=(
            f"Open system: {outcome.spec.workloads[0]} under rising arrival "
            f"rates (response time, not makespan)"
        ),
    )

    # Per-(arrival, scheduler) means over the seed axis for metrics the
    # generic rollup does not aggregate (p95, throughput).
    def seed_mean(arrival: str | None, scheduler: str, metric: str) -> float:
        members = [
            r.open[metric]
            for r in results
            if r.arrival == arrival and r.scheduler == scheduler
        ]
        return sum(members) / len(members)

    for row in rows:
        table.add_row(
            [
                row.arrival or "closed",
                row.scheduler,
                str(row.runs),
                f"{row.mean_response_ms:.3f}",
                f"{seed_mean(row.arrival, row.scheduler, 'response_p95_ms'):.3f}",
                f"{row.mean_p99_ms:.3f}",
                f"{row.mean_slowdown:.2f}",
                f"{seed_mean(row.arrival, row.scheduler, 'throughput_apps_per_s'):.0f}",
                f"{row.mean_miss_rate:.4f}",
                (
                    f"{row.speedup_vs_rs:.2f}x"
                    if row.speedup_vs_rs is not None
                    else "-"
                ),
            ]
        )
    return table.render()


def open_results_csv(outcome: CampaignOutcome) -> str:
    """Per-run CSV rows (arrival + flattened open metrics)."""
    results = [r for r in outcome.results if r.open is not None]
    if not results:
        raise ExperimentError("no open-system results to export")
    rows = []
    for result in results:
        row = result.to_dict()
        row.update(result.open)
        rows.append(row)
    return rows_to_csv(rows, OPEN_CSV_COLUMNS)


def write_open_csv(outcome: CampaignOutcome, path: str | Path) -> Path:
    """Write the open-system CSV; returns the path."""
    return write_csv_text(open_results_csv(outcome), path)
