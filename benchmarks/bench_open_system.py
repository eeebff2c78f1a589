"""Open-system benchmarks: admission overhead and LA's equivalence to LS.

Two claims are tracked:

1. the admission path costs nothing when unused — a batch-at-zero open
   run performs the same simulation work as the closed run;
2. LA is LS under its online-zoo name: the same plan over the same
   sharing matrix, so its open runs match LS's.
"""

from __future__ import annotations

from repro.sched import LocalityAdmissionScheduler, LocalityScheduler
from repro.sim import ArrivalSchedule, ArrivalSpec, MachineConfig, MPSoCSimulator
from repro.workloads.suite import build_arrival_stream

MACHINE = MachineConfig.paper_default()
SCALE = 0.5
APPS = 6


def _epg():
    return build_arrival_stream(APPS, scale=SCALE, seed=0)


def test_closed_vs_degenerate_open_overhead(benchmark):
    """Batch-at-zero admission adds only bookkeeping to the closed run."""
    epg = _epg()
    simulator = MPSoCSimulator(MACHINE)
    batch = ArrivalSchedule.batch(epg.task_names)

    result = benchmark(
        lambda: simulator.run_open(epg, LocalityScheduler(), batch)
    )
    assert len(result.apps) == APPS
    closed = simulator.run(epg, LocalityScheduler())
    assert result.makespan_cycles == closed.makespan_cycles


def test_open_poisson_run(benchmark):
    """End-to-end open-system run: arrivals, admission, open metrics."""
    epg = _epg()
    simulator = MPSoCSimulator(MACHINE)
    schedule = ArrivalSpec.of("poisson", rate=2000.0).build(
        epg.task_names, 0, MACHINE
    )

    result = benchmark(
        lambda: simulator.run_open(epg, LocalityScheduler(), schedule)
    )
    assert result.mean_slowdown() >= 1.0


def test_incremental_admission_scheduler(benchmark):
    """LA: LS under its online-zoo name, so it dispatches exactly as LS."""
    epg = _epg()
    simulator = MPSoCSimulator(MACHINE)
    schedule = ArrivalSpec.of("poisson", rate=2000.0).build(
        epg.task_names, 0, MACHINE
    )

    result = benchmark(
        lambda: simulator.run_open(epg, LocalityAdmissionScheduler(), schedule)
    )
    ls = simulator.run_open(epg, LocalityScheduler(), schedule)
    assert result.makespan_cycles == ls.makespan_cycles
