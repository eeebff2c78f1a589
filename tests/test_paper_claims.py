"""The paper's conclusions as executable checks.

Each test regenerates one artefact of the paper (or one focused scenario)
through the same code the CLI runs and asserts what the paper concludes
from it, each with a fixed direction and margin:

- Figure 2: the Section-2 sharing matrix and the good/poor mappings;
- Figure 6: LS and LSM beat RS and RRS on the applications in isolation;
- Figure 7: they keep winning as concurrent applications are added;
- Section 4: the win persists across the sensitivity sweeps;
- the ablations, Tables 1 and 2, the contention axis, energy, the
  open-system layer and the Figure-4 conflict scenario.

Everything here is simulated time and counts: no test reads a clock or
writes a file.
"""

from __future__ import annotations

import numpy as np

from repro.api.registries import SCHEDULERS
from repro.cache.geometry import CacheGeometry
from repro.cache.sa_cache import SetAssociativeCache
from repro.experiments.ablation import run_ablation
from repro.experiments.figure2 import (
    figure2_mappings,
    figure2_sharing_matrix,
    mapping_sharing_total,
)
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7
from repro.experiments.runner import SCHEDULER_ORDER
from repro.experiments.sensitivity import run_sensitivity
from repro.experiments.tables import render_table1, render_table2
from repro.memory.layout import DataLayout
from repro.memory.remap import RemappedLayout
from repro.programs.arrays import ArraySpec
from repro.sched import LocalityAdmissionScheduler, LocalityScheduler
from repro.sched.random_sched import RandomScheduler
from repro.sim import ArrivalSchedule, ArrivalSpec, MachineConfig, MPSoCSimulator
from repro.sim.energy import energy_of
from repro.workloads.suite import (
    SUITE,
    build_arrival_stream,
    build_workload_mix,
)

# -- Figure 2: the Section-2 sharing-matrix example --------------------------


def test_figure2_sharing_matrix():
    """The published 3000/2000/1000/0 band matrix."""
    matrix = figure2_sharing_matrix()
    for i in range(8):
        for j in range(8):
            expected = {0: 3000, 1: 2000, 2: 1000}.get(abs(i - j), 0)
            assert matrix.shared(f"P{i}", f"P{j}") == expected


def test_figure2_mappings():
    """The good mapping shares 8000 elements, the poor one none."""
    mappings = figure2_mappings()
    matrix = figure2_sharing_matrix()
    assert mapping_sharing_total(mappings["good"], matrix) == 8000
    assert mapping_sharing_total(mappings["poor"], matrix) == 0
    assert mappings["good"] == [
        ["P0", "P1"], ["P2", "P3"], ["P4", "P5"], ["P6", "P7"],
    ]


# -- Figure 6: the applications in isolation ---------------------------------


def test_figure6():
    comparisons = run_figure6()

    total = {name: 0.0 for name in ("RS", "RRS", "LS", "LSM")}
    for comparison in comparisons:
        for name in total:
            total[name] += comparison.seconds(name)

    # Observation 1: LS and LSM beat RS and RRS on the suite.
    assert total["LS"] < total["RS"]
    assert total["LS"] < total["RRS"]
    assert total["LSM"] < total["RS"]
    assert total["LSM"] < total["RRS"]

    # Observation 2: LS ~ LSM in isolation (sharing dominates conflicts).
    assert abs(total["LSM"] - total["LS"]) / total["LS"] < 0.15

    # Per-application: the locality-aware strategies never lose badly.
    for comparison in comparisons:
        assert comparison.seconds("LS") < comparison.seconds("RS") * 1.10, (
            comparison.label
        )


# -- Figure 7: the concurrent workload mixes ---------------------------------


def test_figure7():
    comparisons = run_figure7()

    # Pressure grows completion time for every scheduler.
    for name in ("RS", "RRS", "LS", "LSM"):
        series = [c.seconds(name) for c in comparisons]
        assert series[-1] > series[0]

    # Locality-aware scheduling wins at every multi-task point.
    for comparison in comparisons[2:]:
        assert comparison.seconds("LS") < comparison.seconds("RS"), comparison.label
        assert comparison.seconds("LS") < comparison.seconds("RRS"), comparison.label
        assert comparison.seconds("LSM") < comparison.seconds("RS"), comparison.label

    # The LSM-vs-LS gap under full pressure is at least as large as in
    # isolation (the paper's Figure-6/7 contrast).
    isolated = comparisons[0]
    loaded = comparisons[-1]
    gain_isolated = isolated.seconds("LS") - isolated.seconds("LSM")
    gain_loaded = loaded.seconds("LS") - loaded.seconds("LSM")
    assert gain_loaded >= gain_isolated

    # RRS degrades fastest under pressure (the shared queue migrates
    # processes across cores every quantum).
    assert loaded.seconds("RRS") > loaded.seconds("LS")


# -- Section 4: "savings are consistent across several parameters" -----------


def test_sensitivity():
    points = run_sensitivity(num_tasks=3)

    losses = [
        point
        for point in points
        if point.comparison.speedup("RS", "LS") < 0.97
    ]
    # The locality win must persist across (almost) the whole sweep: allow
    # at most one marginal point.
    assert len(losses) <= 1, [
        (p.parameter, p.value, p.comparison.speedup("RS", "LS")) for p in losses
    ]

    # Larger caches reduce completion time for the locality scheduler
    # (endpoints compared: changing the set count is not strictly
    # monotone point-to-point).
    cache_points = [p for p in points if p.parameter == "cache size"]
    times = [p.comparison.seconds("LS") for p in cache_points]
    assert times[-1] < times[0]


# -- Ablations over the design choices DESIGN.md calls out -------------------


def test_ablation():
    rows = run_ablation(num_tasks=4)
    by_variant = {(r.study, r.variant): r for r in rows}

    # Dispatch-time LS must not lose to the literal static plan: reacting
    # to actual completion times only removes idle waiting.
    dynamic = by_variant[("dispatch model", "dispatch-time (LS)")]
    static = by_variant[("dispatch model", "static plan (Figure 3 literal)")]
    assert dynamic.seconds <= static.seconds * 1.02

    # T = inf (remap nothing) must match plain LS timing closely.
    none_remapped = by_variant[("re-layout threshold", "T = inf (remap nothing)")]
    plain = by_variant[("re-layout threshold", "no re-layout (LS)")]
    assert abs(none_remapped.seconds - plain.seconds) / plain.seconds < 0.02


# -- Tables 1 and 2 ----------------------------------------------------------


def test_table1():
    rendered = render_table1()
    assert "Med-Im04" in rendered and "Usonic" in rendered
    # The paper: process counts vary between 9 and 37.
    counts = [spec.build().num_processes for spec in SUITE]
    assert min(counts) == 9 and max(counts) == 37


def test_table2():
    rendered = render_table2()
    for expected in ("8", "8KB", "2 cycle", "75 cycles", "200 MHz"):
        assert expected in rendered


# -- Bus/NoC contention: scheduling quality under scarce bandwidth -----------

CONTENDED_MACHINES = (
    ("none", MachineConfig.paper_default()),
    (
        "bus-64",
        MachineConfig.paper_default().with_overrides(
            contention="bus", contention_params={"lines_per_quantum": 64}
        ),
    ),
    (
        "noc-4",
        MachineConfig.paper_default().with_overrides(
            contention="noc", contention_params={"hop_cycles": 4}
        ),
    ),
)


def test_contention():
    """Contention only delays, and LS still moves fewer lines than RS."""
    epg = build_workload_mix(2)
    results = {}
    for label, machine in CONTENDED_MACHINES:
        simulator = MPSoCSimulator(machine)
        for sched_name, scheduler in (
            ("RS", RandomScheduler(seed=0)),
            ("LS", LocalityScheduler()),
        ):
            results[(label, sched_name)] = simulator.run(epg, scheduler)

    for sched_name in ("RS", "LS"):
        baseline = results[("none", sched_name)]
        assert baseline.total_queue_delay_cycles == 0
        for label in ("bus-64", "noc-4"):
            contended = results[(label, sched_name)]
            # Contention only delays: cache events are conserved...
            assert contended.total_cache.accesses == baseline.total_cache.accesses
            # ...and the makespan can only grow.
            assert contended.makespan_cycles >= baseline.makespan_cycles
            assert contended.total_queue_delay_cycles > 0

    # The paper's claim sharpens under scarcity: LS moves fewer lines
    # over the contended path than RS, on every machine.
    for label, _ in CONTENDED_MACHINES[1:]:
        assert (
            results[(label, "LS")].total_bus_transfers
            <= results[(label, "RS")].total_bus_transfers
        )


# -- Energy: the paper's "power perspective" made measurable -----------------


def test_energy():
    """LS/LSM spend less energy than RS and RRS on the |T|=4 mix."""
    epg = build_workload_mix(4)
    simulator = MPSoCSimulator(MachineConfig.paper_default())
    # Full simulation results: energy_of needs per-core detail.
    results = {
        name: simulator.run(epg, SCHEDULERS.get(name)(0)) for name in SCHEDULER_ORDER
    }
    energies = {name: energy_of(results[name]) for name in SCHEDULER_ORDER}

    # The power half of the paper's claim: LS/LSM spend less energy than
    # RS and RRS, driven by off-chip traffic.
    assert energies["LS"].total_mj < energies["RS"].total_mj
    assert energies["LS"].total_mj < energies["RRS"].total_mj
    assert energies["LSM"].offchip_mj <= energies["RS"].offchip_mj


# -- The open-system layer ---------------------------------------------------

OPEN_MACHINE = MachineConfig.paper_default()
OPEN_SCALE = 0.5
OPEN_APPS = 6


def _open_stream():
    return build_arrival_stream(OPEN_APPS, scale=OPEN_SCALE, seed=0)


def test_closed_vs_degenerate_open_overhead():
    """Batch-at-zero admission does the closed run's simulation work."""
    epg = _open_stream()
    simulator = MPSoCSimulator(OPEN_MACHINE)
    batch = ArrivalSchedule.batch(epg.task_names)

    result = simulator.run_open(epg, LocalityScheduler(), batch)
    assert len(result.apps) == OPEN_APPS
    closed = simulator.run(epg, LocalityScheduler())
    assert result.makespan_cycles == closed.makespan_cycles


def test_open_poisson_run():
    """Arrivals, admission and open metrics, end to end."""
    epg = _open_stream()
    simulator = MPSoCSimulator(OPEN_MACHINE)
    schedule = ArrivalSpec.of("poisson", rate=2000.0).build(
        epg.task_names, 0, OPEN_MACHINE
    )

    result = simulator.run_open(epg, LocalityScheduler(), schedule)
    assert result.mean_slowdown() >= 1.0


def test_incremental_admission_scheduler():
    """LA: LS under its online-zoo name, so it dispatches exactly as LS."""
    epg = _open_stream()
    simulator = MPSoCSimulator(OPEN_MACHINE)
    schedule = ArrivalSpec.of("poisson", rate=2000.0).build(
        epg.task_names, 0, OPEN_MACHINE
    )

    result = simulator.run_open(epg, LocalityAdmissionScheduler(), schedule)
    ls = simulator.run_open(epg, LocalityScheduler(), schedule)
    assert result.makespan_cycles == ls.makespan_cycles


# -- The Figure-4 pathological-conflict scenario -----------------------------

REMAP_GEOMETRY = CacheGeometry(8192, 2, 32)
REMAP_ELEMENTS = 2048  # 8 KB per array: exactly cache-sized
REMAP_SWEEPS = 4


def _equal_index_sweeps(layout, arrays) -> tuple[int, int]:
    """Interleave equal-index sweeps over the arrays; return hits/misses."""
    cache = SetAssociativeCache(REMAP_GEOMETRY)
    idx = np.arange(REMAP_ELEMENTS)
    lines = np.empty(len(arrays) * REMAP_ELEMENTS, dtype=np.int64)
    for j, spec in enumerate(arrays):
        lines[j :: len(arrays)] = REMAP_GEOMETRY.lines_of(layout.addrs(spec.name, idx))
    hits = misses = 0
    for _ in range(REMAP_SWEEPS):
        h, m = cache.run_trace(lines)
        hits += h
        misses += m
    return hits, misses


def test_remap_removes_pathological_conflicts():
    """Three page-aligned arrays thrash every set of a 2-way cache
    (Figure 4a); the half-page interleave (Figure 4b) removes that."""
    arrays = [ArraySpec(name, (REMAP_ELEMENTS,)) for name in ("K1", "K2", "K3")]
    base = DataLayout.allocate(arrays, alignment=REMAP_GEOMETRY.cache_page, stagger=0)
    remapped = RemappedLayout(
        base, REMAP_GEOMETRY, {"K1": 0, "K2": REMAP_GEOMETRY.cache_page // 2}
    )

    _, base_misses = _equal_index_sweeps(base, arrays)
    _, remap_misses = _equal_index_sweeps(remapped, arrays)

    # The original layout keeps thrashing on every sweep; the remap
    # removes the cross-array conflicts (only compulsory misses remain
    # for the two remapped arrays).
    assert remap_misses < base_misses / 2
