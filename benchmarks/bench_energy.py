"""Energy comparison — the paper's "power perspective" made measurable.

The paper claims locality-aware scheduling helps "from both performance
and power perspectives" but reports only completion times.  This
benchmark charges a representative embedded energy model to the |T|=4
mix under all four schedulers and asserts that the locality strategies
also win on energy (off-chip traffic dominates, and they cut it).
"""

from __future__ import annotations

from benchmarks.conftest import save_artifact
from repro.api.registries import SCHEDULERS
from repro.experiments.runner import SCHEDULER_ORDER
from repro.sim.config import MachineConfig
from repro.sim.energy import energy_of
from repro.sim.results import SimulationResult
from repro.sim.simulator import MPSoCSimulator
from repro.util.tables import AsciiTable
from repro.workloads.suite import build_workload_mix


def _run_schedulers(epg) -> dict[str, SimulationResult]:
    """Full simulation results (``energy_of`` needs per-core detail)."""
    simulator = MPSoCSimulator(MachineConfig.paper_default())
    return {
        name: simulator.run(epg, SCHEDULERS.get(name)(0)) for name in SCHEDULER_ORDER
    }


def test_energy(benchmark, artifact_dir):
    epg = build_workload_mix(4)
    results = benchmark.pedantic(
        _run_schedulers, args=(epg,), rounds=1, iterations=1
    )

    table = AsciiTable(
        ["scheduler", "total (mJ)", "off-chip (mJ)", "off-chip share"],
        title="Energy, |T|=4 mix (representative 2005-era embedded constants)",
    )
    energies = {}
    for name in SCHEDULER_ORDER:
        breakdown = energy_of(results[name])
        energies[name] = breakdown
        table.add_row(
            [
                name,
                f"{breakdown.total_mj:.4f}",
                f"{breakdown.offchip_mj:.4f}",
                f"{breakdown.offchip_fraction:.2f}",
            ]
        )
    save_artifact(artifact_dir, "energy.txt", table.render())

    # The power half of the paper's claim: LS/LSM spend less energy than
    # RS and RRS, driven by off-chip traffic.
    assert energies["LS"].total_mj < energies["RS"].total_mj
    assert energies["LS"].total_mj < energies["RRS"].total_mj
    assert energies["LSM"].offchip_mj <= energies["RS"].offchip_mj
