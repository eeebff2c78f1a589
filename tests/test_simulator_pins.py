"""Absolute pins on the simulator's output.

Every other simulator suite compares two engines or two paths that
share the same event loop, so a semantic slip in the loop itself would
pass them all.  These tests hash the complete result of every builtin
scheduler — closed on a three-app mix and open on a Poisson arrival
stream — across six machines and two seeds, and compare the SHA-256
digests against values recorded from a known-good simulator.

The digest covers only plain ints and strs (and ``None``): the
makespan; every process record keyed by pid (start, end, cores, hits,
misses, preemptions); every core record (busy cycles, dispatch order,
all cache counters, classified misses, queue delay, bus transfers);
and, for open runs, every app record.  The insertion order of
``SimulationResult.processes`` is deliberately not pinned.  Runs that
must fail (static plans in open mode, miss classification under RRS)
contribute their exception type.

If a change is *meant* to alter simulator output, regenerate the table
with ``PYTHONPATH=src python tests/test_simulator_pins.py`` and say why in
the change log.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api.registries import MACHINES as MACHINE_PRESETS
from repro.api.registries import SCHEDULERS
from repro.errors import ReproError
from repro.sim import ArrivalSpec, MachineConfig, MPSoCSimulator
from repro.workloads.suite import build_arrival_stream, build_workload_mix

SCHEDULER_NAMES = ("ETF", "FCFS", "LA", "LS", "LS-static", "LSM", "RRS", "RS", "WS")
SEEDS = (0, 1)

#: Override sets against the Table-2 machine: three builtin presets,
#: then the paper machine with each optional charge switched on.
MACHINES = {
    "paper": {},
    "big-little-cache": dict(MACHINE_PRESETS.get("big-little-cache")),
    "quantum-2k": dict(MACHINE_PRESETS.get("quantum-2k")),
    "bus": {"contention": "bus"},
    "writebacks": {"charge_writebacks": True},
    "classify": {"classify_misses": True},
}

#: ``(machine, mode) -> SHA-256`` over every scheduler and seed.
EXPECTED = {
    ("paper", "closed"): (
        "bd579ec869ee380ac4d722d3c94ba33e"
        "2bc93c0c1fa606718d0c2ba29b8a42a7"
    ),
    ("paper", "open"): (
        "63d5afcafeb454eef90c37de1b8dfbb6"
        "6cf20ec045a0d29daeb3b5e39dd8234d"
    ),
    ("big-little-cache", "closed"): (
        "384eb4f00d7d42c88e9c7e7b687a17da"
        "0f0ea5c8ac9d5684f598ceec98729e75"
    ),
    ("big-little-cache", "open"): (
        "9d49c61d5be34d4f2e2595c595b1ae9b"
        "c7a147d28c4c9f58ea1c04f3520c27b7"
    ),
    ("quantum-2k", "closed"): (
        "5f6179d99fc11e229fe5d918b43651a5"
        "baed89d64826e355a68b1d147b754a01"
    ),
    ("quantum-2k", "open"): (
        "a60e3250d939be1af611dcff785f8abe"
        "15a0b288eed6ef30d5ba59a4ed02f3a4"
    ),
    ("bus", "closed"): (
        "ae062d95d655f4f4f83a96946235a7b3"
        "ce86b977086b9c6ec63ccac9e413dd6c"
    ),
    ("bus", "open"): (
        "001377049a0046326987af1ff822333c"
        "83289bd570c9fafd7da9db5ec272a3b3"
    ),
    ("writebacks", "closed"): (
        "013a733bf1a7ec38d2522ea509f3aee6"
        "6b54828aa984cdab7ea2a955ceee2fde"
    ),
    ("writebacks", "open"): (
        "5681115993bc86f316af955c611bbf21"
        "740c2ca0df17a985cff3cbeb6ee84ab5"
    ),
    ("classify", "closed"): (
        "cb3da46d3c1c97c68892881258c16e2e"
        "587587fbf3db4609a95f313e98f7b4b9"
    ),
    ("classify", "open"): (
        "e005ee3468dacabf6fcdec15cf89a48e"
        "103788e01bfbb8f7a1bf79390296edb2"
    ),
}


def _result_key(result) -> tuple:
    processes = tuple(
        (
            pid,
            record.start_cycle,
            record.end_cycle,
            tuple(record.cores),
            record.hits,
            record.misses,
            record.preemptions,
        )
        for pid, record in sorted(result.processes.items())
    )
    cores = []
    for core in result.cores:
        stats = core.cache
        classified = core.classified
        cores.append(
            (
                core.core_id,
                core.busy_cycles,
                tuple(core.executed_pids),
                stats.hits,
                stats.misses,
                stats.write_hits,
                stats.write_misses,
                stats.dirty_evictions,
                None
                if classified is None
                else (classified.compulsory, classified.capacity, classified.conflict),
                core.queue_delay_cycles,
                core.bus_transfers,
            )
        )
    apps = tuple(
        (
            name,
            app.arrival_cycle,
            app.first_dispatch_cycle,
            app.completion_cycle,
            app.service_cycles,
            app.num_processes,
        )
        for name, app in sorted(getattr(result, "apps", {}).items())
    )
    return (
        result.scheduler_name,
        result.makespan_cycles,
        processes,
        tuple(cores),
        apps,
    )


def _digest(machine_name: str, mode: str) -> str:
    machine = MachineConfig.paper_default().with_overrides(**MACHINES[machine_name])
    simulator = MPSoCSimulator(machine)
    if mode == "closed":
        epg = build_workload_mix(3, scale=0.25)
    else:
        epg = build_arrival_stream(4, scale=0.25, seed=1)
    arrivals = ArrivalSpec.of("poisson", rate=3000.0)
    digest = hashlib.sha256()
    for name in SCHEDULER_NAMES:
        for seed in SEEDS:
            scheduler = SCHEDULERS.get(name)(seed)
            try:
                if mode == "closed":
                    result = simulator.run(epg, scheduler)
                else:
                    schedule = arrivals.build(epg.task_names, seed, machine)
                    result = simulator.run_open(epg, scheduler, schedule)
                key = _result_key(result)
            except ReproError as exc:
                key = ("ERR", type(exc).__name__)
            digest.update(repr((name, seed, key)).encode())
    return digest.hexdigest()


def test_scheduler_list_is_the_builtin_registry():
    builtin = sorted(
        entry.name for entry in SCHEDULERS.entries() if entry.origin == "builtin"
    )
    assert builtin == sorted(SCHEDULER_NAMES)


@pytest.mark.parametrize("machine_name, mode", sorted(EXPECTED))
def test_simulator_output_is_pinned(machine_name, mode):
    assert _digest(machine_name, mode) == EXPECTED[(machine_name, mode)]


@pytest.mark.parametrize(
    "machine_name, mode", [("paper", "closed"), ("quantum-2k", "open")]
)
def test_python_engine_matches_the_pins(machine_name, mode, monkeypatch):
    """Without the compiled kernel: whole traces through the vectorized
    engine and every shared-queue quantum through a compiled plan."""
    import repro.sim.simulator as simulator_module
    from repro.cache import native

    monkeypatch.setattr(native, "kernel", lambda: None)
    monkeypatch.setattr(simulator_module, "MIN_BATCH_WINDOW", 0)
    assert _digest(machine_name, mode) == EXPECTED[(machine_name, mode)]


if __name__ == "__main__":
    for machine_name, mode in EXPECTED:
        digest = _digest(machine_name, mode)
        print(f'    ("{machine_name}", "{mode}"): (')
        print(f'        "{digest[:32]}"\n        "{digest[32:]}"\n    ),')
