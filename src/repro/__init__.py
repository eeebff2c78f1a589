"""repro — reproduction of *Locality-Aware Process Scheduling for Embedded
MPSoCs* (Kandemir & Chen, DATE 2005).

The package implements the paper's complete system:

- :mod:`repro.presburger` — the integer-set machinery of Section 2;
- :mod:`repro.programs` / :mod:`repro.procgraph` — the program and
  process-graph model;
- :mod:`repro.sharing` — sharing and conflict matrices;
- :mod:`repro.memory` / :mod:`repro.cache` — layouts, the Figure-4/5
  re-layout, and the L1 cache model;
- :mod:`repro.sched` — the RS / RRS / LS / LSM schedulers;
- :mod:`repro.sim` — the MPSoC simulator (the Simics substitute);
- :mod:`repro.workloads` — the six Table-1 applications;
- :mod:`repro.experiments` — harnesses regenerating every table/figure;
- :mod:`repro.campaign` — declarative, parallel, resumable scenario
  sweeps over the (workload x machine x scheduler x seed) grid;
- :mod:`repro.api` — the public facade: scheduler/workload/machine
  registries (plugin decorators included), the fluent ``Scenario``
  builder, and the ``Engine`` behind every entry point.

Quickstart::

    from repro import MachineConfig, MPSoCSimulator, LocalityScheduler
    from repro.workloads import build_task
    from repro.procgraph import ExtendedProcessGraph

    epg = ExtendedProcessGraph.from_tasks([build_task("MxM")])
    sim = MPSoCSimulator(MachineConfig.paper_default())
    result = sim.run(epg, LocalityScheduler())
    print(result.summary())
"""

from repro.cache import CacheGeometry, SetAssociativeCache
from repro.procgraph import ExtendedProcessGraph, Process, ProcessGraph, Task
from repro.sched import (
    LocalityMappingScheduler,
    LocalityScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from repro.sharing import SharingMatrix, compute_sharing_matrix
from repro.sim import MachineConfig, MPSoCSimulator, SimulationResult

# The single source of truth for the version is the installed package
# metadata (pyproject.toml).  Running from a source checkout via
# PYTHONPATH=src has no metadata, so fall back to the pinned literal —
# keep it in sync with pyproject.toml's [project] version.
try:
    from importlib.metadata import PackageNotFoundError, version as _dist_version

    __version__ = _dist_version("repro-mpsoc-locality")
except PackageNotFoundError:  # pragma: no cover - depends on install mode
    __version__ = "1.1.0"

__all__ = [
    "CacheGeometry",
    "ExtendedProcessGraph",
    "LocalityMappingScheduler",
    "LocalityScheduler",
    "MPSoCSimulator",
    "MachineConfig",
    "Process",
    "ProcessGraph",
    "RandomScheduler",
    "RoundRobinScheduler",
    "Scheduler",
    "SetAssociativeCache",
    "SharingMatrix",
    "SimulationResult",
    "Task",
    "__version__",
    "compute_sharing_matrix",
]
