"""``repro.api`` — the one public, versioned facade over the system.

Every entry point (CLI subcommands, experiment harnesses, the campaign
engine, the example scripts) expresses the paper's evaluation shape —
(workload x machine x scheduler x seed) -> simulation — through this
package:

- **registries** (:data:`SCHEDULERS`, :data:`WORKLOADS`,
  :data:`MACHINES`) with decorator registration, string+params
  addressing, discovery, and did-you-mean errors;
- the fluent :class:`Scenario` builder, normalizing to the frozen
  :class:`RunSpec` / :class:`CampaignSpec` records (hashing, resume,
  and memoization therefore keep working);
- the :class:`Engine`, running cells under ``serial`` / ``threads`` /
  ``processes`` policies and returning the existing typed results.

Quickstart::

    from repro.api import Engine, Scenario

    comparison = Engine().compare(
        Scenario().workload("MxM").scheduler("RS", "RRS", "LS", "LSM")
    )
    print(comparison.ordered_seconds())

Extension (see ``docs/API.md`` for the full recipe)::

    from repro.api import register_scheduler

    @register_scheduler("GREEDY", description="always pick the first ready pid")
    class GreedyScheduler(Scheduler):
        name = "GREEDY"
        ...

Attributes resolve lazily (PEP 562): importing :mod:`repro.api` is
cheap, and the submodule import graph stays acyclic even though the
campaign layer itself consults the registries.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

from repro.util.invalidation import register_worker_state

#: The public surface.  tests/test_api_surface.py snapshots this list —
#: additions and removals must update that test deliberately.
__all__ = [
    "ARRIVALS",
    "ArrivalFactory",
    "ArrivalSpec",
    "CONTENTION",
    "CampaignOutcome",
    "CampaignSpec",
    "CellFailure",
    "ContentionFactory",
    "Engine",
    "EXECUTION_POLICIES",
    "MACHINES",
    "MachineVariant",
    "Registry",
    "RegistryEntry",
    "RunResult",
    "RunSpec",
    "SCHEDULERS",
    "Scenario",
    "SchedulerSpec",
    "WORKLOADS",
    "WorkloadFactory",
    "group_comparisons",
    "list_arrivals",
    "list_contentions",
    "list_machines",
    "list_schedulers",
    "list_workloads",
    "register_arrival",
    "register_contention",
    "register_machine",
    "register_scheduler",
    "register_workload",
]

#: name -> home module, resolved on first attribute access.
_EXPORTS = {
    "ARRIVALS": "repro.api.registries",
    "ArrivalFactory": "repro.api.registries",
    "ArrivalSpec": "repro.sim.arrivals",
    "CONTENTION": "repro.api.registries",
    "CampaignOutcome": "repro.campaign.executor",
    "CampaignSpec": "repro.campaign.spec",
    "CellFailure": "repro.campaign.failures",
    "ContentionFactory": "repro.api.registries",
    "Engine": "repro.api.engine",
    "EXECUTION_POLICIES": "repro.api.engine",
    "MACHINES": "repro.api.registries",
    "MachineVariant": "repro.campaign.spec",
    "Registry": "repro.api.registry",
    "RegistryEntry": "repro.api.registry",
    "RunResult": "repro.campaign.executor",
    "RunSpec": "repro.campaign.spec",
    "SCHEDULERS": "repro.api.registries",
    "Scenario": "repro.api.scenario",
    "SchedulerSpec": "repro.campaign.spec",
    "WORKLOADS": "repro.api.registries",
    "WorkloadFactory": "repro.api.registries",
    "group_comparisons": "repro.experiments.runner",
    "list_arrivals": "repro.api.registries",
    "list_contentions": "repro.api.registries",
    "list_machines": "repro.api.registries",
    "list_schedulers": "repro.api.registries",
    "list_workloads": "repro.api.registries",
    "register_arrival": "repro.api.registries",
    "register_contention": "repro.api.registries",
    "register_machine": "repro.api.registries",
    "register_scheduler": "repro.api.registries",
    "register_workload": "repro.api.registries",
}
register_worker_state(__name__, "_EXPORTS", note="constant after import")

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.api.engine import EXECUTION_POLICIES, Engine
    from repro.api.registries import (
        ARRIVALS,
        CONTENTION,
        MACHINES,
        SCHEDULERS,
        WORKLOADS,
        ArrivalFactory,
        ContentionFactory,
        WorkloadFactory,
        list_arrivals,
        list_contentions,
        list_machines,
        list_schedulers,
        list_workloads,
        register_arrival,
        register_contention,
        register_machine,
        register_scheduler,
        register_workload,
    )
    from repro.sim.arrivals import ArrivalSpec
    from repro.api.registry import Registry, RegistryEntry
    from repro.api.scenario import Scenario
    from repro.campaign.failures import CellFailure
    from repro.campaign.executor import CampaignOutcome, RunResult
    from repro.campaign.spec import (
        CampaignSpec,
        MachineVariant,
        RunSpec,
        SchedulerSpec,
    )
    from repro.experiments.runner import group_comparisons


def __getattr__(name: str) -> object:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.api' has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: resolve each name once
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
