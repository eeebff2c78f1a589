"""The online scheduler zoo (open-system extensions beyond the paper).

The paper's four strategies assume a closed batch: every process is known
at t=0.  Once applications *arrive* over time (see
:mod:`repro.sim.arrivals`), the interesting baselines are the classic
online policies — all three below are dynamic dispatch plans, so they
run unchanged in closed mode too and register in the
:data:`~repro.api.registries.SCHEDULERS` registry like every other
strategy:

- **ETF** (:class:`GreedyEtfScheduler`) — greedy earliest-finish-time:
  dispatch the ready process with the smallest estimated service time
  (shortest-job-first, the canonical response-time heuristic in open
  queueing systems).
- **WS** (:class:`WorkStealingScheduler`) — each application is homed to
  a core round-robin; cores prefer their own app's ready processes and
  deterministically steal from the most-loaded victim when idle.
- **LA** (:class:`LocalityAdmissionScheduler`) — LS under its online-zoo
  name: the same plan over the graph's memoized
  :func:`~repro.sharing.matrix.sharing_matrix_for` matrix.  A picker
  reads only entries of processes that have arrived, and those equal the
  whole-graph entries, so admitting the matrix app by app would change
  no decision.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.config import MachineConfig

from typing import Sequence

from repro.memory.layout import DataLayout
from repro.procgraph.graph import ProcessGraph
from repro.sched.base import PlanMode, Scheduler, SchedulerPlan
from repro.sched.locality import LocalityScheduler
from repro.sim.trace import build_trace


class GreedyEtfScheduler(Scheduler):
    """ETF: dispatch the ready process with the earliest estimated finish.

    Service estimates are computed once at plan time from each process's
    memory trace under the plan's layout, assuming every access hits
    (the estimate only ranks processes, so the optimistic bound is as
    good as any and is deterministic).  Ties break on pid.
    """

    name = "ETF"
    seed_sensitive = False

    def prepare(
        self,
        epg: ProcessGraph,
        machine: MachineConfig,
        layout: DataLayout,
    ) -> SchedulerPlan:
        """Estimate per-process service times; dispatch shortest-first."""
        geometry = machine.geometry()
        estimate: dict[str, int] = {}
        for process in epg:
            trace = build_trace(process, layout, geometry)
            estimate[process.pid] = trace.cost_cycles(
                trace.num_accesses, 0, machine.cache_hit_cycles, machine.miss_cycles
            )

        def picker(
            core_id: int,
            ready: Sequence[str],
            last_pid: str | None,
            running: Sequence[str],
        ) -> str:
            return min(ready, key=lambda pid: (estimate[pid], pid))

        return SchedulerPlan(
            scheduler_name=self.name,
            mode=PlanMode.DYNAMIC,
            layout=layout,
            picker=picker,
            metadata={"estimates": estimate},
        )


class WorkStealingScheduler(Scheduler):
    """WS: per-app home cores with deterministic stealing.

    Each application (task) is homed to a core round-robin in EPG task
    order, spreading apps across the machine.  An idle core dispatches
    its own apps' ready processes first (pid order — creation order
    within an app); with no local work it steals from the victim core
    owning the most ready processes (ties: lowest core id), taking the
    victim's first ready pid.  Everything is a pure function of the
    ready/running sets, so runs are exactly reproducible.
    """

    name = "WS"
    seed_sensitive = False

    def prepare(
        self,
        epg: ProcessGraph,
        machine: MachineConfig,
        layout: DataLayout,
    ) -> SchedulerPlan:
        """Home each app to a core; steal-from-richest when idle."""
        tasks: list[str] = []
        for process in epg:
            if process.task_name not in tasks:
                tasks.append(process.task_name)
        task_home = {
            task: index % machine.num_cores for index, task in enumerate(tasks)
        }
        home = {
            process.pid: task_home[process.task_name] for process in epg
        }

        def picker(
            core_id: int,
            ready: Sequence[str],
            last_pid: str | None,
            running: Sequence[str],
        ) -> str:
            local = [pid for pid in ready if home[pid] == core_id]
            if local:
                return min(local)
            by_core: dict[int, list[str]] = {}
            for pid in ready:
                by_core.setdefault(home[pid], []).append(pid)
            victim = max(by_core, key=lambda core: (len(by_core[core]), -core))
            return min(by_core[victim])

        return SchedulerPlan(
            scheduler_name=self.name,
            mode=PlanMode.DYNAMIC,
            layout=layout,
            picker=picker,
            metadata={"task_home": task_home},
        )


class LocalityAdmissionScheduler(LocalityScheduler):
    """LA: LS under its online-zoo name.

    It inherits LS's ``prepare``, so its plans read the graph's memoized
    sharing matrix and dispatch by LS's criteria.
    """

    name = "LA"
    seed_sensitive = False
