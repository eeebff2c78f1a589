"""The locality-aware scheduler (LS) — the paper's Section 3.

The paper gives two complementary criteria:

1. processes that do **not** share data should run on *different* cores
   at the same time (they would only duplicate cache contents);
2. processes that **do** share data but cannot run concurrently should
   run *successively on the same core*, so the second finds the first's
   data still cached.

:class:`LocalityScheduler` (LS) embodies both as an OS dispatch policy —
the form in which the paper's scheduler actually runs inside the OS:
whenever a core goes idle, among the ready processes it dispatches the one
maximising sharing with the process that last ran on that core
(criterion 2), breaking ties — including the cold-start case — by
*minimising* sharing with the processes currently running on other cores
(criterion 1, the Figure-3 initialisation rule).

:func:`figure3_schedule` and :class:`StaticLocalityScheduler` implement
the paper's Figure-3 pseudocode literally as an ahead-of-time plan: fixed
per-core queues built round-robin by the same two criteria.  The static
form is kept for the ablation study (and for LSM's re-layout planning,
which needs a predicted schedule at compile time); as a dispatcher it
cannot react to actual completion times, so on dependence-heavy mixes it
leaves cores idle where the dynamic form does not — a trade-off the
ablation study (``repro ablation``) quantifies and
``tests/test_paper_claims.py`` asserts.

On the trim rule: the paper's prose says the initialisation "removes the
candidates that have the maximum data sharing with the other candidates"
while the pseudocode's select line reads "minimized"; the prose is the
only reading consistent with criterion 1, so it is the default, and
``trim="min-sharing"`` gives the literal pseudocode variant for the
ablation study.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.config import MachineConfig

from typing import Literal, Sequence

import numpy as np

from repro.errors import InfeasibleScheduleError, UnknownProcessError, ValidationError
from repro.memory.layout import DataLayout
from repro.procgraph.graph import ProcessGraph
from repro.sched.base import PlanMode, Scheduler, SchedulerPlan
from repro.sharing.matrix import SharingMatrix, sharing_matrix_for

TrimPolicy = Literal["max-sharing", "min-sharing"]


def make_locality_picker(sharing: SharingMatrix):
    """Build the LS dispatch callback over a precomputed sharing matrix.

    Selection among the ready processes, in order:

    1. maximise ``M[last_on_core][q]`` (reuse what this core just cached);
    2. tie-break by minimising ``Σ_r M[q][r]`` over the processes
       currently running on other cores (do not duplicate their data);
    3. final tie: lexicographic pid.

    Scoring gathers whole matrix rows instead of per-pair lookups — the
    picker runs on every dispatch of every dynamic simulation, and the
    selected pid is identical to the scalar ``min(ready, key=score)``.
    """
    matrix = sharing.matrix
    index = {pid: i for i, pid in enumerate(sharing.pids)}

    def picker(
        core_id: int,
        ready: Sequence[str],
        last_pid: str | None,
        running: Sequence[str],
    ) -> str:
        if len(ready) == 1:
            return ready[0]
        try:
            rows = np.fromiter(
                (index[pid] for pid in ready), dtype=np.intp, count=len(ready)
            )
            last_row = index[last_pid] if last_pid is not None else None
            cols = np.fromiter(
                (index[pid] for pid in running), dtype=np.intp, count=len(running)
            )
        except KeyError as exc:
            raise UnknownProcessError(exc.args[0]) from None
        if last_row is not None:
            affinity = matrix[last_row, rows]
        else:
            affinity = np.zeros(len(rows), dtype=np.int64)
        if len(cols):
            concurrent = matrix[rows[:, None], cols].sum(axis=1)
        else:
            concurrent = np.zeros(len(rows), dtype=np.int64)
        best = min(
            range(len(ready)),
            key=lambda k: (-affinity[k], concurrent[k], ready[k]),
        )
        return ready[best]

    return picker


def figure3_schedule(
    epg: ProcessGraph,
    sharing: SharingMatrix,
    num_cores: int,
    trim: TrimPolicy = "max-sharing",
) -> list[list[str]]:
    """The literal Figure-3 planning algorithm; ordered pid queue per core."""
    if num_cores <= 0:
        raise ValidationError(f"num_cores must be positive, got {num_cores}")
    if trim not in ("max-sharing", "min-sharing"):
        raise ValidationError(f"unknown trim policy {trim!r}")
    epg.validate_acyclic()

    unscheduled = set(epg.pids)
    predecessors = {pid: epg.predecessors(pid) for pid in epg.pids}

    # -- initialisation: pick the first-round co-runners ----------------------
    candidates = sorted(p.pid for p in epg.independent_processes())
    if len(candidates) > num_cores:
        rows = np.array([sharing.index_of(pid) for pid in candidates], dtype=np.intp)
        block = sharing.matrix[np.ix_(rows, rows)]
        # Each candidate's sharing with the other candidates; a removal
        # subtracts the victim's column.
        totals = block.sum(axis=1) - block.diagonal()
        alive = np.ones(len(candidates), dtype=bool)
        for _ in range(len(candidates) - num_cores):
            live = np.flatnonzero(alive)
            values = totals[live]
            if trim == "max-sharing":
                # Remove the candidate sharing the most with the others.
                victim = live[values == values.max()][-1]  # ties: largest pid
            else:
                victim = live[values == values.min()][0]  # ties: smallest pid
            alive[victim] = False
            totals -= block[:, victim]
        candidates = [pid for pid, kept in zip(candidates, alive) if kept]

    queues: list[list[str]] = [[] for _ in range(num_cores)]
    scheduled: set[str] = set()
    for core, pid in enumerate(candidates):
        queues[core].append(pid)
        scheduled.add(pid)
        unscheduled.discard(pid)

    # -- main loop: fill each core slot with the best-sharing ready process ----
    while unscheduled:
        progressed = False
        for core in range(num_cores):
            if not unscheduled:
                break
            ready = sorted(
                pid for pid in unscheduled if predecessors[pid] <= scheduled
            )
            if not ready:
                break  # nothing placeable until another pick lands
            prev = queues[core][-1] if queues[core] else None
            if prev is None:
                chosen = ready[0]
            else:
                chosen, _ = sharing.best_partner(prev, ready)
            queues[core].append(chosen)
            scheduled.add(chosen)
            unscheduled.discard(chosen)
            progressed = True
        if not progressed:
            # Cannot happen for a DAG: some unscheduled process always has
            # all predecessors scheduled.  Guard anyway.
            raise InfeasibleScheduleError(
                f"no schedulable process among {sorted(unscheduled)}"
            )
    return queues


class LocalityScheduler(Scheduler):
    """LS: the paper's locality-aware scheduler as a dispatch policy."""

    name = "LS"
    seed_sensitive = False

    def prepare(
        self,
        epg: ProcessGraph,
        machine: MachineConfig,
        layout: DataLayout,
    ) -> SchedulerPlan:
        """Precompute the sharing matrix; dispatch greedily at run time."""
        sharing = sharing_matrix_for(epg)
        return SchedulerPlan(
            scheduler_name=self.name,
            mode=PlanMode.DYNAMIC,
            layout=layout,
            picker=make_locality_picker(sharing),
            metadata={"sharing_matrix": sharing},
        )


class StaticLocalityScheduler(Scheduler):
    """LS-static: the Figure-3 pseudocode as a fixed ahead-of-time plan."""

    name = "LS-static"
    seed_sensitive = False

    def __init__(self, trim: TrimPolicy = "max-sharing") -> None:
        if trim not in ("max-sharing", "min-sharing"):
            raise ValidationError(f"unknown trim policy {trim!r}")
        self._trim = trim

    def prepare(
        self,
        epg: ProcessGraph,
        machine: MachineConfig,
        layout: DataLayout,
    ) -> SchedulerPlan:
        """Compute the sharing matrix and run Figure 3 ahead of time."""
        sharing = sharing_matrix_for(epg)
        queues = figure3_schedule(epg, sharing, machine.num_cores, trim=self._trim)
        return SchedulerPlan(
            scheduler_name=self.name,
            mode=PlanMode.STATIC,
            layout=layout,
            core_queues=queues,
            metadata={"sharing_matrix": sharing, "trim": self._trim},
        )
