"""Process schedulers: the paper's four strategies plus extensions.

- :class:`RandomScheduler` (RS) — random assignment to available cores,
  run-to-completion;
- :class:`RoundRobinScheduler` (RRS) — preemptive FCFS over one shared
  FIFO ready queue with a time quantum;
- :class:`LocalityScheduler` (LS) — the paper's sharing-driven greedy,
  as the OS dispatch policy it describes;
- :class:`StaticLocalityScheduler` (LS-static) — the Figure-3 pseudocode
  as a literal ahead-of-time plan (ablation);
- :class:`LocalityMappingScheduler` (LSM) — LS plus the Figure-4/5 data
  re-layout;
- the online zoo (:mod:`repro.sched.online`) — :class:`GreedyEtfScheduler`
  (ETF), :class:`WorkStealingScheduler` (WS), and
  :class:`LocalityAdmissionScheduler` (LA), built for open-system runs
  with dynamic application arrivals.

Every scheduler turns an EPG plus machine configuration into a
:class:`SchedulerPlan` that the simulator executes.
"""

from repro.sched.base import PlanMode, Scheduler, SchedulerPlan
from repro.sched.locality import (
    LocalityScheduler,
    StaticLocalityScheduler,
    figure3_schedule,
    make_locality_picker,
)
from repro.sched.locality_mapping import LocalityMappingScheduler
from repro.sched.online import (
    GreedyEtfScheduler,
    LocalityAdmissionScheduler,
    WorkStealingScheduler,
)
from repro.sched.random_sched import RandomScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sched.fifo import FifoScheduler

__all__ = [
    "FifoScheduler",
    "GreedyEtfScheduler",
    "LocalityAdmissionScheduler",
    "LocalityMappingScheduler",
    "LocalityScheduler",
    "PlanMode",
    "RandomScheduler",
    "RoundRobinScheduler",
    "Scheduler",
    "SchedulerPlan",
    "StaticLocalityScheduler",
    "WorkStealingScheduler",
    "figure3_schedule",
    "make_locality_picker",
]
