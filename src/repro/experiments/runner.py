"""The figure renderers' record: one workload under several schedulers.

Every figure in the evaluation compares schedulers over some workload.
The harnesses run their grids through :class:`~repro.api.engine.Engine`
and regroup the flat :class:`~repro.campaign.executor.RunResult` list
with :func:`group_comparisons` into one :class:`SchedulerComparison`
per group, which the renderers and :mod:`repro.experiments.export`
read.  :meth:`~repro.api.engine.Engine.compare` returns the same record
for a single workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.campaign.spec import DEFAULT_SCHEDULERS
from repro.errors import CampaignError, ExperimentError

if TYPE_CHECKING:
    from repro.campaign.executor import RunResult

#: Scheduler order used in every figure (matches the paper's legends).
SCHEDULER_ORDER = tuple(spec.name for spec in DEFAULT_SCHEDULERS)

#: Maps a result to the comparison it belongs to (default: its workload).
GroupFn = Callable[["RunResult"], str]


@dataclass
class SchedulerComparison:
    """Results of one workload under several schedulers, keyed by scheduler label."""

    label: str
    results: dict[str, RunResult] = field(default_factory=dict)

    def seconds(self, scheduler_name: str) -> float:
        """Completion time of one scheduler."""
        if scheduler_name not in self.results:
            raise ExperimentError(
                f"no result for scheduler {scheduler_name!r} in {self.label!r}"
            )
        return self.results[scheduler_name].seconds

    def miss_rate(self, scheduler_name: str) -> float:
        """Aggregate miss rate of one scheduler."""
        if scheduler_name not in self.results:
            raise ExperimentError(
                f"no result for scheduler {scheduler_name!r} in {self.label!r}"
            )
        return self.results[scheduler_name].miss_rate

    def ordered_names(self) -> list[str]:
        """Schedulers in legend order, then any others in insertion order."""
        legend = [name for name in SCHEDULER_ORDER if name in self.results]
        return legend + [name for name in self.results if name not in SCHEDULER_ORDER]

    def ordered_seconds(self) -> list[tuple[str, float]]:
        """(scheduler, seconds) pairs in :meth:`ordered_names` order."""
        return [(name, self.seconds(name)) for name in self.ordered_names()]

    def speedup(self, baseline: str, improved: str) -> float:
        """``time(baseline) / time(improved)``."""
        improved_time = self.seconds(improved)
        if improved_time == 0:
            raise ExperimentError(f"zero completion time for {improved!r}")
        return self.seconds(baseline) / improved_time


def group_comparisons(
    results: Sequence[RunResult],
    group: GroupFn | None = None,
    label: Callable[[str], str] | None = None,
) -> list[SchedulerComparison]:
    """Regroup flat results into one comparison per group key.

    Groups appear in first-seen order (which, for an expanded campaign,
    is declaration order).  ``label`` optionally rewrites the group key
    into the comparison's display label (e.g. ``"mix:3"`` -> ``"|T|=3"``).
    """
    group = group if group is not None else (lambda result: result.workload)
    comparisons: dict[str, SchedulerComparison] = {}
    for result in results:
        key = group(result)
        comparison = comparisons.get(key)
        if comparison is None:
            display = label(key) if label is not None else key
            comparison = SchedulerComparison(label=display)
            comparisons[key] = comparison
        if result.scheduler in comparison.results:
            raise CampaignError(
                f"duplicate scheduler {result.scheduler!r} in group {key!r}"
            )
        comparison.results[result.scheduler] = result
    return list(comparisons.values())
