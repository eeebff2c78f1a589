"""CSV export for experiment results.

Every harness returns :class:`~repro.experiments.runner.SchedulerComparison`
records; these helpers flatten them into CSV rows so results can be
post-processed (plotting, regression tracking) outside this library.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.errors import ExperimentError
from repro.experiments.runner import SchedulerComparison
from repro.util.csvio import rows_to_csv, write_csv_text

#: Columns written for each (workload, scheduler) pair.
CSV_COLUMNS = (
    "workload",
    "scheduler",
    "seconds",
    "makespan_cycles",
    "miss_rate",
    "hits",
    "misses",
    "utilization",
)


def comparisons_to_rows(
    comparisons: Sequence[SchedulerComparison],
) -> list[dict[str, object]]:
    """One dict per (workload, scheduler), in ``ordered_names()`` order."""
    rows: list[dict[str, object]] = []
    for comparison in comparisons:
        for name in comparison.ordered_names():
            result = comparison.results[name]
            rows.append(
                {
                    "workload": comparison.label,
                    "scheduler": name,
                    "seconds": result.seconds,
                    "makespan_cycles": result.makespan_cycles,
                    "miss_rate": result.miss_rate,
                    "hits": result.hits,
                    "misses": result.misses,
                    "utilization": result.utilization,
                }
            )
    return rows


def comparisons_to_csv(comparisons: Sequence[SchedulerComparison]) -> str:
    """Render comparisons as a CSV string (header + one row per result)."""
    rows = comparisons_to_rows(comparisons)
    if not rows:
        raise ExperimentError("no results to export")
    return rows_to_csv(rows, CSV_COLUMNS)


def write_csv(
    comparisons: Sequence[SchedulerComparison], path: str | Path
) -> Path:
    """Write comparisons to a CSV file; returns the path."""
    return write_csv_text(comparisons_to_csv(comparisons), path)
