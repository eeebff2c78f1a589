"""Experiment harnesses regenerating every table and figure in the paper.

Each module owns one artefact:

- :mod:`repro.experiments.figure2` — the Section-2 worked example: the
  Prog1 sharing matrix (Figure 2a) and the good/poor 4-core mappings
  (Figures 2b/2c);
- :mod:`repro.experiments.tables` — Table 1 (applications) and Table 2
  (simulation parameters);
- :mod:`repro.experiments.figure6` — isolated execution times per
  application under RS/RRS/LS/LSM;
- :mod:`repro.experiments.figure7` — concurrent-mix completion times for
  |T| = 1..6;
- :mod:`repro.experiments.sensitivity` — the "savings are consistent
  across several simulation parameters" sweeps;
- :mod:`repro.experiments.ablation` — design-choice ablations (static
  vs. dispatch-time LS, trim policy, re-layout threshold);
- :mod:`repro.experiments.open_system` — beyond the paper: dynamic
  application arrivals under rising load, measuring response time,
  slowdown, and tail latency across the online scheduler zoo.

Every harness returns plain data records and renders an ASCII artefact,
so benchmarks, tests, and the examples all consume the same entry points.
The simulation-backed harnesses (figure6/figure7/sensitivity/ablation)
are thin declarative specs executed through :mod:`repro.campaign`, which
also exposes arbitrary grids via ``python -m repro campaign``.
"""

from repro.experiments.runner import SchedulerComparison
from repro.experiments.figure2 import (
    figure2_mappings,
    figure2_sharing_matrix,
    render_figure2,
)
from repro.experiments.figure6 import run_figure6, render_figure6
from repro.experiments.figure7 import run_figure7, render_figure7
from repro.experiments.tables import render_table1, render_table2
from repro.experiments.sensitivity import run_sensitivity, render_sensitivity
from repro.experiments.ablation import run_ablation, render_ablation
from repro.experiments.open_system import run_open_system, render_open_system

__all__ = [
    "SchedulerComparison",
    "figure2_mappings",
    "figure2_sharing_matrix",
    "render_ablation",
    "render_figure2",
    "render_figure6",
    "render_figure7",
    "render_open_system",
    "render_sensitivity",
    "render_table1",
    "render_table2",
    "run_ablation",
    "run_figure6",
    "run_figure7",
    "run_open_system",
    "run_sensitivity",
]
