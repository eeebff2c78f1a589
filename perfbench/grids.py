"""The grids the benchmark runs, built through the public API.

Imported by the pass processes, so these imports count as set-up time.
"""

from __future__ import annotations

from repro.campaign.spec import CampaignSpec, MachineVariant
from repro.experiments.figure7 import campaign_spec_figure7
from repro.experiments.open_system import campaign_spec_open_system
from repro.experiments.sensitivity import campaign_spec_sensitivity

#: Worker processes per pass: figure7 runs serially (the CLI default);
#: sensitivity fans its 68 cells out over a 2-worker pool.
PASS_JOBS = {"figure7": 1, "sensitivity": 2}

#: The machine variant half of the serve-open submissions run: the paper
#: machine with the shared-bus contention model.
BUS = MachineVariant.from_overrides("bus", contention="bus")


def pass_spec(workload: str, seed: int) -> CampaignSpec:
    """The figure-7 grid or the Section-4 sweeps at campaign seed ``seed``."""
    if workload == "figure7":
        return campaign_spec_figure7(seed=seed)
    if workload == "sensitivity":
        return campaign_spec_sensitivity(seed=seed)
    raise ValueError(f"no pass grid for workload {workload!r}")


def open_spec(seed: int, bus: bool) -> CampaignSpec:
    """The ``open-system --smoke`` grid (15 cells) at ``seed``."""
    return campaign_spec_open_system(
        apps=4, scale=0.25, seeds=(seed,), machine=BUS if bus else None
    )
