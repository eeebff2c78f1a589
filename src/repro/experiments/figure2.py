"""Figure 2 — the Section-2 worked example, reproduced exactly.

The paper parallelises Prog1 (``B[i1] += A[i1*1000 + i2][5]``) over eight
processes, one per value of ``i1``, and reports:

- **Figure 2(a)**: the pairwise sharing matrix over array ``A`` —
  3000 elements on the diagonal, 2000 for next neighbours, 1000 two
  apart, 0 otherwise;
- **Figure 2(b)**: with four cores and processes {0,2,4,6} in the first
  time quantum, the good mapping pairs each second-quantum process with
  its data-sharing neighbour (P1 after P0, P3 after P2, ...);
- **Figure 2(c)**: the poor mapping pairs strangers (no sharing).

This module reproduces (a) exactly from the Presburger machinery and
derives (b) with the Figure-3 algorithm, serving as the end-to-end
correctness anchor for the sharing analysis and scheduler.
"""

from __future__ import annotations

import numpy as np

from repro.presburger.constraints import Constraint
from repro.presburger.maps import AffineMap
from repro.presburger.points import PointSet
from repro.presburger.builders import iteration_space
from repro.presburger.terms import const, var
from repro.sharing.matrix import SharingMatrix
from repro.util.tables import format_matrix

#: Prog1's loop bounds from the paper.
NUM_PROCESSES = 8
INNER_TRIPS = 3000
ROW_STRIDE = 1000


def prog1_data_sets(
    num_processes: int = NUM_PROCESSES,
    inner_trips: int = INNER_TRIPS,
    row_stride: int = ROW_STRIDE,
) -> list[PointSet]:
    """The per-process data sets ``DS1,k`` of Prog1, exactly as written.

    ``DS1,k = {[d1,d2]: d1 = i1*1000 + i2 && d2 = 5 && [i1,i2] ∈ IS1,k}``.
    """
    access = AffineMap(
        ("i1", "i2"), [var("i1") * row_stride + var("i2"), const(5)]
    )
    data_sets = []
    for k in range(num_processes):
        slice_k = iteration_space(
            [("i1", 0, num_processes), ("i2", 0, inner_trips)]
        ).with_constraints(Constraint.eq(var("i1"), k))
        data_sets.append(access.image(slice_k))
    return data_sets


def figure2_sharing_matrix(
    num_processes: int = NUM_PROCESSES,
    inner_trips: int = INNER_TRIPS,
    row_stride: int = ROW_STRIDE,
) -> SharingMatrix:
    """The Figure-2(a) matrix in elements (``SS1,k,p = DS1,k ∩ DS1,p``)."""
    data_sets = prog1_data_sets(num_processes, inner_trips, row_stride)
    pids = [f"P{k}" for k in range(num_processes)]
    matrix = np.zeros((num_processes, num_processes), dtype=np.int64)
    for i in range(num_processes):
        for j in range(num_processes):
            matrix[i, j] = data_sets[i].intersection_size(data_sets[j])
    return SharingMatrix(pids, matrix)


def figure2_mappings(
    num_cores: int = 4, sharing: SharingMatrix | None = None
) -> dict[str, list[list[str]]]:
    """The good (2b) and poor (2c) mappings for four cores.

    The good mapping is derived by the Figure-3 selection rule: the
    first quantum runs the even processes; each core's second process is
    the one sharing the most data with its first.  The poor mapping
    pairs processes that share nothing.  ``sharing`` defaults to a fresh
    :func:`figure2_sharing_matrix`.
    """
    if sharing is None:
        sharing = figure2_sharing_matrix()
    first_quantum = [f"P{2 * c}" for c in range(num_cores)]
    second_pool = [f"P{2 * c + 1}" for c in range(num_cores)]
    good = []
    remaining = list(second_pool)
    for first in first_quantum:
        partner, _ = sharing.best_partner(first, remaining)
        remaining.remove(partner)
        good.append([first, partner])
    # The poor mapping (Figure 2c) rotates the partners so no pair shares.
    poor = []
    rotated = second_pool[2:] + second_pool[:2]
    for first, partner in zip(first_quantum, rotated):
        poor.append([first, partner])
    return {"good": good, "poor": poor}


def mapping_sharing_total(
    mapping: list[list[str]], sharing: SharingMatrix
) -> int:
    """Total shared elements between successive processes over all cores."""
    total = 0
    for queue in mapping:
        for prev, nxt in zip(queue, queue[1:]):
            total += sharing.shared(prev, nxt)
    return total


def render_figure2() -> str:
    """ASCII reproduction of Figure 2 (matrix plus both mappings)."""
    sharing = figure2_sharing_matrix()
    mappings = figure2_mappings(sharing=sharing)
    lines = [
        format_matrix(
            sharing.matrix.tolist(),
            list(sharing.pids),
            list(sharing.pids),
            title="Figure 2(a): data sharing between Prog1 processes (elements)",
        ),
        "",
        "Figure 2(b): locality-aware mapping (core: quantum1 -> quantum2)",
    ]
    for core, queue in enumerate(mappings["good"]):
        lines.append(f"  core {core}: {' -> '.join(queue)}")
    lines.append(
        f"  total successive sharing: "
        f"{mapping_sharing_total(mappings['good'], sharing)} elements"
    )
    lines.append("")
    lines.append("Figure 2(c): poor mapping")
    for core, queue in enumerate(mappings["poor"]):
        lines.append(f"  core {core}: {' -> '.join(queue)}")
    lines.append(
        f"  total successive sharing: "
        f"{mapping_sharing_total(mappings['poor'], sharing)} elements"
    )
    return "\n".join(lines)
