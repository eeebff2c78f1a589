"""SharingMatrix and ConflictMatrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.errors import UnknownArrayError, UnknownProcessError, ValidationError
from repro.memory.layout import DataLayout
from repro.presburger.points import PointSet
from repro.presburger.terms import var
from repro.procgraph.process import Process
from repro.programs.accesses import AffineAccess
from repro.programs.arrays import ArraySpec
from repro.programs.fragments import ProgramFragment
from repro.programs.loops import LoopNest
from repro.programs.partition import block_partition
from repro.sharing.conflicts import ConflictMatrix, compute_conflict_matrix
from repro.sharing.matrix import SharingMatrix, compute_sharing_matrix


def window_processes(rows: int = 8, overlap: bool = True) -> list[Process]:
    """Two processes over adjacent row blocks, optionally sharing a row."""
    a = ArraySpec("A", (rows, 8))
    x, y = var("x"), var("y")
    accesses = [AffineAccess(a, [x, y])]
    if overlap:
        accesses.append(AffineAccess(a, [x + 1, y]))
    frag = ProgramFragment(
        "win", LoopNest([("x", 0, rows - 1), ("y", 0, 8)]), accesses
    )
    pieces = block_partition(frag, 2)
    return [Process(f"p{k}", "T", [piece]) for k, piece in enumerate(pieces)]


class TestSharingMatrix:
    def test_diagonal_is_footprint(self):
        procs = window_processes()
        matrix = compute_sharing_matrix(procs)
        for proc in procs:
            assert matrix.footprint(proc.pid) == proc.footprint_bytes()

    def test_neighbours_share_boundary_row(self):
        procs = window_processes(overlap=True)
        matrix = compute_sharing_matrix(procs)
        # The +1 window makes block 0 touch the first row of block 1.
        assert matrix.shared("p0", "p1") == 8 * 4  # one row of 8 ints

    def test_disjoint_blocks_share_nothing(self):
        procs = window_processes(overlap=False)
        matrix = compute_sharing_matrix(procs)
        assert matrix.shared("p0", "p1") == 0

    def test_symmetry_enforced(self):
        with pytest.raises(ValidationError):
            SharingMatrix(("a", "b"), np.array([[1, 2], [3, 1]]))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            SharingMatrix(("a",), np.array([[-1]]))

    def test_unknown_pid_rejected(self):
        matrix = compute_sharing_matrix(window_processes())
        with pytest.raises(UnknownProcessError):
            matrix.shared("p0", "zz")

    def test_best_partner(self):
        procs = window_processes()
        matrix = compute_sharing_matrix(procs)
        partner, value = matrix.best_partner("p0", ["p1"])
        assert partner == "p1"
        assert value == matrix.shared("p0", "p1")

    def test_best_partner_empty_candidates(self):
        matrix = compute_sharing_matrix(window_processes())
        assert matrix.best_partner("p0", []) == (None, 0)

    def test_best_partner_tie_breaks_by_order(self):
        a = ArraySpec("A", (4, 4))
        b = ArraySpec("B", (4, 4))
        c = ArraySpec("C", (4, 4))
        x, y = var("x"), var("y")

        def proc(pid, array):
            frag = ProgramFragment(
                f"f{pid}",
                LoopNest([("x", 0, 4), ("y", 0, 4)]),
                [AffineAccess(array, [x, y])],
            )
            return Process(pid, "T", [frag.whole()])

        # Three mutually disjoint processes: every pairing shares zero.
        matrix = compute_sharing_matrix([proc("p0", a), proc("p1", b), proc("p2", c)])
        partner, value = matrix.best_partner("p0", ["p1", "p2"])
        assert partner == "p1"  # first in candidate order wins ties
        assert value == 0

    def test_duplicate_pids_rejected(self):
        procs = window_processes()
        with pytest.raises(ValidationError):
            compute_sharing_matrix([procs[0], procs[0]])

    def test_render_contains_labels(self):
        matrix = compute_sharing_matrix(window_processes())
        assert "p0" in matrix.render()


class TestConflictMatrix:
    def geometry(self) -> CacheGeometry:
        return CacheGeometry(1024, 2, 32)

    def test_page_aligned_arrays_conflict_heavily(self):
        geometry = self.geometry()
        a = ArraySpec("A", (128,))  # 512 B = one cache page
        b = ArraySpec("B", (128,))
        layout = DataLayout.allocate([a, b], alignment=geometry.cache_page, stagger=0)
        footprints = {
            "A": PointSet.from_flat(range(128)),
            "B": PointSet.from_flat(range(128)),
        }
        matrix = compute_conflict_matrix(footprints, layout, geometry)
        # Both arrays put one line in every set: 16 sets of pairwise collisions.
        assert matrix.conflicts("A", "B") == geometry.num_sets

    def test_staggered_arrays_conflict_less(self):
        geometry = self.geometry()
        a = ArraySpec("A", (8,))  # 32 B: single line
        b = ArraySpec("B", (8,))
        aligned = DataLayout.allocate([a, b], alignment=geometry.cache_page, stagger=0)
        staggered = DataLayout.allocate([a, b], alignment=32, stagger=1)
        footprints = {
            "A": PointSet.from_flat(range(8)),
            "B": PointSet.from_flat(range(8)),
        }
        conflicts_aligned = compute_conflict_matrix(footprints, aligned, geometry)
        conflicts_staggered = compute_conflict_matrix(footprints, staggered, geometry)
        assert conflicts_aligned.conflicts("A", "B") == 1
        assert conflicts_staggered.conflicts("A", "B") == 0

    def test_empty_footprint_contributes_nothing(self):
        geometry = self.geometry()
        a = ArraySpec("A", (8,))
        layout = DataLayout.allocate([a])
        matrix = compute_conflict_matrix(
            {"A": PointSet.empty(1)}, layout, geometry
        )
        assert matrix.conflicts("A", "A") == 0

    def test_mean_pairwise(self):
        matrix = ConflictMatrix(
            ("A", "B", "C"),
            np.array([[0, 4, 2], [4, 0, 0], [2, 0, 0]]),
        )
        assert matrix.mean_pairwise() == pytest.approx((4 + 2 + 0) / 3)

    def test_mean_pairwise_single_array(self):
        assert ConflictMatrix(("A",), np.zeros((1, 1))).mean_pairwise() == 0.0

    def test_pairs_above_sorted_desc(self):
        matrix = ConflictMatrix(
            ("A", "B", "C"),
            np.array([[0, 4, 2], [4, 0, 7], [2, 7, 0]]),
        )
        pairs = matrix.pairs_above(1)
        assert pairs[0] == ("B", "C", 7)
        assert pairs[1] == ("A", "B", 4)

    def test_unknown_array_rejected(self):
        matrix = ConflictMatrix(("A",), np.zeros((1, 1)))
        with pytest.raises(UnknownArrayError):
            matrix.conflicts("A", "Z")

    def test_zero_arrays_rejected(self):
        geometry = self.geometry()
        layout = DataLayout.allocate([ArraySpec("A", (4,))])
        with pytest.raises(ValidationError):
            compute_conflict_matrix({}, layout, geometry)
