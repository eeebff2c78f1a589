"""SharingMatrix and ConflictMatrix."""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from repro.sharing.matrix import (
    IncrementalSharingMatrix,
    SharingMatrix,
    _intersection_block,
    compute_sharing_matrix,
)
from repro.workloads.suite import build_arrival_stream, build_workload_mix


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


#: Column bases: the origin and values near the int64 limits.
BASES = (0, -(2**62), 2**62 - 512, -(2**63), 2**63 - 512)


def random_columns(rng: np.random.Generator, holders: int, base: int, span: int):
    """Sorted distinct int64 columns: empty, runs of offsets, or scattered."""
    columns = []
    for _ in range(holders):
        kind = rng.integers(3)
        if kind == 0:
            offsets = np.empty(0, dtype=np.int64)
        elif kind == 1:
            starts = rng.integers(0, span, size=rng.integers(1, 4))
            offsets = np.unique(np.concatenate([
                np.arange(start, min(span, start + rng.integers(1, span + 1)))
                for start in starts
            ]))
        else:
            offsets = np.flatnonzero(rng.random(span) < rng.random())
        columns.append(base + offsets.astype(np.int64))
    return columns


def brute_block(columns) -> np.ndarray:
    """``|c_a ∩ c_b|`` pair by pair."""
    block = np.zeros((len(columns), len(columns)), dtype=np.int64)
    for a, first in enumerate(columns):
        for b in range(a, len(columns)):
            shared = len(np.intersect1d(first, columns[b], assume_unique=True))
            block[a, b] = block[b, a] = shared
    return block


class TestIntersectionBlock:
    """The per-array pass against pairwise ``np.intersect1d``."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        holders=st.integers(1, 150),
        base=st.sampled_from(BASES),
        span=st.integers(1, 512),
    )
    def test_matches_pairwise_intersections(self, seed, holders, base, span):
        columns = random_columns(np.random.default_rng(seed), holders, base, span)
        block = _intersection_block(columns)
        assert block.dtype == np.int64
        assert np.array_equal(block, brute_block(columns))

    @pytest.mark.parametrize("holders", [1, 63, 64, 65, 128, 129, 150])
    @pytest.mark.parametrize(
        "base", BASES, ids=["0", "-2**62", "2**62", "-2**63", "2**63"]
    )
    def test_mask_word_boundaries(self, holders, base):
        columns = random_columns(np.random.default_rng(holders), holders, base, 200)
        assert np.array_equal(_intersection_block(columns), brute_block(columns))

    def test_one_holder_and_empty_columns(self):
        empty = np.empty(0, dtype=np.int64)
        column = np.array([-(2**63), 5, 6, 7, 2**63 - 1], dtype=np.int64)
        assert _intersection_block([column]).tolist() == [[5]]
        assert _intersection_block([empty]).tolist() == [[0]]
        assert _intersection_block([empty, column, empty]).tolist() == [
            [0, 0, 0], [0, 5, 0], [0, 0, 0]
        ]

    def test_full_int64_span(self):
        low, high = -(2**63), 2**63 - 1
        columns = [
            np.array([low, low + 1, 0, high], dtype=np.int64),
            np.array([low + 1, high - 1, high], dtype=np.int64),
        ]
        assert _intersection_block(columns).tolist() == [[4, 2], [2, 3]]


#: Workloads whose matrices the process-level oracle checks.
ORACLE_WORKLOADS = [
    *((f"mix:{count}", count, 0.25, 0) for count in range(1, 7)),
    ("stream:4", 4, 0.25, 3),  # 74 holders of one array
    ("stream:8", 8, 0.5, 1),  # 111 holders of one array
]


@functools.lru_cache(maxsize=None)
def oracle_case(workload: str, count: int, scale: float, seed: int):
    """The processes and their pairwise reference matrix."""
    if workload.startswith("mix"):
        epg = build_workload_mix(count, scale=scale)
    else:
        epg = build_arrival_stream(count, scale=scale, seed=seed)
    processes = epg.processes()
    reference = np.zeros((len(processes), len(processes)), dtype=np.int64)
    for i, process in enumerate(processes):
        reference[i, i] = process.footprint_bytes()
        for j in range(i + 1, len(processes)):
            shared = process.shared_bytes_with(processes[j])
            reference[i, j] = reference[j, i] = shared
    return processes, reference


@pytest.mark.parametrize(
    "case", ORACLE_WORKLOADS, ids=[case[0] for case in ORACLE_WORKLOADS]
)
class TestBuilderAgainstPairwiseReference:
    def test_compute_sharing_matrix(self, case):
        processes, reference = oracle_case(*case)
        matrix = compute_sharing_matrix(processes)
        assert matrix.pids == tuple(p.pid for p in processes)
        assert np.array_equal(matrix.matrix, reference)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_admit_in_random_batches_and_orders(self, case, seed):
        processes, reference = oracle_case(*case)
        rng = random.Random(seed)
        order = list(range(len(processes)))
        rng.shuffle(order)
        sharing = IncrementalSharingMatrix()
        while order:
            size = rng.randint(1, 40)
            sharing.admit([processes[k] for k in order[:size]])
            order = order[size:]
        rows = [sharing.pids.index(p.pid) for p in processes]
        snapshot = sharing.snapshot().matrix
        assert np.array_equal(snapshot[np.ix_(rows, rows)], reference)


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
