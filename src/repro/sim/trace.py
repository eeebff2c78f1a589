"""Deterministic memory-trace generation.

A process's trace is the exact sequence of cache-line references its
affine accesses produce: iterations in lexicographic order, accesses in
program order within each iteration, addresses resolved through the plan's
layout (base or remapped), lines through the cache geometry.  Non-memory
work is charged as ``extra_cycles`` on the first access of each iteration.

Because a trace is a pure function of ``(process, layout, geometry)``,
:func:`build_trace` memoizes its result on the process object keyed by
the layout's content fingerprint and the geometry: the schedulers of one
comparison (and campaign cells sharing memoized workloads) rebuild each
process trace zero times instead of once per scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.memo import trace_fingerprint
from repro.cache.native import KernelTrace
from repro.errors import ValidationError
from repro.procgraph.process import Process
from repro.util.memo import BoundedDict


@dataclass(frozen=True)
class ProcessTrace:
    """One process's complete reference stream."""

    pid: str
    lines: np.ndarray  # int64 cache-line numbers, one per access
    writes: np.ndarray  # bool, parallel to lines
    extra_cycles: np.ndarray  # int64 compute cycles charged with each access

    def __post_init__(self) -> None:
        if not (len(self.lines) == len(self.writes) == len(self.extra_cycles)):
            raise ValidationError(
                f"trace arrays for {self.pid!r} have mismatched lengths"
            )

    @property
    def num_accesses(self) -> int:
        """Total memory accesses in the trace."""
        return len(self.lines)

    @property
    def total_compute_cycles(self) -> int:
        """Total non-memory cycles charged across the trace."""
        return int(self.extra_cycles.sum())

    def cost_cycles(self, hits: int, misses: int, hit_cost: int, miss_cost: int) -> int:
        """Total cycles for a given hit/miss split of this trace."""
        if hits + misses != self.num_accesses:
            raise ValidationError(
                f"hits+misses={hits + misses} != accesses={self.num_accesses}"
            )
        return hits * hit_cost + misses * miss_cost + self.total_compute_cycles

    def fingerprint(self) -> bytes:
        """Digest of the cache-visible content (lines + writes), cached.

        This keys the cross-run execution memo
        (:mod:`repro.cache.memo`); traces with equal fingerprints behave
        identically on any cache state.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            cached = trace_fingerprint(self.lines, self.writes)
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def budget_rows(
        self, set_mask: int, hit_cost: int
    ) -> list[tuple[int, int, bool, int]]:
        """Per-access ``(set, line, is_write, base_cost)`` rows, cached.

        ``base_cost`` folds the hit latency into the per-access compute
        cycles, so the budgeted loop
        (:meth:`SetAssociativeCache.run_budget_rows`) does one list
        index and one add per access instead of three indexes and a
        modulo.  Keyed by ``(set_mask, hit_cost)`` — the only machine
        parameters baked into the rows.
        """
        caches = getattr(self, "_budget_rows", None)
        if caches is None:
            caches = BoundedDict(4)
            object.__setattr__(self, "_budget_rows", caches)
        key = (set_mask, hit_cost)
        rows = caches.get(key)
        if rows is None:
            rows = list(
                zip(
                    (self.lines & set_mask).tolist(),
                    self.lines.tolist(),
                    self.writes.tolist(),
                    (self.extra_cycles + hit_cost).tolist(),
                )
            )
            caches.put(key, rows)
        return rows

    def kernel_trace(self, hit_cost: int) -> KernelTrace:
        """The trace in the compiled kernel's layout, cached per hit cost.

        Its ``base`` costs fold the hit latency into the per-access
        compute cycles, as :meth:`budget_rows` does; whole-trace runs
        read only ``lines`` and ``writes``.
        """
        caches = getattr(self, "_kernel_traces", None)
        if caches is None:
            caches = BoundedDict(4)
            object.__setattr__(self, "_kernel_traces", caches)
        kernel_trace = caches.get(hit_cost)
        if kernel_trace is None:
            kernel_trace = KernelTrace(
                self.lines, self.writes, self.extra_cycles + hit_cost
            )
            caches.put(hit_cost, kernel_trace)
        return kernel_trace


def build_trace(process: Process, layout, geometry: CacheGeometry) -> ProcessTrace:
    """Generate the trace of one process under a concrete layout.

    ``layout`` is duck-typed: any object with ``addrs(name, flat_indices)``
    (:class:`~repro.memory.layout.DataLayout` or
    :class:`~repro.memory.remap.RemappedLayout`).  Layouts that also
    expose a content ``fingerprint()`` get the per-process memo: the
    built trace is cached on the process and reused whenever the same
    process is traced under a content-identical layout and geometry.
    """
    layout_fp = getattr(layout, "fingerprint_for", None)
    memo_key = None
    if layout_fp is not None:
        # Scope the fingerprint to the arrays this process touches, so a
        # process keeps its trace under any layout that places those
        # arrays alike.  Growing a mix does move arrays: default_layout
        # packs the sub-page ones after every page-aligned one, so each
        # added task shifts them and their processes' traces are rebuilt.
        memo_key = (layout_fp(tuple(process.arrays)), geometry)
        cached = process.trace_cache_get(memo_key)
        if cached is not None:
            return cached
    trace = _build_trace_uncached(process, layout, geometry)
    if memo_key is not None:
        process.trace_cache_put(memo_key, trace)
    return trace


def _build_trace_uncached(
    process: Process, layout, geometry: CacheGeometry
) -> ProcessTrace:
    line_chunks: list[np.ndarray] = []
    write_chunks: list[np.ndarray] = []
    extra_chunks: list[np.ndarray] = []
    for piece in process.pieces:
        columns = piece.access_columns()
        num_iterations = piece.trip_count
        num_accesses = len(columns)
        if num_iterations == 0 or num_accesses == 0:
            continue
        line_matrix = np.empty((num_iterations, num_accesses), dtype=np.int64)
        write_matrix = np.empty((num_iterations, num_accesses), dtype=bool)
        for j, (array, flat_offsets, is_write) in enumerate(columns):
            addrs = layout.addrs(array.name, flat_offsets)
            line_matrix[:, j] = geometry.lines_of(addrs)
            write_matrix[:, j] = is_write
        extra_matrix = np.zeros((num_iterations, num_accesses), dtype=np.int64)
        extra_matrix[:, 0] = piece.compute_cycles_per_iteration
        line_chunks.append(line_matrix.reshape(-1))
        write_chunks.append(write_matrix.reshape(-1))
        extra_chunks.append(extra_matrix.reshape(-1))
    if not line_chunks:
        empty_i64 = np.empty(0, dtype=np.int64)
        return ProcessTrace(
            pid=process.pid,
            lines=empty_i64,
            writes=np.empty(0, dtype=bool),
            extra_cycles=empty_i64.copy(),
        )
    return ProcessTrace(
        pid=process.pid,
        lines=np.concatenate(line_chunks),
        writes=np.concatenate(write_chunks),
        extra_cycles=np.concatenate(extra_chunks),
    )
