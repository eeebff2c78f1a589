"""Set-associative LRU cache model.

This is the per-core L1 data cache of the simulated MPSoC.  It models tag
state only (no data), with true-LRU replacement and optional dirty-line
tracking for write-back statistics.  Two trace-execution entry points are
provided: :meth:`run_trace` (run to completion, returns hit count — the
non-preemptive schedulers' fast path) and :meth:`run_trace_budget`
(run until a cycle budget is exhausted — the round-robin scheduler's
preemption path).

The cache deliberately has **no** flush-on-context-switch: cache contents
surviving from the previously scheduled process on the same core is
exactly the reuse the paper's scheduler exploits.
"""

from __future__ import annotations

import numpy as np

from repro.cache.fast_engine import CacheState
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.errors import ValidationError


class SetAssociativeCache:
    """A tag-only set-associative LRU cache with hit/miss accounting."""

    def __init__(self, geometry: CacheGeometry) -> None:
        if not isinstance(geometry, CacheGeometry):
            raise ValidationError(f"expected CacheGeometry, got {geometry!r}")
        self._geometry = geometry
        self._num_sets = geometry.num_sets
        self._assoc = geometry.associativity
        # num_sets is a power of two (CacheGeometry validates all three
        # parameters), so set selection is a mask — measurably cheaper
        # than % in the per-access loops.
        self._set_mask = geometry.num_sets - 1
        # One MRU-first list of resident line numbers per set.  After
        # load_state the inner sequences are shared immutable tuples
        # (copy-on-write); _materialize() turns them back into lists
        # before any scalar mutation.
        self._sets: list = [[] for _ in range(self._num_sets)]
        self._sets_shared = False
        self._dirty: set[int] = set()
        self.stats = CacheStats()

    @property
    def geometry(self) -> CacheGeometry:
        """The cache's geometry."""
        return self._geometry

    def reset(self) -> None:
        """Invalidate all lines and zero the statistics."""
        self._sets = [[] for _ in range(self._num_sets)]
        self._sets_shared = False
        self._dirty = set()
        self.stats = CacheStats()

    def flush(self) -> None:
        """Invalidate all lines, keeping the statistics."""
        self._sets = [[] for _ in range(self._num_sets)]
        self._sets_shared = False
        self._dirty = set()

    def _materialize(self) -> None:
        """Turn shared snapshot tuples back into mutable per-set lists."""
        if self._sets_shared:
            self._sets = list(map(list, self._sets))
            self._sets_shared = False

    # -- inspection -----------------------------------------------------------

    def resident_lines(self) -> set[int]:
        """The set of line numbers currently cached."""
        resident: set[int] = set()
        for ways in self._sets:
            resident.update(ways)
        return resident

    def contains_line(self, line: int) -> bool:
        """True if the line is resident (does not touch LRU state)."""
        return line in self._sets[line & self._set_mask]

    def set_occupancy(self, set_index: int) -> int:
        """Number of resident ways in one set."""
        if not 0 <= set_index < self._num_sets:
            raise ValidationError(
                f"set index {set_index} out of range [0, {self._num_sets})"
            )
        return len(self._sets[set_index])

    # -- state snapshots (vectorized engine / memoization interop) -------------

    def export_state(self) -> CacheState:
        """An immutable snapshot of the tag state (statistics excluded)."""
        return CacheState(
            sets=tuple(map(tuple, self._sets)),
            dirty=frozenset(self._dirty),
        )

    def load_state(self, state: CacheState) -> None:
        """Install a snapshot, replacing the tag state (statistics kept).

        The snapshot's per-set tuples are installed as-is (copy-on-write:
        any later scalar mutation materializes lists first), so chained
        engine executions never copy way lists.
        """
        if state.num_sets != self._num_sets:
            raise ValidationError(
                f"state has {state.num_sets} sets, cache has {self._num_sets}"
            )
        self._sets = list(state.sets)
        self._sets_shared = True
        self._dirty = set(state.dirty)

    def state_view(self) -> tuple[list, set[int]]:
        """A zero-copy read-only view of (per-set MRU lists, dirty set).

        For the engine glue in :mod:`repro.cache.memo`, which only reads;
        anyone else should take :meth:`export_state` snapshots.
        """
        return self._sets, self._dirty

    # -- single access ---------------------------------------------------------

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Access a byte address; returns True on hit."""
        return self.access_line(self._geometry.line_of(addr), is_write)

    def access_line(self, line: int, is_write: bool = False) -> bool:
        """Access a line number directly; returns True on hit."""
        if line < 0:
            raise ValidationError(f"negative line number {line}")
        self._materialize()
        ways = self._sets[line & self._set_mask]
        stats = self.stats
        if line in ways:
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            stats.hits += 1
            if is_write:
                stats.write_hits += 1
                self._dirty.add(line)
            return True
        stats.misses += 1
        if is_write:
            stats.write_misses += 1
        ways.insert(0, line)
        if is_write:
            self._dirty.add(line)
        if len(ways) > self._assoc:
            victim = ways.pop()
            if victim in self._dirty:
                self._dirty.discard(victim)
                stats.dirty_evictions += 1
        return False

    # -- trace execution ---------------------------------------------------------

    def run_trace(
        self, lines: np.ndarray, writes: np.ndarray | None = None
    ) -> tuple[int, int]:
        """Run a whole line-number trace; returns ``(hits, misses)``.

        ``writes`` is an optional parallel bool array marking stores.  This
        is the hot path for non-preemptive process execution, so the loop
        body is kept minimal.
        """
        self._materialize()
        sets = self._sets
        set_mask = self._set_mask
        assoc = self._assoc
        dirty = self._dirty
        stats = self.stats
        hits = 0
        misses = 0
        dirty_evictions = 0
        write_hits = 0
        write_misses = 0
        if writes is None:
            for line in np.asarray(lines, dtype=np.int64).tolist():
                ways = sets[line & set_mask]
                if line in ways:
                    hits += 1
                    if ways[0] != line:
                        ways.remove(line)
                        ways.insert(0, line)
                else:
                    misses += 1
                    ways.insert(0, line)
                    if len(ways) > assoc:
                        victim = ways.pop()
                        if victim in dirty:
                            dirty.discard(victim)
                            dirty_evictions += 1
        else:
            line_list = np.asarray(lines, dtype=np.int64).tolist()
            write_list = np.asarray(writes, dtype=bool).tolist()
            for line, is_write in zip(line_list, write_list):
                ways = sets[line & set_mask]
                if line in ways:
                    hits += 1
                    if ways[0] != line:
                        ways.remove(line)
                        ways.insert(0, line)
                    if is_write:
                        write_hits += 1
                        dirty.add(line)
                else:
                    misses += 1
                    if is_write:
                        write_misses += 1
                        dirty.add(line)
                    ways.insert(0, line)
                    if len(ways) > assoc:
                        victim = ways.pop()
                        if victim in dirty:
                            dirty.discard(victim)
                            dirty_evictions += 1
        stats.hits += hits
        stats.misses += misses
        stats.write_hits += write_hits
        stats.write_misses += write_misses
        stats.dirty_evictions += dirty_evictions
        return hits, misses

    def run_trace_budget(
        self,
        lines: np.ndarray,
        writes: np.ndarray | None,
        start: int,
        hit_cost: int,
        miss_cost: int,
        extra_cycles: np.ndarray | None,
        budget: int,
    ) -> tuple[int, int, int, int]:
        """Run from ``start`` until the cycle ``budget`` is exhausted.

        Each access costs ``hit_cost`` or ``miss_cost`` cycles plus the
        per-entry ``extra_cycles`` (the compute charged at iteration
        boundaries).  Execution stops *after* the access whose completion
        meets or exceeds the budget (a quantum never splits an access).

        Returns ``(next_index, cycles_used, hits, misses)``; ``next_index``
        equals ``len(lines)`` when the trace completed.
        """
        if start < 0 or start > len(lines):
            raise ValidationError(f"start index {start} out of range")
        if budget <= 0:
            raise ValidationError(f"budget must be positive, got {budget}")
        self._materialize()
        sets = self._sets
        set_mask = self._set_mask
        assoc = self._assoc
        dirty = self._dirty
        line_list = np.asarray(lines, dtype=np.int64).tolist()
        write_list = (
            None if writes is None else np.asarray(writes, dtype=bool).tolist()
        )
        extra_list = (
            None
            if extra_cycles is None
            else np.asarray(extra_cycles, dtype=np.int64).tolist()
        )
        used = 0
        hits = 0
        misses = 0
        write_hits = 0
        write_misses = 0
        dirty_evictions = 0
        index = start
        end = len(line_list)
        while index < end and used < budget:
            line = line_list[index]
            is_write = write_list[index] if write_list is not None else False
            ways = sets[line & set_mask]
            if line in ways:
                hits += 1
                used += hit_cost
                if ways[0] != line:
                    ways.remove(line)
                    ways.insert(0, line)
                if is_write:
                    write_hits += 1
                    dirty.add(line)
            else:
                misses += 1
                used += miss_cost
                if is_write:
                    write_misses += 1
                    dirty.add(line)
                ways.insert(0, line)
                if len(ways) > assoc:
                    victim = ways.pop()
                    if victim in dirty:
                        dirty.discard(victim)
                        dirty_evictions += 1
            if extra_list is not None:
                used += extra_list[index]
            index += 1
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.write_hits += write_hits
        self.stats.write_misses += write_misses
        self.stats.dirty_evictions += dirty_evictions
        return index, used, hits, misses

    def run_budget_rows(
        self,
        rows: list[tuple[int, int, bool, int]],
        start: int,
        miss_extra: int,
        budget: int,
    ) -> tuple[int, int, int, int]:
        """Budgeted execution over precomputed per-access rows.

        ``rows`` come from :meth:`ProcessTrace.budget_rows`: each entry is
        ``(set_index, line, is_write, base_cost)`` with the hit latency
        and the access's compute cycles folded into ``base_cost``; a miss
        additionally costs ``miss_extra``.  Semantically identical to
        :meth:`run_trace_budget` (same counters, same stop rule) with the
        per-access bookkeeping stripped to one index and one add — this
        is the shared-queue policy's hot loop, entered once per quantum.
        """
        if start < 0 or start > len(rows):
            raise ValidationError(f"start index {start} out of range")
        if budget <= 0:
            raise ValidationError(f"budget must be positive, got {budget}")
        self._materialize()
        sets = self._sets
        assoc = self._assoc
        dirty = self._dirty
        used = 0
        hits = 0
        misses = 0
        write_hits = 0
        write_misses = 0
        dirty_evictions = 0
        index = start
        end = len(rows)
        while index < end and used < budget:
            set_index, line, is_write, base = rows[index]
            index += 1
            ways = sets[set_index]
            if line in ways:
                hits += 1
                used += base
                if ways[0] != line:
                    ways.remove(line)
                    ways.insert(0, line)
                if is_write:
                    write_hits += 1
                    dirty.add(line)
            else:
                misses += 1
                used += base + miss_extra
                if is_write:
                    write_misses += 1
                    dirty.add(line)
                ways.insert(0, line)
                if len(ways) > assoc:
                    victim = ways.pop()
                    if victim in dirty:
                        dirty.discard(victim)
                        dirty_evictions += 1
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.write_hits += write_hits
        stats.write_misses += write_misses
        stats.dirty_evictions += dirty_evictions
        return index, used, hits, misses

    def __repr__(self) -> str:
        return f"SetAssociativeCache({self._geometry!r})"
