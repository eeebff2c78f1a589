"""Cache statistics accumulators."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Hit/miss counters for one cache (or one process's view of it)."""

    hits: int = 0
    misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    dirty_evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses observed."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Misses per access (0.0 for an untouched cache)."""
        total = self.accesses
        return self.misses / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        """Hits per access (0.0 for an untouched cache)."""
        total = self.accesses
        return self.hits / total if total else 0.0

    def add(self, counters: tuple[int, int, int, int, int]) -> None:
        """Accumulate ``(hits, misses, write_hits, write_misses,
        dirty_evictions)`` from one engine call."""
        self.hits += counters[0]
        self.misses += counters[1]
        self.write_hits += counters[2]
        self.write_misses += counters[3]
        self.dirty_evictions += counters[4]

    def merged_with(self, other: "CacheStats") -> "CacheStats":
        """Element-wise sum (for aggregating per-core stats)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            write_hits=self.write_hits + other.write_hits,
            write_misses=self.write_misses + other.write_misses,
            dirty_evictions=self.dirty_evictions + other.dirty_evictions,
        )

    def snapshot(self) -> "CacheStats":
        """An independent copy."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            write_hits=self.write_hits,
            write_misses=self.write_misses,
            dirty_evictions=self.dirty_evictions,
        )

    def delta_since(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since an earlier snapshot."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            write_hits=self.write_hits - earlier.write_hits,
            write_misses=self.write_misses - earlier.write_misses,
            dirty_evictions=self.dirty_evictions - earlier.dirty_evictions,
        )


@dataclass
class ClassifiedMisses:
    """Misses split by cause (see :class:`repro.cache.miss_classifier.MissClassifier`)."""

    compulsory: int = 0
    capacity: int = 0
    conflict: int = 0

    @property
    def total(self) -> int:
        """All classified misses."""
        return self.compulsory + self.capacity + self.conflict

    counts_by_class: dict = field(default_factory=dict, repr=False, compare=False)
