"""Cross-run trace-execution memoization.

In static (and dynamic non-preemptive) simulation a process runs its
whole memory trace against whatever cache state its core has accumulated
(see the :mod:`repro.sim.simulator` module docstring).  The scalar model
re-walks the trace per run; this module instead caches a **per-trace
analysis** keyed by::

    (num_sets, associativity, trace fingerprint)

where the fingerprint digests the trace's line/write arrays.  The
analysis (:class:`~repro.cache.fast_engine.TraceAnalysis`) contains the
trace's cold execution plus the metadata needed to *adjust* it to any
warm start in O(num_sets × assoc) — exact, not approximate, thanks to
the LRU stack property (only first touches can flip; see
``docs/PERFORMANCE.md``).  One analysis therefore serves every scheduler,
every core-order prefix, and every campaign cell that executes the same
trace content: the four schedulers of one experiment, neighbouring
cumulative mixes, repeated seeds of deterministic schedulers.  Memoized
results are bit-identical to cold scalar execution.

The memo is in-process (each campaign worker builds its own) and
bounded: when full, the oldest entries are evicted in insertion order.

Where the compiled LRU kernel (:mod:`repro.cache.native`) loads, the
simulator drivers run every trace through it instead, and neither this
memo nor the vectorized engine is consulted; they are the path for
machines without a C compiler.

Environment switches (read at import, overridable via
:func:`set_fast_cache` / :func:`set_trace_memo`):

- ``REPRO_FAST_CACHE=0`` — disable the compiled kernel, the vectorized
  engine *and* the memo; every trace runs through the scalar reference
  cache.
- ``REPRO_TRACE_MEMO=0`` — keep the vectorized engine for long traces
  but disable the analysis memo (useful for benchmarking the engine
  alone; the kernel never uses the memo).
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

from repro.cache.fast_engine import (
    TraceAnalysis,
    analyze_trace,
    simulate_trace,
    warm_adjust,
)

from repro.util.invalidation import register_worker_state

if TYPE_CHECKING:
    from repro.cache.sa_cache import SetAssociativeCache

#: Below this many accesses a cold scalar walk is cheaper than the
#: vectorized kernel's fixed setup cost, so unmemoizable small traces
#: skip the engine.
MIN_VECTORIZED_LEN = 2048

#: Analyses are per trace *content* — a few hundred per experiment grid —
#: so the bound exists only to keep pathological workloads in check.
DEFAULT_MEMO_ENTRIES = 16384

_fast_cache_enabled = os.environ.get("REPRO_FAST_CACHE", "1") != "0"
register_worker_state(
    __name__, "_fast_cache_enabled", note="setter bumps the epoch"
)
_trace_memo_enabled = os.environ.get("REPRO_TRACE_MEMO", "1") != "0"
register_worker_state(
    __name__, "_trace_memo_enabled", note="setter bumps the epoch"
)


def fast_cache_enabled() -> bool:
    """Whether the fast engines (compiled kernel, vectorized engine) are active."""
    return _fast_cache_enabled


def set_fast_cache(enabled: bool) -> bool:
    """Toggle the fast engines; returns the previous setting."""
    global _fast_cache_enabled
    previous = _fast_cache_enabled
    _fast_cache_enabled = bool(enabled)
    if previous != _fast_cache_enabled:
        from repro.util.invalidation import bump_worker_state_epoch

        bump_worker_state_epoch()
    return previous


def trace_memo_enabled() -> bool:
    """Whether cross-run memoization is active."""
    return _trace_memo_enabled


def set_trace_memo(enabled: bool) -> bool:
    """Toggle memoization; returns the previous setting."""
    global _trace_memo_enabled
    previous = _trace_memo_enabled
    _trace_memo_enabled = bool(enabled)
    if previous != _trace_memo_enabled:
        from repro.util.invalidation import bump_worker_state_epoch

        bump_worker_state_epoch()
    return previous


def trace_fingerprint(lines: np.ndarray, writes: np.ndarray | None) -> bytes:
    """A digest of a trace's cache-visible content."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(lines, dtype=np.int64).tobytes())
    if writes is not None:
        digest.update(b"w")
        digest.update(np.ascontiguousarray(writes, dtype=bool).tobytes())
    return digest.digest()


class TraceMemo:
    """Bounded (geometry, trace fingerprint) → :class:`TraceAnalysis` table."""

    def __init__(self, max_entries: int = DEFAULT_MEMO_ENTRIES) -> None:
        self._entries: OrderedDict[tuple, TraceAnalysis] = OrderedDict()
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and zero the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple) -> TraceAnalysis | None:
        """Fetch an entry, counting the hit or miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def peek(self, key: tuple) -> TraceAnalysis | None:
        """Fetch an entry without touching the hit/miss counters.

        For opportunistic probes (the preemptive driver's batching
        heuristic) that must not skew the memo-effectiveness statistics
        the benchmarks track.
        """
        return self._entries.get(key)

    def store(self, key: tuple, entry: TraceAnalysis) -> None:
        """Insert an entry, evicting oldest-first beyond the bound."""
        if len(self._entries) >= self._max_entries:
            for _ in range(max(1, self._max_entries // 16)):
                if not self._entries:
                    break
                self._entries.popitem(last=False)
        self._entries[key] = entry

    def stats(self) -> dict:
        """Counters for benchmarks and diagnostics."""
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
        }


#: The process-wide memo used by the simulator.
TRACE_MEMO = TraceMemo()
register_worker_state(
    __name__, "TRACE_MEMO", note="content-addressed by trace fingerprint"
)


def memoized_analysis(
    lines: np.ndarray,
    writes: np.ndarray | None,
    num_sets: int,
    assoc: int,
    fingerprint: bytes,
    memo: TraceMemo | None = None,
) -> TraceAnalysis:
    """Fetch-or-compute a trace's analysis through every memo layer.

    Lookup order: the in-RAM :class:`TraceMemo`, then the persistent
    cross-process store (:mod:`repro.cache.store`) when one is
    configured, then :func:`analyze_trace`.  Fresh analyses propagate
    back into both layers, so one campaign worker's cold analysis is the
    whole fleet's (and the next invocation's) warm hit.
    """
    from repro.cache.store import active_memo_store

    memo = memo if memo is not None else TRACE_MEMO
    key = (num_sets, assoc, fingerprint)
    analysis = memo.lookup(key)
    if analysis is None:
        store = active_memo_store()
        if store is not None:
            analysis = store.get_analysis(num_sets, assoc, fingerprint)
        if analysis is None:
            analysis = analyze_trace(lines, writes, num_sets, assoc)
            if store is not None:
                store.put_analysis(num_sets, assoc, fingerprint, analysis)
        memo.store(key, analysis)
    return analysis


def execute_trace(
    cache: "SetAssociativeCache",
    lines: np.ndarray,
    writes: np.ndarray | None,
    fingerprint: bytes | None = None,
    memo: TraceMemo | None = None,
) -> tuple[int, int]:
    """Run a whole trace on a live cache through the analysis memo.

    Mutates ``cache`` (state and statistics) exactly like
    :meth:`SetAssociativeCache.run_trace` and returns ``(hits, misses)``.
    ``fingerprint`` keys the memo; pass the cached
    per-:class:`~repro.sim.trace.ProcessTrace` digest to avoid rehashing.
    """
    if not _fast_cache_enabled:
        return cache.run_trace(lines, writes)
    if not _trace_memo_enabled or fingerprint is None:
        if len(lines) < MIN_VECTORIZED_LEN:
            return cache.run_trace(lines, writes)
        run = simulate_trace(
            lines,
            writes,
            cache.geometry.num_sets,
            cache.geometry.associativity,
            cache.export_state(),
        )
        _apply(cache, run.counters(), run.end_state)
        return run.hits, run.misses
    geometry = cache.geometry
    num_sets = geometry.num_sets
    assoc = geometry.associativity
    analysis = memoized_analysis(lines, writes, num_sets, assoc, fingerprint, memo)
    warm_sets, warm_dirty = cache.state_view()
    counters, end_state = warm_adjust(analysis, warm_sets, warm_dirty)
    _apply(cache, counters, end_state)
    return counters[0], counters[1]


def _apply(
    cache: "SetAssociativeCache",
    counters: tuple[int, int, int, int, int],
    end_state,
) -> None:
    """Install a trace execution's effects on the live cache."""
    cache.stats.add(counters)
    cache.load_state(end_state)
