"""Cache substrate: geometry, set-associative LRU model, miss classification.

The MPSoC in the paper gives each core a private L1 data cache (Table 2:
8 KB, 2-way).  This package provides:

- :class:`CacheGeometry` — size/associativity/line arithmetic, including
  the paper's *cache page* (``size / associativity``);
- :class:`SetAssociativeCache` — a cycle-cost-free LRU cache model with
  hit/miss statistics, used per-core by the simulator;
- :class:`MissClassifier` — compulsory/capacity/conflict classification
  via an infinite-tag set and a fully-associative shadow cache;
- :mod:`repro.cache.native` — the compiled LRU kernel, built with the
  system C compiler on first use and loaded with ctypes; the simulator's
  fast path wherever it loads, bit-identical to the scalar model;
- :func:`simulate_trace` / :class:`CacheState` — the vectorized
  reuse-distance engine that executes whole traces with NumPy passes,
  bit-identical to the scalar model (see ``docs/PERFORMANCE.md``);
- :class:`TraceMemo` / :func:`execute_trace` — cross-run memoization of
  whole-trace executions keyed by exact cache state and trace content.
"""

from repro.cache.fast_engine import CacheState, TraceRun, simulate_trace
from repro.cache.geometry import CacheGeometry
from repro.cache.memo import (
    TRACE_MEMO,
    TraceMemo,
    execute_trace,
    fast_cache_enabled,
    set_fast_cache,
    set_trace_memo,
    trace_memo_enabled,
)
from repro.cache.sa_cache import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.cache.miss_classifier import MissClass, MissClassifier

__all__ = [
    "CacheGeometry",
    "CacheState",
    "CacheStats",
    "MissClass",
    "MissClassifier",
    "SetAssociativeCache",
    "TRACE_MEMO",
    "TraceMemo",
    "TraceRun",
    "execute_trace",
    "fast_cache_enabled",
    "set_fast_cache",
    "set_trace_memo",
    "simulate_trace",
    "trace_memo_enabled",
]
