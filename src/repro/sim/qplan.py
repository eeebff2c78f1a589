"""Quantum-plan compilation: batched execution of preemptive time slices.

The shared-queue (RRS) driver executes each process in quantum-sized
segments, interleaved per core with segments of other processes.  The
scalar path walks every access of every segment through a Python loop
(:meth:`SetAssociativeCache.run_budget_rows`).  This module compiles,
once per ``(trace, cache geometry, hit cost)``, everything that loop
needed to discover access by access — so a quantum executes as a handful
of NumPy slice operations plus a short Python loop whose trip count is
the segment's *warm-resident first touches* (typically a dozen), not its
accesses (hundreds to thousands).

Why per-access verdicts are compilable
--------------------------------------
Under true LRU, an access to line ``L`` hits iff fewer than ``assoc``
distinct same-set lines were touched since the previous access to ``L``
**on the same cache**.  Split a segment ``[i, n)`` of a trace running on
some core's cache into:

- **interior accesses** — the previous access to the same line falls
  inside the segment (``prev[j] >= i``).  Their whole reuse window ran
  contiguously on this cache and contains only trace accesses, so the
  verdict is a pure function of trace content: it equals the *cold run's*
  verdict at ``j``, which the memoized
  :class:`~repro.cache.fast_engine.TraceAnalysis` already computed (and
  now retains, packed, one bit per access).
- **boundary accesses** — the segment's first touch of a line.  Only
  these can see the warm state.  The line's verdict is a warm stack-depth
  query: if it is resident at depth ``d`` at segment start, it still hits
  iff ``d + f - a < assoc`` where ``f`` counts the set's earlier
  first-touches in this segment and ``a`` those of them that were warm
  lines *above* it (touching a line already above cannot deepen it; a
  line below or absent pushes it down by one).  Depth only grows until
  the touch, so "never reached ``assoc``" is exactly "still resident" —
  the same argument :func:`repro.cache.fast_engine.warm_adjust` uses for
  whole traces.

The stop index and counters follow from prefix sums (the budget rule is
unchanged: execution halts after the access whose completion meets or
exceeds the budget).  The end state and dirty-eviction accounting work
per *residency generation* without any grouping pass, because inside a
segment every non-first touch has a precompiled verdict: the access that
closes access ``j``'s generation is the precompiled ``next_coldmiss[j]``
(see :func:`compile_quantum_plan`), and a line's last in-segment touch is
the access whose ``nxt`` link leaves the segment.

Two state backends implement the per-core cache state:

- **way tables** (associativity 1 and 2 — the paper's machine and every
  bundled preset): per-set MRU/LRU line and dirty-flag NumPy arrays, so
  warm-residency detection, the MRU merge, and dirty-eviction counting
  all vectorize across the segment's touched sets;
- **per-set lists** (associativity ≥ 3): the scalar cache's own MRU
  lists and dirty set, updated with a per-touched-set Python merge.

When the compiled LRU kernel (:mod:`repro.cache.native`) loads, none of
this compilation runs: the driver holds each core's tags in a
:class:`~repro.cache.native.KernelState` and :func:`run_plan_quantum`
executes every quantum in one kernel call over the trace reduced to
contiguous ``lines``/``writes``/``base`` arrays
(:class:`~repro.cache.native.KernelTrace`).  The compiled plans above
are the path for machines without a C compiler.

Results are bit-identical to the scalar walk; the kernel-vs-scalar
equivalence suite (``tests/test_quantum_batch.py``) enforces this over
hundreds of seeded closed and open runs, with and without the kernel.
This module never reads the engine switch (``REPRO_FAST_CACHE``, see
:mod:`repro.cache.memo`): the simulator decides per run, and per core,
whether quanta reach :func:`run_plan_quantum` at all.
"""

from __future__ import annotations

from typing import Sequence
from dataclasses import dataclass

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.memo import TraceMemo, memoized_analysis, set_fast_cache
from repro.cache.native import KernelState, KernelTrace
from repro.cache.sa_cache import SetAssociativeCache
from repro.errors import ValidationError
from repro.sim.trace import ProcessTrace
from repro.util.faults import fault_point
from repro.util.memo import BoundedDict

#: Minimum expected *executed* accesses per quantum for the batched path
#: to beat the scalar loop (measured crossover ≈ 1200 on the Table-2
#: machine: its default 8k-cycle quantum runs ≈ 830 accesses and stays
#: scalar, a 16k quantum runs ≈ 1700 and batches).  The driver compares
#: ``budget / (mean base cost + miss_extra × estimated miss rate)``
#: per core against this.
MIN_BATCH_WINDOW = 1280

#: Miss-rate assumption for sizing quanta when no memoized analysis is
#: available to measure it (the Table-2 concurrent mixes run ≈ 10%).
DEFAULT_COLD_MISS_RATE = 0.10


def estimate_quantum_accesses(
    traces: Sequence[ProcessTrace],
    num_sets: int,
    assoc: int,
    hit_cost: int,
    miss_extra: int,
    budget: int,
) -> float:
    """Expected executed accesses per quantum on one core.

    Uses the cold miss rates of already-memoized trace analyses when
    available (a campaign's non-preemptive cells usually analyzed the
    same traces first) and :data:`DEFAULT_COLD_MISS_RATE` otherwise —
    a heuristic for the batch/scalar choice, never for simulation
    results.
    """
    from repro.cache.memo import TRACE_MEMO

    total_accesses = 0
    total_compute = 0
    sampled_accesses = 0
    sampled_misses = 0
    for trace in traces:
        n = trace.num_accesses
        if not n:
            continue
        total_accesses += n
        total_compute += trace.total_compute_cycles
        analysis = TRACE_MEMO.peek((num_sets, assoc, trace.fingerprint()))
        if analysis is not None:
            sampled_accesses += n
            sampled_misses += analysis.cold.misses
    if not total_accesses:
        return 0.0
    rate = (
        sampled_misses / sampled_accesses
        if sampled_accesses
        else DEFAULT_COLD_MISS_RATE
    )
    expected = hit_cost + total_compute / total_accesses + miss_extra * rate
    return budget / expected


#: The benchmark's scalar oracle still switches engines through this
#: name; it is :func:`repro.cache.memo.set_fast_cache` itself.
set_quantum_batch = set_fast_cache


@dataclass
class QuantumPlan:
    """Precompiled per-quantum segment arrays for one (trace, geometry).

    Everything here is a pure function of the trace content and the
    machine constants baked into the key, computed once and reused by
    every quantum, every scheduler, and every campaign cell that
    executes the same trace on the same geometry.
    """

    num_accesses: int
    assoc: int
    set_mask: int
    lines: np.ndarray  # int64, the trace's cache-line stream
    sets: np.ndarray  # int64, per-access set index
    writes: np.ndarray  # bool
    base: np.ndarray  # int64 per-access cost floor: extra_cycles + hit_cost
    cum_base: np.ndarray  # int64[n + 1] prefix sums of ``base``
    prev: np.ndarray  # int64 previous same-line access index, -1 if none
    nxt: np.ndarray  # int64 next same-line access index, n if none
    #: next access of the same line whose *state-independent* verdict is
    #: a miss, strictly after this one (n if none).  Inside a segment,
    #: every non-first touch of a line has exactly that verdict, so this
    #: is "the access that closes this access's residency generation" —
    #: the key to segment dirty accounting without grouping passes.
    next_coldmiss: np.ndarray
    interior_hit: np.ndarray  # bool, the cold-run verdict per access
    #: mean base cycles per access and the cold run's miss rate; their
    #: combination (mean base + miss_extra × miss rate) sizes the
    #: per-quantum work window close to the real stop index instead of
    #: the loose all-hit bound.
    mean_base: float
    cold_miss_rate: float
    #: plain-int views for the list-backend loops, built on first use —
    #: way-table (assoc ≤ 2) runs never need them.
    lines_list: list[int] | None = None
    sets_list: list[int] | None = None

    def ensure_lists(self) -> None:
        """Materialize the Python-int views the list backend walks."""
        if self.lines_list is None:
            self.lines_list = self.lines.tolist()
            self.sets_list = self.sets.tolist()


class WayTable:
    """Vectorized per-core cache state for associativity 1 and 2.

    ``w0``/``w1`` hold each set's MRU and LRU resident line (-1 when
    empty; ways fill from 0), ``d0``/``d1`` the matching dirty flags.
    Authoritative for the whole shared-queue run of its core: the
    scalar cache object underneath only accumulates statistics.
    """

    __slots__ = ("assoc", "w0", "w1", "d0", "d1")

    def __init__(self, num_sets: int, assoc: int) -> None:
        if assoc not in (1, 2):
            raise ValidationError(
                f"way tables support associativity 1 and 2, got {assoc}"
            )
        self.assoc = assoc
        self.w0 = np.full(num_sets, -1, dtype=np.int64)
        self.d0 = np.zeros(num_sets, dtype=bool)
        if assoc == 2:
            self.w1 = np.full(num_sets, -1, dtype=np.int64)
            self.d1 = np.zeros(num_sets, dtype=bool)
        else:
            self.w1 = None
            self.d1 = None


def make_way_table(geometry: CacheGeometry) -> WayTable | None:
    """A :class:`WayTable` for the geometry, or None when assoc ≥ 3."""
    if geometry.associativity > 2:
        return None
    return WayTable(geometry.num_sets, geometry.associativity)


def compile_quantum_plan(
    trace: ProcessTrace,
    num_sets: int,
    assoc: int,
    hit_cost: int,
    memo: TraceMemo | None = None,
) -> QuantumPlan:
    """Compile (and cache on the trace) the plan for one geometry.

    The cold hit mask comes from the memoized trace analysis, so plan
    compilation shares work with the non-preemptive policies and the
    persistent memo store; the only plan-specific passes are one stable
    argsort for the occurrence links and one segmented suffix scan for
    the generation-closing positions.
    """
    caches = getattr(trace, "_quantum_plans", None)
    if caches is None:
        caches = BoundedDict(4)
        object.__setattr__(trace, "_quantum_plans", caches)
    key = (num_sets, assoc, hit_cost)
    plan = caches.get(key)
    if plan is not None:
        return plan
    lines = trace.lines
    n = len(lines)
    analysis = memoized_analysis(
        lines, trace.writes, num_sets, assoc, trace.fingerprint(), memo
    )
    interior_hit = analysis.cold_hit_mask()
    prev = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, n, dtype=np.int64)
    next_coldmiss = np.full(n, n, dtype=np.int64)
    if n:
        order = np.argsort(lines, kind="stable")
        same = lines[order[1:]] == lines[order[:-1]]
        prev[order[1:][same]] = order[:-1][same]
        nxt[order[:-1][same]] = order[1:][same]
        # Next cold-miss in each line's occurrence chain, strictly after
        # every access: a suffix minimum per line block in grouped order,
        # kept block-local by offsetting with the block id.
        miss_val = np.where(interior_hit[order], n, order)
        block_id = np.empty(n, dtype=np.int64)
        block_id[0] = 0
        np.cumsum(~same, out=block_id[1:])
        big = np.int64(n + 1)
        keyed = miss_val + block_id * big
        suffix = np.minimum.accumulate(keyed[::-1])[::-1]
        excl = np.empty(n, dtype=np.int64)
        excl[:-1] = suffix[1:]
        excl[-1] = block_id[-1] * big + n
        next_coldmiss[order] = np.minimum(excl - block_id * big, n)
    base = trace.extra_cycles + hit_cost
    cum_base = np.empty(n + 1, dtype=np.int64)
    cum_base[0] = 0
    np.cumsum(base, out=cum_base[1:])
    set_mask = num_sets - 1
    sets_arr = lines & set_mask
    plan = QuantumPlan(
        num_accesses=n,
        assoc=assoc,
        set_mask=set_mask,
        lines=lines,
        sets=sets_arr,
        writes=trace.writes,
        base=base,
        cum_base=cum_base,
        prev=prev,
        nxt=nxt,
        next_coldmiss=next_coldmiss,
        interior_hit=interior_hit,
        mean_base=(cum_base[n] / n) if n else 1.0,
        cold_miss_rate=(analysis.cold.misses / n) if n else 0.0,
    )
    caches.put(key, plan)
    return plan


def run_plan_quantum(
    cache: SetAssociativeCache,
    plan: QuantumPlan | KernelTrace,
    start: int,
    miss_extra: int,
    budget: int,
    table: WayTable | KernelState | None = None,
) -> tuple[int, int, int, int]:
    """Execute one quantum through the compiled plan.

    Drop-in for :meth:`SetAssociativeCache.run_budget_rows`: same
    ``(next_index, cycles_used, hits, misses)`` result, same stop rule,
    same statistics — bit for bit.  A :class:`KernelTrace` plan (the
    trace reduced to contiguous ``lines``/``writes``/``base`` arrays)
    runs in one compiled-kernel call on the core's :class:`KernelState`.
    A :class:`QuantumPlan` runs vectorized: with ``table``
    (associativity ≤ 2) the core's tag state lives in the table, without
    it the scalar cache's per-set lists and dirty set are read and
    rewritten in place.  Either way the scalar ``cache`` accumulates the
    statistics.
    """
    fault_point("qplan", "run")
    n = plan.num_accesses
    if start < 0 or start > n:
        raise ValidationError(f"start index {start} out of range")
    if budget <= 0:
        raise ValidationError(f"budget must be positive, got {budget}")
    if start >= n:
        return start, 0, 0, 0
    if isinstance(plan, KernelTrace) and isinstance(table, KernelState):
        end, used, counters = table.run_budget(plan, start, miss_extra, budget)
        cache.stats.add(counters)
        return end, used, counters[0], counters[1]
    if isinstance(plan, KernelTrace) or isinstance(table, KernelState):
        raise ValidationError(
            "a kernel plan runs only on kernel state, and kernel state "
            "only runs kernel plans"
        )
    i = start
    # Hard window bound: were every access a hit, the budget would be
    # spent after ``j0_full - i`` accesses; misses only add cost, so the
    # true stop index can never exceed it.  Start from the much tighter
    # expected-cost estimate and extend in the rare quanta that hit
    # fewer misses than the trace's cold rate suggests.
    cum_base = plan.cum_base
    j0_full = int(np.searchsorted(cum_base, cum_base[i] + budget, side="left"))
    j0_full = min(j0_full, n)
    expected = plan.mean_base + miss_extra * plan.cold_miss_rate
    j0 = min(j0_full, i + int(budget * 1.25 / expected) + 64)
    while True:
        verdict = plan.interior_hit[i:j0].copy()
        brel = np.flatnonzero(plan.prev[i:j0] < i)
        # The cold mask is only valid for in-segment reuse; a
        # segment-first touch defaults to miss until its warm-state
        # query flips it.
        verdict[brel] = False
        if table is not None:
            warm_touches = _resolve_boundary_table(plan, i, brel, verdict, table)
        else:
            warm_touches = _resolve_boundary_list(plan, i, brel, verdict, cache)
        # Stop index: cumulative cost with the miss surcharge folded in.
        cost = plan.base[i:j0] + np.where(verdict, 0, miss_extra)
        cum = np.cumsum(cost)
        k = int(np.searchsorted(cum, budget, side="left"))
        if k < j0 - i or j0 >= j0_full:
            break
        j0 = min(j0_full, i + 2 * (j0 - i))
    n_rel = min(k + 1, j0 - i)
    used = int(cum[n_rel - 1])
    end = i + n_rel

    v = verdict[:n_rel]
    hits = int(np.count_nonzero(v))
    misses = n_rel - hits
    w = plan.writes[i:end]
    write_hits = int(np.count_nonzero(v & w))
    write_misses = int(np.count_nonzero(w)) - write_hits

    num_writes = write_hits + write_misses
    if table is not None:
        dirty_evictions = _close_segment_table(
            plan, i, n_rel, w, num_writes, warm_touches, table
        )
    else:
        live_sets, live_dirty = cache.state_view()
        dirty_evictions = _close_segment_list(
            plan, i, n_rel, w, num_writes, warm_touches, live_sets, live_dirty
        )

    stats = cache.stats
    stats.hits += hits
    stats.misses += misses
    stats.write_hits += write_hits
    stats.write_misses += write_misses
    stats.dirty_evictions += dirty_evictions
    return end, used, hits, misses


# -- boundary resolution (segment-first touches) ----------------------------------


def _resolve_boundary_table(
    plan: QuantumPlan,
    i: int,
    brel: np.ndarray,
    verdict: np.ndarray,
    table: WayTable,
) -> list[tuple[int, int, int, int, bool]]:
    """Warm stack-depth queries against the way tables (assoc ≤ 2).

    Residency detection is one vectorized compare per way; only the
    (few) boundary accesses that actually touch a warm-resident line run
    Python.  Returns ``(rel_idx, line, set, way_slot, hit)`` per warm
    touch, in stream order.
    """
    if not len(brel):
        return []
    babs = brel + i
    lines_b = plan.lines[babs]
    sets_b = lines_b & plan.set_mask
    warm0 = lines_b == table.w0[sets_b]
    if table.assoc == 2:
        warm = warm0 | (lines_b == table.w1[sets_b])
    else:
        warm = warm0
    widx = np.flatnonzero(warm)
    if not len(widx):
        return []
    # Rank of each boundary access among its set's boundary accesses —
    # the "first touches so far" count its depth query needs.
    order_b = np.argsort(sets_b, kind="stable")
    ssb = sets_b[order_b]
    nb = len(ssb)
    firstb = np.empty(nb, dtype=bool)
    firstb[0] = True
    firstb[1:] = ssb[1:] != ssb[:-1]
    idxs = np.arange(nb, dtype=np.int64)
    gstart = idxs[firstb][np.cumsum(firstb) - 1]
    ranks = np.empty(nb, dtype=np.int64)
    ranks[order_b] = idxs - gstart
    slot_b = np.where(warm0, 0, 1)

    assoc = plan.assoc
    warm_touches: list[tuple[int, int, int, int, bool]] = []
    per_set_depths: dict[int, list[int]] = {}
    for t in widx.tolist():
        s = int(sets_b[t])
        slot = int(slot_b[t])
        lst = per_set_depths.get(s)
        above = 0
        if lst:
            for depth in lst:
                if depth < slot:
                    above += 1
            lst.append(slot)
        else:
            per_set_depths[s] = [slot]
        hit = slot + int(ranks[t]) - above < assoc
        b = int(brel[t])
        if hit:
            verdict[b] = True
        warm_touches.append((b, int(lines_b[t]), s, slot, hit))
    return warm_touches


def _resolve_boundary_list(
    plan: QuantumPlan,
    i: int,
    brel: np.ndarray,
    verdict: np.ndarray,
    cache: SetAssociativeCache,
) -> list[tuple[int, int, bool]]:
    """Warm stack-depth queries against the scalar cache's MRU lists.

    The general-associativity backend: walks every boundary access,
    maintaining per-set first-touch counts.  Returns ``(rel_idx, line,
    hit)`` per warm-resident touch, in stream order.
    """
    plan.ensure_lists()
    live_sets, _ = cache.state_view()
    lines_list = plan.lines_list
    sets_list = plan.sets_list
    assoc = plan.assoc
    ft_count: dict[int, int] = {}
    ft_warm: dict[int, list[int]] = {}
    warm_touches: list[tuple[int, int, bool]] = []
    ft_get = ft_count.get
    for b in brel.tolist():
        j = i + b
        line = lines_list[j]
        s = sets_list[j]
        ftc = ft_get(s, 0)
        ft_count[s] = ftc + 1
        ways = live_sets[s]
        if line not in ways:  # not warm-resident: a certain miss
            continue
        d0 = ways.index(line)
        touched = ft_warm.get(s)
        ft_above = 0
        if touched:
            for depth in touched:
                if depth < d0:
                    ft_above += 1
            touched.append(d0)
        else:
            ft_warm[s] = [d0]
        hit = d0 + ftc - ft_above < assoc
        if hit:
            verdict[b] = True
        warm_touches.append((b, line, hit))
    return warm_touches


# -- segment close (end state + dirty accounting) ---------------------------------


_EMPTY_I64 = np.empty(0, dtype=np.int64)


def _generation_dirt(
    plan: QuantumPlan, i: int, end: int, w: np.ndarray, num_writes: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """Write-generation accounting for the executed segment.

    A generation is identified by its closing miss position (all its
    writes share ``next_coldmiss``), so closed generations containing a
    write — dirty evictions, whatever the warm state — are counted as
    distinct closing positions.  Returns ``(count, lines whose final
    generation saw a write, closing positions already counted)``.
    """
    if not num_writes:
        return 0, _EMPTY_I64, _EMPTY_I64
    closing = plan.next_coldmiss[i:end]
    in_final = closing >= end
    fwm = w & in_final
    fw_lines = (
        np.unique(plan.lines[i:end][fwm]) if fwm.any() else _EMPTY_I64
    )
    cw = w != fwm  # a write is either in its line's final generation or not
    cpos = np.unique(closing[cw]) if cw.any() else _EMPTY_I64
    return len(cpos), fw_lines, cpos


def _close_segment_table(
    plan: QuantumPlan,
    i: int,
    n_rel: int,
    w: np.ndarray,
    num_writes: int,
    warm_touches: list[tuple[int, int, int, int, bool]],
    table: WayTable,
) -> int:
    """Vectorized end-state merge for the way-table backend (assoc ≤ 2).

    Distinct touched lines (the accesses whose ``nxt`` leaves the
    segment) merge into the tables set-parallel: the segment's most
    recent line becomes each touched set's MRU, the second way keeps the
    most recent survivor, and anything displaced is checked against the
    dirty flags in bulk.
    """
    end = i + n_rel
    dirty_evictions, fw_lines, cpos = _generation_dirt(
        plan, i, end, w, num_writes
    )

    # Warm-residency interactions (only dirty warm lines matter).
    keep_warm: set[int] = set()
    if warm_touches:
        closing = plan.next_coldmiss
        d0 = table.d0
        d1 = table.d1
        closed_set: set[int] | None = None
        for b, line, s, slot, hit in warm_touches:
            if b >= n_rel:
                break
            if not (d0[s] if slot == 0 else d1[s]):
                continue
            if not hit:
                # Evicted before its first touch — the warm residency
                # closed inside this segment.
                dirty_evictions += 1
            elif closing[i + b] >= end:
                # The warm residency runs to the segment end unevicted:
                # warm dirt persists on the line.
                keep_warm.add(line)
            else:
                # Hit-started generation: dirty-evicted with its close,
                # unless a write of its own was already counted.
                if closed_set is None:
                    closed_set = set(cpos.tolist())
                if int(closing[i + b]) not in closed_set:
                    dirty_evictions += 1

    # Distinct touched lines: each line's last touch is the access whose
    # next occurrence leaves the segment.  Reversing gives recency-desc;
    # a stable sort by set then groups while preserving that order.
    jrel = np.flatnonzero(plan.nxt[i:end] >= end)
    jabs = jrel + i
    lu = plan.lines[jabs][::-1]
    su = lu & plan.set_mask
    if keep_warm:
        dirty_lines = np.concatenate(
            [fw_lines, np.fromiter(keep_warm, dtype=np.int64, count=len(keep_warm))]
        )
        du = np.isin(lu, dirty_lines)
    elif len(fw_lines):
        du = np.isin(lu, fw_lines)
    else:
        du = np.zeros(len(lu), dtype=bool)
    order = np.argsort(su, kind="stable")
    sg = su[order]
    lg = lu[order]
    dg = du[order]
    m = len(sg)
    first = np.empty(m, dtype=bool)
    first[0] = True
    first[1:] = sg[1:] != sg[:-1]
    fidx = np.flatnonzero(first)
    tsets = sg[fidx]
    t0 = lg[fidx]
    dn0 = dg[fidx]
    o0 = table.w0[tsets]
    od0 = table.d0[tsets]
    if table.assoc == 2:
        if m > len(fidx):
            # Touched lines ranked ≥ 2 by recency: their final
            # generations were pushed out inside the segment.
            gstart = fidx[np.cumsum(first) - 1]
            rank = np.arange(m, dtype=np.int64) - gstart
            dirty_evictions += int(np.count_nonzero(dg & (rank >= 2)))
            second = fidx + 1
            in_range = second < m
            capped = np.where(in_range, second, 0)
            has2 = in_range & ~first[capped]
            t1 = np.where(has2, lg[capped], -1)
            dn1 = has2 & dg[capped]
        else:
            has2 = np.zeros(len(fidx), dtype=bool)
            t1 = np.full(len(fidx), -1, dtype=np.int64)
            dn1 = has2
        o1 = table.w1[tsets]
        od1 = table.d1[tsets]
        top_was_touched = o0 == t0
        keep_from_old = np.where(top_was_touched, o1, o0)
        keep_flag = np.where(top_was_touched, od1, od0)
        new1 = np.where(has2, t1, keep_from_old)
        nd1 = np.where(has2, dn1, keep_flag) & (new1 >= 0)
        evict0 = (o0 >= 0) & (o0 != t0) & (o0 != new1) & od0
        evict1 = (o1 >= 0) & (o1 != t0) & (o1 != new1) & od1
        dirty_evictions += int(np.count_nonzero(evict0))
        dirty_evictions += int(np.count_nonzero(evict1))
    else:  # direct-mapped
        if m > len(fidx):
            dirty_evictions += int(np.count_nonzero(dg & ~first))
        evict0 = (o0 >= 0) & (o0 != t0) & od0
        evict1 = None
        dirty_evictions += int(np.count_nonzero(evict0))
    # A displaced old line that was itself touched in-segment had its
    # pre-segment residency accounted by the warm-touch and generation
    # machinery above (the list backend skips such lines during the
    # merge); remove the duplicate displacement counts.
    if warm_touches:
        warm_sets = []
        warm_slots = []
        for b, _line, s, slot, _hit in warm_touches:
            if b >= n_rel:
                break
            warm_sets.append(s)
            warm_slots.append(slot)
        if warm_sets:
            ks = np.searchsorted(tsets, warm_sets)
            for k, slot in zip(ks.tolist(), warm_slots):
                if slot == 0:
                    if evict0[k]:
                        dirty_evictions -= 1
                elif evict1 is not None and evict1[k]:
                    dirty_evictions -= 1
    if table.assoc == 2:
        table.w1[tsets] = new1
        table.d1[tsets] = nd1
    table.w0[tsets] = t0
    table.d0[tsets] = dn0
    return dirty_evictions


def _close_segment_list(
    plan: QuantumPlan,
    i: int,
    n_rel: int,
    w: np.ndarray,
    num_writes: int,
    warm_touches: list[tuple[int, int, bool]],
    live_sets: list[list[int]],
    live_dirty: set[int],
) -> int:
    """End-state merge for the general (per-set list) backend.

    Same accounting as the table backend, applied to the scalar cache's
    MRU lists and dirty set in place.
    """
    plan.ensure_lists()
    assoc = plan.assoc
    end = i + n_rel
    lines_list = plan.lines_list
    sets_list = plan.sets_list
    dirt, fw_lines, cpos = _generation_dirt(plan, i, end, w, num_writes)
    dirty_evictions = dirt
    fw_keep = set(fw_lines.tolist())

    keep_warm: set[int] = set()
    if live_dirty and warm_touches:
        closing = plan.next_coldmiss
        closed_pos = set(cpos.tolist())
        for b, line, hit in warm_touches:
            if b >= n_rel:
                break
            if line not in live_dirty:
                continue
            if not hit:
                dirty_evictions += 1
            elif closing[i + b] >= end:
                keep_warm.add(line)
            elif int(closing[i + b]) not in closed_pos:
                dirty_evictions += 1

    js = np.flatnonzero(plan.nxt[i:end] >= end)
    touched_by_set: dict[int, list[int]] = {}
    setdefault = touched_by_set.setdefault
    for r in reversed(js.tolist()):
        j = i + r
        setdefault(sets_list[j], []).append(lines_list[j])

    dirty_add = live_dirty.add
    dirty_discard = live_dirty.discard
    for s, touched in touched_by_set.items():
        old_ways = live_sets[s]
        new_ways = []
        for t, line in enumerate(touched):
            dirty = line in fw_keep or line in keep_warm
            if t < assoc:
                new_ways.append(line)
                if dirty:
                    dirty_add(line)
                else:
                    dirty_discard(line)
            else:
                # Final generation pushed out inside the segment.
                if dirty:
                    dirty_evictions += 1
                dirty_discard(line)
        room = assoc - len(new_ways)
        for old in old_ways:
            if old in touched:
                continue
            if room > 0:
                new_ways.append(old)  # survives, dirty flag untouched
                room -= 1
            elif old in live_dirty:
                dirty_evictions += 1
                dirty_discard(old)
        live_sets[s] = new_ways
    return dirty_evictions
