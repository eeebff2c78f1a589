/*
 * Exact true-LRU, write-allocate set-associative cache kernel.
 *
 * One core's tag state lives in three flat arrays owned by the caller
 * (repro.cache.native.KernelState):
 *
 *   ways [num_sets * assoc]  resident line numbers, MRU-first per set
 *   dirty[num_sets * assoc]  per-way dirty flags, parallel to ways
 *   fill [num_sets]          valid ways per set (ways fill from 0)
 *
 * Both entry points overwrite counters[5] = {hits, misses, write_hits,
 * write_misses, dirty_evictions} with the call's totals, counted exactly
 * as repro.cache.sa_cache.SetAssociativeCache (the oracle) counts them.
 * Built with -O2 -shared -fPIC and loaded through ctypes.
 */
#include <stdint.h>

/* One access to the set whose ways start at w; returns 1 on a hit. */
static inline int lru_access(int64_t *w, uint8_t *d, int32_t *fill,
                             int32_t assoc, int64_t line, uint8_t write,
                             int64_t *counters)
{
    int32_t n = *fill, k, j;
    uint8_t flag = write;
    for (k = 0; k < n && w[k] != line; k++)
        ;
    int hit = k < n;
    if (hit) {
        flag |= d[k];
        counters[0] += 1;
        counters[2] += write;
    } else {
        counters[1] += 1;
        counters[3] += write;
        if (n == assoc) {
            k = n - 1; /* the LRU way is the victim */
            counters[4] += d[k];
        } else {
            *fill = n + 1;
        }
    }
    for (j = k; j > 0; j--) {
        w[j] = w[j - 1];
        d[j] = d[j - 1];
    }
    w[0] = line;
    d[0] = flag;
    return hit;
}

/* Run lines[0, n) to completion. */
void lru_run_trace(int64_t *ways, uint8_t *dirty, int32_t *fill,
                   int64_t set_mask, int32_t assoc, const int64_t *lines,
                   const uint8_t *writes, int64_t n, int64_t *counters)
{
    for (int c = 0; c < 5; c++)
        counters[c] = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t s = lines[i] & set_mask;
        lru_access(ways + s * assoc, dirty + s * assoc, fill + s, assoc,
                   lines[i], writes[i], counters);
    }
}

/*
 * Run from start until the cycle budget is spent: each access costs
 * base[i], plus miss_extra on a miss, and execution stops after the
 * access whose completion meets or exceeds the budget.  Stores the
 * cycles used in *used and returns the next index (n when finished).
 */
int64_t lru_run_budget(int64_t *ways, uint8_t *dirty, int32_t *fill,
                       int64_t set_mask, int32_t assoc, const int64_t *lines,
                       const uint8_t *writes, const int64_t *base,
                       int64_t start, int64_t n, int64_t miss_extra,
                       int64_t budget, int64_t *counters, int64_t *used)
{
    int64_t i = start, spent = 0;
    for (int c = 0; c < 5; c++)
        counters[c] = 0;
    while (i < n && spent < budget) {
        int64_t s = lines[i] & set_mask;
        int hit = lru_access(ways + s * assoc, dirty + s * assoc, fill + s,
                             assoc, lines[i], writes[i], counters);
        spent += base[i] + (hit ? 0 : miss_extra);
        i++;
    }
    *used = spent;
    return i;
}
