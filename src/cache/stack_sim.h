/**
 * @file
 * Single-pass multi-boundary cache simulation (Mattson stack
 * distances) for the movable-boundary exclusive hierarchy.
 *
 * The paper's fixed index/tag mapping (DESIGN.md section 1.5) makes
 * every boundary placement of the 128 KB increment pool index the
 * *same* sets: increments contribute ways only.  Combined with strict
 * LRU inside the pool, the configurations form an inclusion chain, so
 * one pass that tracks each set's recency stack can score every
 * boundary at once:
 *
 *  - ExclusiveHierarchy's replacement policy (L1 hit restamps; L2 hit
 *    swaps with the L1 LRU; miss fills L1, demotes the L1 LRU and
 *    evicts the overall LRU) keeps the pool's stamps a strict
 *    move-to-front recency order over all totalWays() blocks of a set,
 *    with L1 holding exactly the top l1Ways(k) recency positions.
 *  - Hence a reference that finds its block at recency depth d is an
 *    L1 hit for every boundary k with l1Ways(k) > d and an L2 hit for
 *    every smaller boundary; misses, evictions and writebacks do not
 *    depend on the boundary at all.
 *
 * StackSimulator maintains the per-set move-to-front stacks and a
 * depth histogram; statsFor(k) reconstructs the exact CacheStats a
 * cold-started ExclusiveHierarchy with static boundary k would report
 * on the same reference sequence -- bit-identical, including swaps
 * (every L2 hit of a static cold-start run swaps) and writebacks
 * (dirtiness travels with the block in recency order).
 *
 * The one thing the stack property does NOT survive is a mid-run
 * setBoundary(): physical placement then starts to matter (the
 * re-labelled increments expose holes the static invariant rules
 * out), so a machine that reconfigures runs an ExclusiveHierarchy.
 * See docs/PERF.md for the full argument.
 */

#ifndef CAPSIM_CACHE_STACK_SIM_H
#define CAPSIM_CACHE_STACK_SIM_H

#include <cstdint>
#include <limits>
#include <vector>

#include "cache/exclusive_hierarchy.h"
#include "cache/geometry.h"
#include "trace/record.h"

namespace cap::cache {

/**
 * A recency position within one set's stack, and a stack's size.  The
 * StackSimulator constructor asserts totalWays() < kMissDepth, so
 * every hit depth (< totalWays()) fits and never equals the miss
 * marker.
 */
using StackDepth = uint16_t;

/** The depth StackSimulator::accessBatch() reports for a reference
 *  whose block was absent from the pool. */
inline constexpr StackDepth kMissDepth =
    std::numeric_limits<StackDepth>::max();

/**
 * Where a static hierarchy with @p l1_ways L1 ways services a
 * reference the stack found at @p depth: an L1 hit above the
 * boundary, an L2 hit below it, a miss at every boundary when the
 * block was absent (docs/PERF.md section 2).
 */
inline AccessOutcome
outcomeAtDepth(StackDepth depth, int l1_ways)
{
    if (depth == kMissDepth)
        return AccessOutcome::Miss;
    return depth < l1_ways ? AccessOutcome::L1Hit : AccessOutcome::L2Hit;
}

/**
 * The single-pass engine: per-set LRU stacks over the full increment
 * pool plus a service-depth histogram, from which the CacheStats of
 * every static boundary are reconstructed exactly.
 */
class StackSimulator
{
  public:
    explicit StackSimulator(const HierarchyGeometry &geometry);

    const HierarchyGeometry &geometry() const { return geometry_; }

    /** Record one reference into the stacks. */
    void access(const trace::TraceRecord &record);

    /**
     * Record a batch of references (amortizes the call overhead).
     * When @p depths is given, depths[i] receives reference i's
     * recency depth, or kMissDepth when its block was absent --
     * enough for outcomeAtDepth() to classify it at every boundary.
     */
    void accessBatch(const trace::TraceRecord *records, uint64_t count,
                     StackDepth *depths = nullptr);

    /** References recorded so far. */
    uint64_t refs() const { return refs_; }

    /**
     * Exact CacheStats a cold-started ExclusiveHierarchy with static
     * boundary @p l1_increments would report after the same reference
     * sequence.  O(totalWays) -- reconstruction, not simulation.
     */
    CacheStats statsFor(int l1_increments) const;

    /** statsFor(k) for every boundary k in [1, increments-1]. */
    std::vector<CacheStats> statsAll() const;

    /** Drop all stack state and counters (cold start). */
    void reset();

  private:
    HierarchyGeometry geometry_;
    int total_ways_;
    /** Per-set recency stacks, most-recent first; entry is
     *  (tag << 1) | dirty.  Flat [set * total_ways + depth]. */
    std::vector<uint64_t> entries_;
    /** Valid entries per set. */
    std::vector<StackDepth> sizes_;
    /** depth_hist_[d] = hits whose block sat at recency depth d. */
    std::vector<uint64_t> depth_hist_;
    uint64_t refs_ = 0;
    uint64_t misses_ = 0;
    uint64_t writebacks_ = 0;
};

} // namespace cap::cache

#endif // CAPSIM_CACHE_STACK_SIM_H
