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
 * out).  BoundarySweeper wraps the engine with a self-checking
 * fallback: it behaves as a live reconfigurable hierarchy, serving
 * stats from the stack while the boundary has never moved, and on the
 * first mid-run reconfiguration replays the recorded reference history
 * through a real ExclusiveHierarchy and continues on it -- while the
 * counterfactual all-boundary sweep stays exact (its lanes never
 * reconfigure).  See docs/PERF.md for the full argument.
 */

#ifndef CAPSIM_CACHE_STACK_SIM_H
#define CAPSIM_CACHE_STACK_SIM_H

#include <cstdint>
#include <limits>
#include <memory>
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

/**
 * A reconfigurable machine facade with a built-in counterfactual
 * sweep.  While the boundary never moves mid-run, the live machine's
 * stats come straight from the stack engine (one-pass mode) and the
 * reference history is recorded; the first mid-run setBoundary()
 * breaks the stack property, so the sweeper self-checks out: it
 * replays the history through a real ExclusiveHierarchy (exactness
 * preserved by construction) and continues the live simulation on it.
 * The all-boundary counterfactual statsFor()/statsAll() remain exact
 * in both modes, because those static lanes never reconfigure.
 */
class BoundarySweeper
{
  public:
    BoundarySweeper(const HierarchyGeometry &geometry, int l1_increments);

    const HierarchyGeometry &geometry() const { return stack_.geometry(); }

    /** Live boundary. */
    int l1Increments() const { return boundary_; }

    /**
     * Move the live boundary.  A move after the first access engages
     * the fallback (the one-pass stack cannot model it); moves before
     * any reference just re-label the initial boundary.
     */
    void setBoundary(int l1_increments);

    /** Simulate one reference on the live machine (and the stacks). */
    void access(const trace::TraceRecord &record);

    /** Batched access. */
    void accessBatch(const trace::TraceRecord *records, uint64_t count);

    /** Exact stats of the live (possibly reconfigured) machine. */
    CacheStats liveStats() const;

    /** Exact counterfactual stats of static boundary @p k. */
    CacheStats statsFor(int k) const { return stack_.statsFor(k); }

    /** Exact counterfactual stats of every static boundary. */
    std::vector<CacheStats> statsAll() const { return stack_.statsAll(); }

    /** True while the live machine is served by the one-pass stack. */
    bool onePassActive() const { return !fallback_; }

    /** References replayed when the fallback engaged (0 = never). */
    uint64_t fallbackReplayedRefs() const { return fallback_replayed_; }

  private:
    void engageFallback();

    StackSimulator stack_;
    int boundary_;
    bool fallback_ = false;
    uint64_t fallback_replayed_ = 0;
    /** Reference history kept until the fallback decision is final. */
    std::vector<trace::TraceRecord> history_;
    /** Live machine; materialized only after a mid-run reconfig. */
    std::unique_ptr<ExclusiveHierarchy> live_;
};

} // namespace cap::cache

#endif // CAPSIM_CACHE_STACK_SIM_H
