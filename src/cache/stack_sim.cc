#include "stack_sim.h"

#include <algorithm>
#include <cstring>

#include "util/status.h"

namespace cap::cache {

StackSimulator::StackSimulator(const HierarchyGeometry &geometry)
    : geometry_(geometry)
{
    geometry_.validate();
    total_ways_ = geometry_.totalWays();
    capAssert(total_ways_ < kMissDepth,
              "%d ways overflow the stack depth type", total_ways_);
    // Entries pack the dirty bit into bit 0, so the tag must fit in 63
    // bits: tag = addr / (block_bytes * sets) needs block*sets >= 2.
    capAssert(static_cast<uint64_t>(geometry_.block_bytes) *
                      geometry_.sets() >=
                  2,
              "geometry too small to pack tags");
    entries_.assign(geometry_.sets() * static_cast<uint64_t>(total_ways_),
                    0);
    sizes_.assign(geometry_.sets(), 0);
    depth_hist_.assign(static_cast<size_t>(total_ways_), 0);
}

void
StackSimulator::reset()
{
    std::fill(sizes_.begin(), sizes_.end(), 0);
    std::fill(depth_hist_.begin(), depth_hist_.end(), 0);
    refs_ = 0;
    misses_ = 0;
    writebacks_ = 0;
}

void
StackSimulator::access(const trace::TraceRecord &record)
{
    accessBatch(&record, 1);
}

void
StackSimulator::accessBatch(const trace::TraceRecord *records,
                            uint64_t count, StackDepth *depths)
{
    const int total = total_ways_;
    refs_ += count;
    for (uint64_t r = 0; r < count; ++r) {
        const trace::TraceRecord &record = records[r];
        uint64_t index = geometry_.setIndex(record.addr);
        uint64_t tag = geometry_.tag(record.addr);
        uint64_t *stack =
            &entries_[index * static_cast<uint64_t>(total)];
        int size = sizes_[index];
        uint64_t dirty = record.is_write ? 1u : 0u;

        int depth = -1;
        for (int d = 0; d < size; ++d) {
            if ((stack[d] >> 1) == tag) {
                depth = d;
                break;
            }
        }

        if (depth >= 0) {
            // Hit at recency depth `depth`: L1 for boundaries whose
            // l1Ways exceeds it, L2 otherwise.  Move to front,
            // accumulating dirtiness.
            ++depth_hist_[static_cast<size_t>(depth)];
            if (depths)
                depths[r] = static_cast<StackDepth>(depth);
            uint64_t entry = stack[depth] | dirty;
            std::memmove(stack + 1, stack,
                         static_cast<size_t>(depth) * sizeof(uint64_t));
            stack[0] = entry;
            continue;
        }

        // Miss for every boundary.  A full set evicts the overall LRU
        // (recency depth total-1) -- the same victim, and the same
        // writeback decision, for every boundary placement.
        ++misses_;
        if (depths)
            depths[r] = kMissDepth;
        if (size == total) {
            writebacks_ += stack[total - 1] & 1;
            std::memmove(stack + 1, stack,
                         static_cast<size_t>(total - 1) *
                             sizeof(uint64_t));
        } else {
            std::memmove(stack + 1, stack,
                         static_cast<size_t>(size) * sizeof(uint64_t));
            sizes_[index] = static_cast<StackDepth>(size + 1);
        }
        stack[0] = (tag << 1) | dirty;
    }
}

CacheStats
StackSimulator::statsFor(int l1_increments) const
{
    capAssert(l1_increments >= 1 &&
              l1_increments < geometry_.increments,
              "boundary %d out of range", l1_increments);
    int l1_ways = geometry_.l1Ways(l1_increments);
    CacheStats stats;
    stats.refs = refs_;
    for (int d = 0; d < total_ways_; ++d) {
        if (d < l1_ways)
            stats.l1_hits += depth_hist_[static_cast<size_t>(d)];
        else
            stats.l2_hits += depth_hist_[static_cast<size_t>(d)];
    }
    stats.misses = misses_;
    stats.writebacks = writebacks_;
    // Static cold-start runs keep L1 full whenever L2 is non-empty, so
    // every L2 hit takes the swap path (docs/PERF.md section 3).
    stats.swaps = stats.l2_hits;
    return stats;
}

std::vector<CacheStats>
StackSimulator::statsAll() const
{
    std::vector<CacheStats> all;
    all.reserve(static_cast<size_t>(geometry_.increments - 1));
    for (int k = 1; k < geometry_.increments; ++k)
        all.push_back(statsFor(k));
    return all;
}

} // namespace cap::cache
