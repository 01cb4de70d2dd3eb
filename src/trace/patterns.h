/**
 * @file
 * Reference-pattern generators used to synthesize application address
 * traces.
 *
 * Each pattern generates addresses within a Region of the synthetic
 * address space.  Three archetypes cover the locality behaviours the
 * paper's workload exhibits:
 *
 *  - ZipfResident: temporally skewed accesses to a resident working
 *    set (hit ratio tracks how much of the hot mass the L1 holds --
 *    most SPECint codes and the "flattening" fp curves).
 *  - CyclicSweep: a repeated sequential sweep over a region.  Under
 *    LRU this is all-miss until the cache holds the whole region and
 *    all-hit afterwards: the sharp-cliff behaviour appcg shows at the
 *    48->56 KB boundary.
 *  - Stream: a non-reused streaming walk over a very large region
 *    (compulsory misses that also miss in L2 -- the applu/mgrid/
 *    tomcatv tail that no on-chip configuration can absorb).
 */

#ifndef CAPSIM_TRACE_PATTERNS_H
#define CAPSIM_TRACE_PATTERNS_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "trace/record.h"
#include "util/inverse_table.h"
#include "util/rng.h"
#include "util/units.h"

namespace cap::trace {

/** A contiguous range of the synthetic address space. */
struct Region
{
    Addr base = 0;
    uint64_t size_bytes = 0;

    uint64_t blocks(uint64_t block_bytes) const
    {
        return size_bytes / block_bytes;
    }
};

/** Generates addresses according to one locality archetype. */
class Pattern
{
  public:
    virtual ~Pattern() = default;

    /** Produce the next address. */
    virtual Addr next(Rng &rng) = 0;

    /**
     * Append the pattern's mutable cursor state to @p out (patterns
     * whose draws depend only on the shared Rng append nothing).
     * Together with the source's Rng state this makes a generator
     * position fully restorable.
     */
    virtual void saveCursor(std::vector<uint64_t> &out) const
    {
        (void)out;
    }

    /**
     * Restore state previously appended by saveCursor().
     * @return Words consumed from @p words.
     */
    virtual size_t restoreCursor(const uint64_t *words)
    {
        (void)words;
        return 0;
    }
};

/**
 * Temporally skewed resident working set: block popularity follows a
 * Zipf distribution with exponent @p s over the region's blocks, and
 * block identity is shuffled so hot blocks are spatially scattered
 * (no accidental spatial locality across sets).
 */
class ZipfResident : public Pattern
{
  public:
    /**
     * @param region Working-set region.
     * @param block_bytes Cache-block granularity of the shuffle.
     * @param s Zipf exponent (0 = uniform, ~1.2 = strongly skewed).
     * @param shuffle_seed Seed for the popularity->address shuffle.
     */
    ZipfResident(Region region, uint64_t block_bytes, double s,
                 uint64_t shuffle_seed);

    Addr next(Rng &rng) override;

  private:
    Region region_;
    uint64_t block_bytes_;
    double s_;
    /** Rng::zipfNorm over the region's blocks, fixed per pattern. */
    double zipf_norm_;
    /** Rng::zipf over the region's blocks for s > 0; s <= 0 draws a
     *  uniform block through Rng::zipf itself. */
    std::optional<InverseTable> ranks_;
    std::vector<uint32_t> shuffle_;
};

/** Repeated in-order sweep over a region (LRU's worst case). */
class CyclicSweep : public Pattern
{
  public:
    CyclicSweep(Region region, uint64_t stride_bytes);

    Addr next(Rng &rng) override;

    void saveCursor(std::vector<uint64_t> &out) const override;
    size_t restoreCursor(const uint64_t *words) override;

  private:
    Region region_;
    uint64_t stride_bytes_;
    uint64_t offset_ = 0;
};

/**
 * Streaming walk over a large region with no reuse: each new block is
 * touched a configurable number of times (spatial locality within the
 * block) and never revisited; the walk wraps at the region end.
 */
class Stream : public Pattern
{
  public:
    /**
     * @param region Streamed region (should exceed total cache size).
     * @param block_bytes Cache-block size.
     * @param touches_per_block Accesses per block before moving on.
     */
    Stream(Region region, uint64_t block_bytes, int touches_per_block);

    Addr next(Rng &rng) override;

    void saveCursor(std::vector<uint64_t> &out) const override;
    size_t restoreCursor(const uint64_t *words) override;

  private:
    Region region_;
    uint64_t block_bytes_;
    int touches_per_block_;
    uint64_t block_index_ = 0;
    int touches_done_ = 0;
};

} // namespace cap::trace

#endif // CAPSIM_TRACE_PATTERNS_H
